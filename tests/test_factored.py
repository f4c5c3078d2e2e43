"""Factored band storage against the same bands folded into dense multipliers.

A lone one-row band of nonnegative float64 entries is stored as its vector e,
one with a single nonzero included, and its multiplier M_o = e^T e is formed
only on the window a kernel reads (or once, for a channel small enough to
form them all). Other bands of single matrix units go into a dense transfer
matrix T. Every reader must return what the dense multipliers and the dense
T give, bit for bit and sign of zero included: the kernels in both their
factored and their formed form, the coherence blocks, the Fock-level
tables, the Kraus stack and the trace-preservation defect. The storage then
holds O(dim^2) bytes, and code values of amplitude and phase damping do not
depend on the truncation.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kraus_reference import full_band_apply
import subchan.channels
from subchan.channels import (
    KrausChannel,
    _coherence_block,
    adjoint_apply,
    apply_channel,
)
from subchan.cli import main
from subchan.encodings import realize_encoding
from subchan.errors import ResourceLimitError
from subchan.families import amplitude_damping, depolarizing, phase_damping
from subchan.fidelity import _fock_tables, average_fidelity_closed, level_process_tensor
from subchan.subspaces import Subspace

KINDS = ("vector", "vector", "vector", "signed", "rows", "complex", "unit")


def _band(kind, length, rng):
    """A band of ``kind`` on ``length`` entries: a nonnegative real row with zeros and
    tiny entries (stored as a vector), a row with sign bits set, several real rows, complex
    rows, or unit rows of one entry each."""
    if kind == "vector":
        row = rng.random(length) * 10.0 ** rng.integers(-170, 1, length)
        row[rng.random(length) < 0.3] = 0.0
        return row[np.newaxis]
    if kind == "signed":
        row = rng.normal(size=length)
        row[rng.random(length) < 0.3] = -0.0
        return row[np.newaxis]
    if kind == "rows":
        return rng.random((int(rng.integers(2, 4)), length))
    if kind == "complex":
        shape = (int(rng.integers(1, 3)), length)
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)
    at = rng.choice(length, size=int(rng.integers(1, length + 1)), replace=False)
    rows = np.zeros((len(at), length))
    rows[np.arange(len(at)), at] = rng.random(len(at)) + 0.1
    return rows


@st.composite
def band_cases(draw):
    """(bands, multipliers, rng) for a random band channel on dim <= 8: a band of a
    random kind on each of a few offsets (offset 0 not always among them), and now and
    then a square multiplier on a band's offset, which folds both into one."""
    dim = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    offsets = draw(st.sets(st.integers(min_value=1 - dim, max_value=dim - 1),
                           min_size=1, max_size=5))
    bands = {o: _band(draw(st.sampled_from(KINDS)), dim - abs(o), rng) for o in offsets}
    multipliers = {}
    if draw(st.booleans()):
        o = draw(st.sampled_from(sorted(offsets)))
        e = rng.random(dim - abs(o))
        multipliers[o] = np.outer(e, e)
    return bands, multipliers, rng


def _dense_reference(bands, multipliers, dim, transfer=None):
    """The same channel from dense multipliers e^T conj(e) (summed with the given ones)
    and a dense T: ``transfer`` or zeros, plus the unit bands. A lone one-row band of
    nonnegative floats is a multiplier even when it holds one entry, as in storage."""
    square = {}
    t = np.zeros((dim, dim)) if transfer is None else np.array(transfer, dtype=float)
    for o, a in bands.items():
        vector = len(a) == 1 and a.dtype == float and not np.signbit(a).any()
        if np.all(np.count_nonzero(a, axis=1) == 1) and not (vector and o not in multipliers):
            t.reshape(-1)[subchan.channels._diagonal(o, dim)] += (np.abs(a) ** 2).sum(axis=0)
        else:
            square[o] = a.T @ a.conj()
    for o, m in multipliers.items():
        square[o] = square[o] + m if o in square else m
    return KrausChannel(multipliers=square or None, transfer=t)  # an all-zero T is dropped


def _assert_readers_equal(ch, ref, rng):
    """Every reader of ``ch`` returns what it returns for ``ref``, bit for bit."""
    dim = ch.dim
    assert ch.tp_defect == ref.tp_defect
    x = _inputs(dim, rng)
    for kernel in (apply_channel, adjoint_apply):
        assert _same(kernel(ch, x), kernel(ref, x))
        assert _same(kernel(ch, x[0]), kernel(ref, x[0]))
        f = np.asfortranarray(x[1])
        assert _same(kernel(ch, f), kernel(ref, f))
    for q in range(1 - dim, dim):
        assert _same(_coherence_block(ch, q), _coherence_block(ref, q))
    for n in range(1, dim + 1):
        assert all(map(_same, _fock_tables(ch, n), _fock_tables(ref, n)))
    levels = sorted(rng.choice(dim, size=int(rng.integers(1, min(dim, 4) + 1)),
                               replace=False).tolist())
    assert _same(level_process_tensor(ch, levels), level_process_tensor(ref, levels))
    assert list(ch.multipliers) == list(ref.multipliers)
    for o in ch.multipliers:
        assert _same(ch.multipliers[o], ref.multipliers[o])
    assert _same(0 if ch.transfer is None else ch.transfer,
                 0 if ref.transfer is None else ref.transfer)
    # Both factor the same M_o into the same number of rows.
    ref._ranks, ref.kraus_truncation = ch._ranks, ch.kraus_truncation
    assert _same(ch.kraus_ops, ref.kraus_ops)


def _same(a, b):
    """Equal entry for entry, the sign of every zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(np.imag(a)), np.signbit(np.imag(b))))


def _inputs(dim, rng):
    """A (3, dim, dim) stack on a random window of levels, with signed zeros off it
    and some on it."""
    lo = int(rng.integers(0, dim))
    hi = int(rng.integers(lo + 1, dim + 1))
    x = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
    off = np.ones((dim, dim), dtype=bool)
    off[lo:hi, lo:hi] = False
    x[:, off] = 0.0
    x.real[:, off] *= rng.choice([-1.0, 1.0], size=(3, dim, dim))[:, off]
    x.imag[:, off] *= rng.choice([-1.0, 1.0], size=(3, dim, dim))[:, off]
    x[:, ~off & (rng.random((dim, dim)) < 0.2)] = -0.0
    return x


class TestFactoredEqualsDense:
    @settings(max_examples=80, deadline=None)
    @given(band_cases(), st.booleans())
    def test_every_reader_matches_dense_multipliers(self, case, formed):
        bands, multipliers, rng = case
        dim = next(a.shape[-1] + abs(o) for o, a in bands.items())
        # A budget of 0 bytes keeps the vectors factored in the kernels.
        with mock.patch.object(subchan.channels, "FORMED_BYTES", 2**20 if formed else 0):
            ch = KrausChannel(bands=bands, multipliers=multipliers)
        _assert_readers_equal(ch, _dense_reference(bands, multipliers, dim), rng)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    def test_families_store_vectors_and_entries(self, eta):
        # Amplitude damping forms its multipliers up to dim 72 (FORMED_BYTES) and keeps
        # its vectors unformed from dim 73 on.
        for dim in (40, 70, 71, 72, 73):
            ch = amplitude_damping(eta, dim)
            assert ch.kraus_truncation == dim
            if eta == 0.0:  # every operator a matrix unit: T[0, :] = 1 alone
                collapse = np.zeros((dim, dim))
                collapse[0] = 1.0
                assert ch._stored == {} and _same(ch.transfer, collapse)
                bands = {}
            else:  # one vector per offset, the one-entry band on offset dim - 1 too, no T
                assert [e.ndim for e in ch._stored.values()] == [1] * dim
                assert ch.transfer is None
                assert ch._stored[dim - 1][0] ** 2 == pytest.approx((1 - eta) ** (dim - 1))
                bands = {o: e[np.newaxis] for o, e in ch._stored.items()}
            ref = _dense_reference(bands, {}, dim, transfer=ch.transfer)
            _assert_readers_equal(ch, ref, np.random.default_rng(dim))
        # dep keeps its dense T; its identity band is a vector.
        dep = depolarizing(0.4, 12)
        assert dep.transfer is not None and {o: e.ndim for o, e in dep._stored.items()} == {0: 1}


class TestStorage:
    def test_amplitude_damping_at_256_holds_under_1_mb(self):
        # Folded into square multipliers it held 45.5 MB, and built with a peak of
        # 47.3 MB. A first small build traces numpy's lazy imports.
        amplitude_damping(0.5, 4)
        tracemalloc.start()
        try:
            ch = amplitude_damping(0.5, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ch.stored_bytes < 1e6
        assert peak < 2e6

    def test_stored_bytes_counts_what_is_held(self):
        ad = amplitude_damping(0.5, 256)
        assert ad.stored_bytes == 256 * 257 // 2 * 8  # one vector per offset, no T
        pd = phase_damping(0.5, 64)
        assert pd.stored_bytes == 64 * 64 * 8
        dense = KrausChannel(np.eye(3)[np.newaxis] + np.eye(3, k=1))
        assert dense.stored_bytes == 3 * 3 * 16
        # A small channel forms its multipliers at construction and holds them too.
        small = amplitude_damping(0.5, 8)
        formed = sum((8 - o) ** 2 for o in range(8)) * 8
        assert small.stored_bytes == 8 * 9 // 2 * 8 + formed
        # A channel holding a dense T forms the vectors whose multipliers fit in T's
        # bytes: depolarizing's M_0 at any dim, here past FORMED_BYTES.
        dep = depolarizing(0.4, 400)
        assert dep.stored_bytes == 400 * 8 + 2 * 400 * 400 * 8

    def test_amplitude_damping_holds_no_transfer_matrix(self):
        ad = amplitude_damping(0.5, 256)
        assert ad.transfer is None and ad.stored_bytes == 256 * 257 // 2 * 8
        x = np.random.default_rng(8).normal(size=(256, 256)) + 0j  # full support
        moved = mock.Mock(wraps=subchan.channels._add_moved_populations)
        with mock.patch.object(subchan.channels, "_add_moved_populations", moved):
            apply_channel(ad, x)
            assert moved.call_count == 0
            apply_channel(depolarizing(0.5, 256), x)  # a channel holding T adds through it
            assert moved.call_count == 1

    def test_formed_reads_are_guarded_and_read_only(self, monkeypatch):
        ch = amplitude_damping(0.5, 300)
        m = ch.multipliers[1]
        assert m.shape == (299, 299) and not m.flags.writeable
        dep = depolarizing(0.5, 300)
        assert dep.transfer.shape == (300, 300) and not dep.transfer.flags.writeable
        monkeypatch.setattr(subchan.channels, "MAX_KRAUS_BYTES", 299**2 * 8 - 1)
        with pytest.raises(ResourceLimitError, match="multiplier 1 at dim 300 needs"):
            ch.multipliers[1]
        assert ch.multipliers[2].shape == (298, 298)
        # T is held, not formed on a read: its guard is the family's, before it is built.
        monkeypatch.setattr(subchan.channels, "MAX_KRAUS_BYTES", 300**2 * 8 - 1)
        assert dep.transfer.shape == (300, 300)
        with pytest.raises(ResourceLimitError, match="depolarizing at dim 300 needs"):
            depolarizing(0.5, 300)
        assert ch.multipliers[299].shape == (1, 1)  # the one-entry band is a vector
        with pytest.raises(KeyError):
            ch.multipliers[300]


class TestWindowedAdjoint:
    def test_matrix_unit_at_1024_forms_only_its_window(self, monkeypatch):
        # Phi* of |0><1| reads x on levels 0 and 1 alone: each offset forms at most a
        # 2 x 2 block. Summed at full size, the blocks held 357,389,827 entries in all.
        ch = amplitude_damping(0.5, 1024)
        x = np.zeros((1024, 1024), dtype=complex)
        x[0, 1] = 1.0
        formed, outer = [], subchan.channels._outer

        def counting(e):
            block = outer(e)
            formed.append(block.size)
            return block

        monkeypatch.setattr(subchan.channels, "_outer", counting)
        out = adjoint_apply(ch, x)
        assert sum(formed) <= 4 * ch.dim
        assert np.array_equal(out, full_band_apply(ch, x, adjoint=True))


class TestTruncationIndependence:
    # The codes' Fock windows are invariant under these channels, so the code values at
    # dim 1024 are those at the smallest truncation holding the code, bit for bit.
    CODES = [((0, 1), None), ((1, 4), None), ((0, 2, 3), [[0.6, 0.0, 0.8], [0.0, 1.0, 0.0]]),
             ((0, 1, 5), [[1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)], [0.0, 1.0, 0.0]])]

    @pytest.mark.parametrize("family, eta", [(amplitude_damping, 0.37), (phase_damping, 0.81)])
    @pytest.mark.parametrize("levels, frame", CODES)
    def test_value_at_1024_is_the_window_value(self, family, eta, levels, frame):
        def value(dim):
            code = (Subspace.from_levels(levels, dim) if frame is None
                    else realize_encoding(levels, frame, dim))
            return average_fidelity_closed(family(eta, dim), code).value

        assert value(1024) == value(max(levels) + 1)


class TestLargeTruncationCommands:
    def test_hull_check_of_amplitude_damping_at_1024(self, capsys):
        code = main(["hull-check", "--channel", "ad", "--eta", "0.5", "--levels", "0",
                     "--dim", "1024"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert "verdict: an invariant hull" in out

    def test_past_the_limit_exits_1_on_the_estimate(self, capsys):
        # Refused before anything of the channel's size is allocated.
        tracemalloc.start()
        try:
            code = main(["hull-check", "--channel", "ad", "--eta", "0.5", "--levels", "0",
                         "--dim", "2586"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert line.startswith("error: amplitude damping at dim 2586 needs")
        assert peak < 1e6

