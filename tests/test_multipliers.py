"""Multiplier storage against independent references.

Band channels are stored by, and built from, their Schur multipliers M_o
and the population-transfer matrix T of the diagonal ones. Every kernel
that reads them is checked here against dense Kraus sums, one operator at
a time, and the closed-form phase damping multiplier against the Poisson
Kraus family summed term by term. Inputs supported on a few levels check the support
window of ``apply_channel`` and ``adjoint_apply``, on formed and on vector
storage, against the same sums and against the full-size products, and the
compression of a channel onto a window of levels against
the same sums cut to that window. A stack of inputs is checked matrix by
matrix against the 2-D calls.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kraus_reference import (
    dense_adjoint,
    dense_apply,
    dense_fixed_points,
    dense_superoperator,
    dense_tp_defect,
    diagonal_kraus_adjoint,
    diagonal_kraus_apply,
    full_band_apply,
    poisson_phase_damping,
    random_hermitian,
    span_projector,
)
from subchan import channels
from subchan.channels import (
    KrausChannel,
    _compress,
    adjoint_apply,
    apply_channel,
    superoperator_of,
    tp_defect_on_block,
)
from subchan.errors import ConstraintError, DimensionMismatchError, ResourceLimitError
from subchan.fileio import save_channel
from subchan.families import amplitude_damping, depolarizing, phase_damping
from subchan.subspaces import fixed_point_space
from subchan.tolerances import FIXED_POINT_TOL


def _probe(dim, seed):
    rng = np.random.default_rng(seed)
    return random_hermitian(dim, rng) + 1j * random_hermitian(dim, rng)


def _stored_bytes(ch):
    transfer = 0 if ch.transfer is None else ch.transfer.nbytes
    return sum(m.nbytes for m in ch.multipliers.values()) + transfer


class TestPhaseDampingMultiplier:
    @pytest.mark.parametrize("eta", [0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("dim", range(1, 33))
    def test_matches_poisson_kraus_sum(self, dim, eta):
        diags, defect = poisson_phase_damping(eta, dim)
        ch = phase_damping(eta, dim)
        x = _probe(dim, dim)
        # The sum's multiplier sits within about its own defect of the exact
        # one, entry by entry, and a multiplier acts entry by entry.
        bound = (2 * defect + 1e-15) * np.max(np.abs(x))
        assert np.max(np.abs(apply_channel(ch, x) - diagonal_kraus_apply(diags, x))) <= bound
        assert np.max(np.abs(adjoint_apply(ch, x) - diagonal_kraus_adjoint(diags, x))) <= bound

    @pytest.mark.parametrize("eta", [0.1, 0.5, 0.9, 0.999])
    def test_exact_trace_preservation_up_to_256(self, eta):
        assert max(phase_damping(eta, dim).tp_defect for dim in range(1, 257)) <= 1e-15

    def test_numerically_singular_multiplier_factors(self):
        # At eta near 1 the exact multiplier is positive definite but far below
        # double precision in most directions; the pivoted factor still has
        # one row per level and reproduces the action.
        ch = phase_damping(0.999, 64)
        ops = ch.kraus_ops
        assert ops.shape == (64, 64, 64)
        x = _probe(64, 3)
        assert np.max(np.abs(dense_apply(ops, x) - apply_channel(ch, x))) <= 1e-13

    def test_storage_at_256(self):
        # Before multiplier storage: 189 MB of Poisson terms (phase damping)
        # and about 90 MB of dense bands (depolarizing).
        assert _stored_bytes(phase_damping(0.5, 256)) * 10 <= 189e6
        assert _stored_bytes(depolarizing(0.5, 256)) * 10 <= 90e6


class TestKrausFactor:
    @pytest.mark.parametrize("m, left", [
        ([[1, 2], [2, 1]], 3.0),
        ([[0, 1], [1, 0]], 1.0),  # a zero diagonal: only the off-diagonal residual shows it
        (np.diag([1, -1e-3]), 1e-3),
    ])
    def test_a_multiplier_that_is_not_psd_is_refused(self, m, left, tmp_path):
        ch = KrausChannel(multipliers={0: np.array(m, dtype=float)})
        with pytest.raises(ConstraintError, match="not positive semidefinite") as refused:
            ch.kraus_ops
        assert refused.value.residual == left
        path = tmp_path / "channel.txt"
        with pytest.raises(ConstraintError):
            save_channel(ch, path)
        assert not path.exists()

    @pytest.mark.parametrize("family", [amplitude_damping, phase_damping, depolarizing])
    def test_every_family_factors(self, family):
        # Amplitude damping at dims 64 and 128 near eta 1 has multipliers of
        # subnormal entries alone; their factors leave residual entries of
        # 4.9e-324, which the absolute floor lets through.
        etas = (0, 0.01, 0.3, 0.5, 0.9, 0.99, 0.999, 0.9999, 1 - 1e-8, 1)
        for dim in [*range(1, 40), 64, 128]:
            for eta in etas:
                if family is phase_damping and eta == 0:
                    continue  # phase damping needs eta > 0
                try:
                    ops = family(eta, dim).kraus_ops
                except ResourceLimitError:  # depolarizing's stack past dim 39
                    assert family is depolarizing and dim >= 64
                    continue
                assert ops.shape[1:] == (dim, dim)


class TestDepolarizingTransfer:
    def test_stored_as_identity_multiplier_and_transfer(self):
        ch = depolarizing(0.3, 5)
        assert list(ch.multipliers) == [0]
        assert np.array_equal(ch.multipliers[0], np.full((5, 5), np.sqrt(0.3) ** 2))
        assert np.array_equal(ch.transfer, np.full((5, 5), 0.7 / 5))
        assert ch.kraus_truncation == 1 + 5**2

    def test_reloaded_stack_folds_units_into_transfer(self):
        # A reloaded channel file holds sqrt(p) I and every scaled matrix unit.
        # Off offset 0 the units go into the transfer matrix; offset 0 mixes
        # them with sqrt(p) I, so they join its square multiplier.
        family = depolarizing(0.3, 5)
        reloaded = KrausChannel(family.kraus_ops)
        assert list(reloaded.multipliers) == [0]
        off_diagonal = ~np.eye(5, dtype=bool)
        assert np.array_equal(reloaded.transfer[off_diagonal], family.transfer[off_diagonal])
        assert not np.any(np.diagonal(reloaded.transfer))
        assert reloaded.kraus_truncation == family.kraus_truncation
        assert np.max(np.abs(superoperator_of(reloaded) - superoperator_of(family))) < 1e-15

    def test_diagonal_multipliers_must_be_real_and_nonnegative(self):
        # Diagonal multipliers are passed together as the transfer matrix,
        # never as vectors.
        with pytest.raises(ValueError, match=r"multiplier 1 has shape \(2,\)"):
            KrausChannel(multipliers={0: np.eye(3), 1: [0.5, 0.5]})
        with pytest.raises(ValueError, match=r"multiplier 0 has shape \(3,\)"):
            KrausChannel(multipliers={0: np.ones(3)})
        with pytest.raises(ValueError, match="transfer must be real and nonnegative"):
            KrausChannel(multipliers={0: np.eye(3)}, transfer=np.diag([0.5, -0.1], -1))
        with pytest.raises(ValueError, match="transfer must be real and nonnegative"):
            KrausChannel(multipliers={0: np.eye(3)}, transfer=np.diag([0.5, 1j], 1))
        with pytest.raises(ValueError, match=r"transfer has shape \(3, 2\)"):
            KrausChannel(transfer=np.ones((3, 2)))
        with pytest.raises(ValueError, match="imply different dims"):
            KrausChannel(multipliers={0: np.eye(3)}, transfer=np.ones((2, 2)))

    def test_unit_bands_and_diagonals_add_on_shared_entries(self):
        # A signed one-entry band goes into T; a nonnegative one would be kept as a vector.
        ch = KrausChannel(bands={1: [[0.0, -2.0]]},
                          transfer=[[1.0, 0.5, 0.0], [0.0, 0.0, 0.25], [0.0, 0.0, 0.0]])
        expect = np.zeros((3, 3))
        expect[0, 0], expect[0, 1], expect[1, 2] = 1.0, 0.5, 4.0 + 0.25
        assert np.array_equal(ch.transfer, expect)

    def test_transfer_is_copied_as_float(self):
        given = np.full((2, 2), 1, dtype=np.float32)
        ch = KrausChannel(transfer=given)
        assert ch.transfer.dtype == float and not ch.transfer.flags.writeable
        given[0, 0] = 0
        assert np.array_equal(ch.transfer, np.ones((2, 2)))
        assert ch.kraus_truncation == 4


# ---------------------------------------------------------------------------
# Random band channels mixing square and diagonal multipliers
# ---------------------------------------------------------------------------


@st.composite
def multiplier_channels(draw, vectors=False):
    """(ops, full, units) for a random band channel on dim <= 7.

    ``full`` maps offsets to Kraus diagonals (terms, dim - |o|), ``units``
    maps offsets to the weights of the matrix units |a><a+o| (some zero), and
    ``ops`` is the dense stack of both, one operator per diagonal and per
    nonzero weight. Offset 0 always holds a dense term, so every column is
    covered. ``replacement`` adds a weight on every entry, as the matrix
    units of a reloaded depolarizing file do. The columns are then scaled to
    trace preservation, or, for ``lossy`` channels, off it at random. With
    ``vectors``, some channels draw every band as one real nonnegative term,
    which band storage keeps as its vector.
    """
    dim = draw(st.integers(min_value=1, max_value=7))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    offsets = {0} | set(draw(st.lists(st.integers(min_value=1 - dim, max_value=dim - 1),
                                      max_size=4)))
    nonnegative = vectors and draw(st.booleans())
    full, units = {}, {}
    for o in sorted(offsets):
        m = dim - abs(o)
        if o == 0 or draw(st.booleans()):
            if nonnegative:
                full[o] = np.abs(rng.normal(size=(1, m)))
            else:
                terms = draw(st.integers(min_value=1, max_value=3))
                full[o] = rng.normal(size=(terms, m)) + 1j * rng.normal(size=(terms, m))
        else:
            units[o] = rng.random(m) * (rng.random(m) < 0.7)
    if draw(st.booleans()):
        for o in range(1 - dim, dim):
            units[o] = units.get(o, 0.0) + np.full(dim - abs(o), rng.random())
    column_mass = np.zeros(dim)
    for o in offsets | set(units):
        cols = np.arange(dim - abs(o)) + max(0, o)
        column_mass[cols] += np.sum(np.abs(full[o]) ** 2, axis=0) if o in full else 0.0
        column_mass[cols] += units.get(o, 0.0)
    scale = 1.0 / np.sqrt(column_mass)
    if draw(st.booleans()):
        scale *= rng.uniform(0.5, 1.5, size=dim)
    ops = []
    for o in range(1 - dim, dim):
        rows = np.arange(dim - abs(o)) + max(0, -o)
        if o in full:
            full[o] = full[o] * scale[rows + o]
            for e in full[o]:
                op = np.zeros((dim, dim), dtype=complex)
                op[rows, rows + o] = e
                ops.append(op)
        if o in units:
            units[o] = units[o] * scale[rows + o] ** 2
            for a in np.flatnonzero(units[o]):
                op = np.zeros((dim, dim), dtype=complex)
                op[rows[a], rows[a] + o] = np.sqrt(units[o][a])
                ops.append(op)
    return np.array(ops), full, units


def _constructions(ops, full, units):
    """The same channel from its dense stack, from its bands and the transfer
    matrix of its unit weights, and from its square multipliers (holding the
    unit weights on their own offsets) and the transfer matrix of the rest."""
    dim = ops.shape[1]
    square = {o: e.T @ e.conj() for o, e in full.items()}
    for o in set(square) & set(units):
        square[o] = square[o] + np.diag(units[o])

    def transfer(offsets):
        return sum((np.diag(units[o], o) for o in offsets), np.zeros((dim, dim)))

    return [KrausChannel(ops),
            KrausChannel(bands=full, transfer=transfer(units) if units else None),
            KrausChannel(multipliers=square, transfer=transfer(set(units) - set(square)))]


class TestRandomMultiplierChannels:
    @settings(max_examples=60, deadline=None)
    @given(multiplier_channels(), st.integers(min_value=0, max_value=10**6))
    def test_kernels_match_dense_kraus_sum(self, case, seed):
        ops, full, units = case
        x = _probe(ops.shape[1], seed)
        for ch in _constructions(ops, full, units):
            assert ch.multipliers is not None
            assert np.max(np.abs(apply_channel(ch, x) - dense_apply(ops, x))) < 1e-12
            assert np.max(np.abs(adjoint_apply(ch, x) - dense_adjoint(ops, x))) < 1e-12
            assert ch.tp_defect == pytest.approx(dense_tp_defect(ops), abs=1e-13)
            for block in range(1, ch.dim + 1):
                assert tp_defect_on_block(ch, block) == pytest.approx(
                    dense_tp_defect(ops, block), abs=1e-13)
            assert np.max(np.abs(superoperator_of(ch) - dense_superoperator(ops))) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(multiplier_channels())
    def test_fixed_points_match_dense_oracle(self, case):
        ops, full, units = case
        dense = dense_fixed_points(ops, FIXED_POINT_TOL)
        for ch in _constructions(ops, full, units):
            members = fixed_point_space(ch)
            assert len(members) == len(dense)
            gap = np.max(np.abs(span_projector(members) - span_projector(dense)), initial=0.0)
            assert gap <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(multiplier_channels(), st.integers(min_value=0, max_value=10**6))
    def test_kraus_form_reproduces_the_action(self, case, seed):
        ops, full, units = case
        stacked, banded, square = _constructions(ops, full, units)
        assert np.array_equal(stacked.kraus_ops, ops)
        # Single-entry terms on one entry merge, as at dim 1.
        assert banded.kraus_truncation <= len(ops)
        x = _probe(ops.shape[1], seed)
        for ch in (banded, square):
            rebuilt = ch.kraus_ops
            assert rebuilt.shape == (ch.kraus_truncation, ch.dim, ch.dim)
            assert np.max(np.abs(dense_apply(rebuilt, x) - apply_channel(ch, x))) < 1e-13


# ---------------------------------------------------------------------------
# Inputs supported on a few levels: the support window
# ---------------------------------------------------------------------------

SUPPORTS = ("window", "corner", "ends", "last", "zero")


def _supported(dim, support, lo, hi, seed):
    """A random complex operator whose nonzero rows and columns are those of ``support``.

    "window": every entry on levels lo..hi-1; "corner": the one entry
    x[lo, hi-1]; "ends": levels 0 and min(5, dim-1), nothing between;
    "last": the top level alone; "zero": nothing.
    """
    rng = np.random.default_rng(seed)
    x = np.zeros((dim, dim), dtype=complex)
    levels = {"window": np.arange(lo, hi), "ends": np.unique([0, min(5, dim - 1)]),
              "last": np.array([dim - 1])}.get(support)
    if support == "corner":
        x[lo, hi - 1] = rng.normal() + 1j * rng.normal()
    elif levels is not None:
        block = np.ix_(levels, levels)
        x[block] = rng.normal(size=x[block].shape) + 1j * rng.normal(size=x[block].shape)
    return x


def _check_supported(ch, ops, x):
    for adjoint, kernel, dense in ((False, apply_channel, dense_apply),
                                   (True, adjoint_apply, dense_adjoint)):
        out = kernel(ch, x)
        assert np.max(np.abs(out - dense(ops, x))) <= 1e-13
        assert np.array_equal(out, full_band_apply(ch, x, adjoint))


class TestSupportWindow:
    @settings(max_examples=150, deadline=None)
    @given(multiplier_channels(vectors=True), st.sampled_from(SUPPORTS), st.booleans(),
           st.data())
    def test_matches_dense_sum_and_full_products(self, case, support, formed, data):
        ops, full, units = case
        dim = ops.shape[1]
        lo = data.draw(st.integers(min_value=0, max_value=dim - 1))
        hi = data.draw(st.integers(min_value=lo + 1, max_value=dim))
        x = _supported(dim, support, lo, hi, data.draw(st.integers(0, 10**6)))
        # A budget of 0 bytes keeps vectors unformed in the kernels.
        with mock.patch.object(channels, "FORMED_BYTES", 2**20 if formed else 0):
            constructions = _constructions(ops, full, units)
        for ch in constructions:
            _check_supported(ch, ops, x)

    @pytest.mark.parametrize("support", SUPPORTS)
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_negative_offsets(self, dim, support):
        # Transposed amplitude damping: operator i lies on offset -i, so every
        # shifted product reads levels lower than the ones it writes.
        ops = amplitude_damping(0.6, dim).kraus_ops.transpose(0, 2, 1)
        ch = KrausChannel(ops)
        assert all(o <= 0 for o in ch.multipliers)
        for lo in range(dim):
            for hi in range(lo + 1, dim + 1):
                _check_supported(ch, ops, _supported(dim, support, lo, hi, 10 * lo + hi))


# ---------------------------------------------------------------------------
# Compression onto a window of levels
# ---------------------------------------------------------------------------


@st.composite
def dense_stacks(draw):
    """A random CPTP stack on 2 <= dim <= 7: an isometry cut into dense operators,
    each spanning every offset, so the channel has no band form."""
    dim = draw(st.integers(min_value=2, max_value=7))
    terms = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    g = rng.normal(size=(terms * dim, dim)) + 1j * rng.normal(size=(terms * dim, dim))
    return np.linalg.qr(g)[0].reshape(terms, dim, dim)


class TestCompression:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(multiplier_channels(), dense_stacks()), st.data())
    def test_matches_dense_sum_on_the_window(self, case, data):
        # For x on the levels [lo, hi), the compressed channel applied to the
        # window block of x is the dense Kraus sum cut to that block.
        if isinstance(case, tuple):
            ops, full, units = case
            channels = _constructions(ops, full, units)
        else:
            ops, channels = case, [KrausChannel(case)]
            assert channels[0].multipliers is None
        dim = ops.shape[1]
        lo = data.draw(st.integers(min_value=0, max_value=dim - 1))
        hi = data.draw(st.integers(min_value=lo + 1, max_value=dim))
        x = _supported(dim, "window", lo, hi, data.draw(st.integers(0, 10**6)))
        expect = dense_apply(ops, x)[lo:hi, lo:hi]
        for ch in channels:
            window = _compress(ch, lo, hi)
            assert window.dim == hi - lo
            if (lo, hi) == (0, dim):
                assert window is ch
            assert np.max(np.abs(apply_channel(window, x[lo:hi, lo:hi]) - expect)) <= 1e-13

    @pytest.mark.parametrize("build", ["dep", "random"])
    def test_is_an_exact_slice(self, build):
        # The window keeps the blocks of the multipliers and of T as they are,
        # including a channel with a square multiplier and T on offset 0.
        dim, lo, hi = 9, 2, 6
        rng = np.random.default_rng(9)
        if build == "dep":
            ch = depolarizing(0.4, dim)
        else:
            e = {o: rng.normal(size=(2, dim - abs(o))) + 1j * rng.normal(size=(2, dim - abs(o)))
                 for o in (0, 1, -3)}
            ch = KrausChannel(multipliers={o: a.T @ a.conj() for o, a in e.items()},
                              transfer=rng.random((dim, dim)))
        assert 0 in ch.multipliers and np.diagonal(ch.transfer).all()
        window = _compress(ch, lo, hi)
        w = hi - lo
        assert list(window.multipliers) == [o for o in ch.multipliers if abs(o) < w]
        for o, m in window.multipliers.items():
            assert np.array_equal(m, ch.multipliers[o][lo:hi - abs(o), lo:hi - abs(o)])
            assert not m.flags.writeable
        assert np.array_equal(window.transfer, ch.transfer[lo:hi, lo:hi])
        x = _supported(dim, "window", lo, hi, 5)
        gap = apply_channel(window, x[lo:hi, lo:hi]) - apply_channel(ch, x)[lo:hi, lo:hi]
        assert np.max(np.abs(gap)) <= 1e-15

    def test_window_a_channel_leaves_is_the_zero_map(self):
        # |0><2| moves level 2 to level 0 and keeps nothing on level 1.
        window = _compress(KrausChannel(transfer=np.diag([1.0], 2)), 1, 2)
        assert window.kraus_truncation == 0
        assert np.array_equal(apply_channel(window, np.ones((1, 1))), [[0.0]])


# ---------------------------------------------------------------------------
# Stacks of inputs
# ---------------------------------------------------------------------------

LEADING_SHAPES = ((1,), (3,), (2, 3))


def _stack(dim, shape, data):
    """Random operators of shape ``shape + (dim, dim)``, each with its own support
    (so their windows differ), "zero" among them."""
    x = np.zeros(shape + (dim, dim), dtype=complex)
    for index in np.ndindex(shape):
        lo = data.draw(st.integers(min_value=0, max_value=dim - 1))
        hi = data.draw(st.integers(min_value=lo + 1, max_value=dim))
        x[index] = _supported(dim, data.draw(st.sampled_from(SUPPORTS)), lo, hi,
                              data.draw(st.integers(0, 10**6)))
    return x


def _channels_of(case):
    return _constructions(*case) if isinstance(case, tuple) else [KrausChannel(case)]


class TestStacks:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(multiplier_channels(), dense_stacks()), st.sampled_from(LEADING_SHAPES),
           st.data())
    def test_each_matrix_is_the_2d_call(self, case, shape, data):
        # Band products over the union window, the transfer term and the
        # dense GEMMs give every matrix of a stack the bits of its own call.
        channels = _channels_of(case)
        x = _stack(channels[0].dim, shape, data)
        for ch in channels:
            for kernel in (apply_channel, adjoint_apply):
                out = kernel(ch, x)
                assert out.shape == x.shape and out.dtype == complex
                for index in np.ndindex(shape):
                    assert np.array_equal(out[index], kernel(ch, x[index]))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(multiplier_channels(), dense_stacks()), st.sampled_from(LEADING_SHAPES),
           st.data())
    def test_duality_per_matrix(self, case, shape, data):
        # tr(x1 Phi*(x2)) = tr(Phi(x1) x2) for every pair of matching matrices.
        channels = _channels_of(case)
        dim = channels[0].dim
        x1, x2 = _stack(dim, shape, data), _stack(dim, shape, data)
        for ch in channels:
            lhs = np.einsum("...ab,...ba->...", x1, adjoint_apply(ch, x2))
            rhs = np.einsum("...ab,...ba->...", apply_channel(ch, x1), x2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + np.max(np.abs(lhs)))

    def test_a_stack_of_one_is_its_matrix(self):
        # On offset 1 of dim 2 each product has one element. numpy rounds these
        # two values' product one bit apart when a matrix broadcasts against a
        # stack of one matrix, and the kernels take such a stack as its matrix.
        m, v = -0.535669373161111 + 1.3040000451301372j, 0.36159505490948474 + 0.9470809631292422j
        ch = KrausChannel(multipliers={0: np.eye(2), 1: np.array([[m]])})
        for kernel, level in ((apply_channel, 1), (adjoint_apply, 0)):
            x = np.zeros((1, 1, 2, 2), dtype=complex)
            x[..., level, level] = v  # the one entry that offset 1 reads
            out = kernel(ch, x)
            assert out.shape == x.shape
            assert np.array_equal(out[0, 0], kernel(ch, x[0, 0]))

    @pytest.mark.parametrize("family", [phase_damping, amplitude_damping, depolarizing])
    def test_families_on_stacks(self, family):
        ch = family(0.4, 12)
        x = np.stack([_probe(12, seed) for seed in range(4)]).reshape(2, 2, 12, 12)
        x[1, 0] = 0.0
        x[0, 1, 3:, :] = x[0, 1, :, 3:] = 0.0
        for kernel in (apply_channel, adjoint_apply):
            out = kernel(ch, x)
            for index in np.ndindex(2, 2):
                assert np.array_equal(out[index], kernel(ch, x[index]))

    @pytest.mark.parametrize("shape", [(3,), (2, 5, 4), (4, 4, 3), (3, 4)])
    def test_rejects_other_matrix_shapes(self, shape):
        for kernel in (apply_channel, adjoint_apply):
            with pytest.raises(DimensionMismatchError):
                kernel(amplitude_damping(0.5, 4), np.zeros(shape))
