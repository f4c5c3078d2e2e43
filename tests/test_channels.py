import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kraus_reference
import subchan.channels as channels
from kraus_reference import (
    dense_adjoint,
    dense_apply,
    dense_superoperator,
    dense_tp_defect,
    identity_channel,
    unvec,
    vec,
    verify_one_sample_at_a_time,
)
from subchan.channels import (
    KrausChannel,
    MAX_KRAUS_BYTES,
    MAX_SUPEROPERATOR_DIM,
    VERIFY_SEED,
    adjoint_apply,
    apply_channel,
    superoperator_of,
    tp_defect_on_block,
    verify_channel,
)
from subchan.errors import DimensionMismatchError, ResourceLimitError
from subchan.families import amplitude_damping, depolarizing, phase_damping
from subchan.fock import (
    basis_operator,
    hermiticity_defect,
    operator_norm,
    random_density_matrix,
    random_hermitian,
)


class TestConstruction:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            KrausChannel()
        with pytest.raises(ValueError):
            KrausChannel(np.eye(2)[np.newaxis], bands={0: np.ones((1, 2))})

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            KrausChannel(np.ones((1, 2, 3)))

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            KrausChannel(np.eye(2)[np.newaxis], family="nonsense")

    def test_single_matrix_promoted(self):
        ch = KrausChannel(np.eye(3))
        assert ch.kraus_truncation == 1
        assert ch.dim == 3

    def test_diagonal_storage_matches_dense(self):
        pd = phase_damping(0.5, 6)
        dense = KrausChannel(pd.kraus_ops)  # same operators, stack-stored
        rng = np.random.default_rng(0)
        x = random_hermitian(6, rng)
        assert np.max(np.abs(apply_channel(pd, x) - apply_channel(dense, x))) < 1e-13
        assert list(dense.multipliers) == [0]  # diagonality detected from the stack

    def test_tp_defect_stored(self):
        ad = amplitude_damping(0.5, 16)
        assert ad.tp_defect <= 1e-12
        lossy = KrausChannel(0.5 * np.eye(2)[np.newaxis])
        assert lossy.tp_defect == pytest.approx(0.75, abs=1e-14)

    def test_kraus_ops_readonly(self):
        ch = amplitude_damping(0.5, 4)
        with pytest.raises(ValueError):
            ch.kraus_ops[0, 0, 0] = 5.0

    def test_multi_offset_operator_keeps_dense_path(self):
        op = np.array([[1.0, 0.5], [0.0, 0.5]])  # entries on offsets 0 and 1
        ch = KrausChannel(op)
        assert ch.multipliers is None
        assert ch._diagonals is None

    def test_bands_without_offset_zero(self):
        # |0><1| and |1><0| as two Kraus operators: populations swap, coherences vanish.
        ch = KrausChannel(bands={1: [[1.0]], -1: [[1.0]]})
        ops = ch.kraus_ops
        assert ch.dim == 2 and ch.tp_defect == 0.0
        x = random_hermitian(2, np.random.default_rng(8)) + 1j * np.eye(2)
        assert np.max(np.abs(apply_channel(ch, x) - dense_apply(ops, x))) < 1e-15
        assert np.max(np.abs(adjoint_apply(ch, x) - dense_adjoint(ops, x))) < 1e-15
        assert np.max(np.abs(superoperator_of(ch) - dense_superoperator(ops))) < 1e-15

    def test_rejects_inconsistent_bands(self):
        with pytest.raises(ValueError):
            KrausChannel(bands={0: np.ones((1, 3)), 1: np.ones((1, 3))})
        with pytest.raises(ValueError):
            KrausChannel(bands={})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        stack = np.eye(3, dtype=complex)[np.newaxis].copy()
        stack[0, 1, 1] = bad
        with pytest.raises(ValueError, match="kraus_ops holds a non-finite entry"):
            KrausChannel(stack)
        with pytest.raises(ValueError, match="band 0 holds a non-finite entry"):
            KrausChannel(bands={0: [[1.0, bad, 1.0]]})
        with pytest.raises(ValueError, match="multiplier 1 holds a non-finite entry"):
            KrausChannel(multipliers={0: np.eye(3), 1: [[1.0, 0.0], [0.0, bad]]})
        transfer = np.full((3, 3), 0.5, dtype=np.result_type(bad))
        transfer[2, 1] = bad
        with pytest.raises(ValueError, match="transfer holds a non-finite entry"):
            KrausChannel(bands={0: [[1.0, 1.0, 1.0]]}, transfer=transfer)


class TestKrausSizeGuard:
    def test_refuses_huge_dense_stack(self, monkeypatch):
        # (128^2 + 1) x 128^2 complex entries, about 4.3 GB; refused from the
        # estimate, before anything of that size is allocated.
        ch = depolarizing(0.5, 128)
        assert ch.kraus_truncation * 128**2 * 16 > MAX_KRAUS_BYTES

        def no_zeros(*args, **kwargs):
            raise AssertionError("the dense stack was allocated")

        monkeypatch.setattr(np, "zeros", no_zeros)
        with pytest.raises(ResourceLimitError):
            ch.kraus_ops


class TestApply:
    def test_identity_channel(self):
        ch = identity_channel(5)
        rng = np.random.default_rng(1)
        x = random_hermitian(5, rng)
        assert np.max(np.abs(apply_channel(ch, x) - x)) < 1e-15

    def test_phase_damping_coherence(self):
        # eta^((k-s)^2) scaling of |1><3|: 0.5^4.
        ch = phase_damping(0.5, 8)
        out = apply_channel(ch, basis_operator(1, 3, 8))
        expect = 0.5**4 * basis_operator(1, 3, 8)
        assert np.max(np.abs(out - expect)) < 1e-10

    def test_amplitude_damping_population(self):
        ch = amplitude_damping(0.25, 8)
        out = apply_channel(ch, basis_operator(1, 1, 8))
        expect = 0.25 * basis_operator(1, 1, 8) + 0.75 * basis_operator(0, 0, 8)
        assert np.max(np.abs(out - expect)) < 1e-14

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(2)
        for ch in (amplitude_damping(0.3, 8), phase_damping(0.7, 8), depolarizing(0.5, 8)):
            out = apply_channel(ch, random_hermitian(8, rng))
            assert hermiticity_defect(out) < 1e-12

    def test_positivity_on_samples(self):
        rng = np.random.default_rng(3)
        for ch in (amplitude_damping(0.6, 6), phase_damping(0.4, 6)):
            for _ in range(10):
                out = apply_channel(ch, random_density_matrix(6, rng))
                assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_channel(amplitude_damping(0.5, 4), np.eye(5))

    @settings(max_examples=25, deadline=None)
    @given(
        st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        ch = amplitude_damping(0.35, 5)
        x, y = random_hermitian(5, rng), random_hermitian(5, rng)
        lhs = apply_channel(ch, a * x + b * y)
        rhs = a * apply_channel(ch, x) + b * apply_channel(ch, y)
        scale = max(1.0, abs(a), abs(b))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


class TestAdjoint:
    def test_identity(self):
        ch = identity_channel(4)
        rng = np.random.default_rng(4)
        x = random_hermitian(4, rng)
        assert np.max(np.abs(adjoint_apply(ch, x) - x)) < 1e-15

    def test_unital_when_trace_preserving(self):
        # Amplitude damping is exactly trace-preserving on the truncation.
        ch = amplitude_damping(0.37, 12)
        out = adjoint_apply(ch, np.eye(12, dtype=complex))
        assert np.max(np.abs(out - np.eye(12))) < 1e-12

    def test_amplitude_damping_vacuum_pullback(self):
        # Phi*(|0><0|) = sum_k (1-eta)^k |k><k| on the truncation.
        eta = 0.25
        ch = amplitude_damping(eta, 8)
        out = adjoint_apply(ch, basis_operator(0, 0, 8))
        expect = np.diag([(1 - eta) ** k for k in range(8)]).astype(complex)
        assert np.max(np.abs(out - expect)) < 1e-13

    def test_duality_hundred_pairs(self):
        rng = np.random.default_rng(5)
        channels = [
            amplitude_damping(0.45, 6),
            phase_damping(0.6, 6),
            depolarizing(0.2, 6),
        ]
        pairs_per_channel = (34, 33, 33)  # 100 total
        for ch, n in zip(channels, pairs_per_channel):
            for _ in range(n):
                x1, x2 = random_hermitian(6, rng), random_hermitian(6, rng)
                lhs = np.trace(x1 @ adjoint_apply(ch, x2))
                rhs = np.trace(apply_channel(ch, x1) @ x2)
                bound = 1e-9 * operator_norm(x1) * operator_norm(x2)
                assert abs(lhs - rhs) <= bound


class TestVerify:
    def test_amplitude_damping_full_block(self):
        report = verify_channel(amplitude_damping(0.5, 16), block=16)
        assert report.tp_defect <= 1e-12
        assert report.tp_ok and report.hermiticity_ok and report.positivity_ok

    def test_phase_damping_tail_bound_block(self):
        report = verify_channel(phase_damping(0.5, 8), block=8)
        assert report.tp_defect <= 1e-10

    def test_depolarizing(self):
        report = verify_channel(depolarizing(0.3, 4), block=4)
        assert report.tp_defect <= 1e-12

    def test_nan_output_fails_the_checks(self):
        # Finite Kraus data whose multiplier overflows: M_0[0, 0] = inf, so an
        # input with x[0, 0] = 0 comes out with NaN there.
        with np.errstate(over="ignore", invalid="ignore"):
            report = verify_channel(KrausChannel(bands={0: [[1e200, 1.0]]}))
        assert np.isnan(report.hermiticity_defect)
        assert not report.hermiticity_ok
        assert not (report.tp_ok or report.positivity_ok)

    def test_nan_outside_the_samples_block_fails_the_checks(self, monkeypatch):
        # M_0[1:, 1:] = inf from a finite vector: samples on level 0 alone are
        # zero there, and the output holds inf * 0 = NaN, also where the kernels
        # would window a vector instead of forming it.
        monkeypatch.setattr(channels, "FORMED_BYTES", 0)
        with np.errstate(over="ignore", invalid="ignore"):
            report = verify_channel(KrausChannel(bands={0: [[1.0, 1e200, 1e200]]}), block=1)
        assert np.isnan(report.hermiticity_defect)
        assert not (report.hermiticity_ok or report.positivity_ok)

    def test_defects_reported_not_thrown(self):
        lossy = KrausChannel(0.5 * np.eye(3)[np.newaxis])
        report = verify_channel(lossy)
        assert not report.tp_ok
        assert report.tp_defect == pytest.approx(0.75, abs=1e-14)

    def test_seed_recorded(self):
        report = verify_channel(amplitude_damping(0.5, 4))
        assert report.seed == VERIFY_SEED == 1234
        assert report.samples == 20

    def test_block_bounds(self):
        ch = amplitude_damping(0.5, 4)
        with pytest.raises(ValueError):
            verify_channel(ch, block=0)
        with pytest.raises(ValueError):
            tp_defect_on_block(ch, 5)

    @pytest.mark.parametrize("build, dim", [
        *((family, dim) for family in ("pd", "ad", "dep") for dim in (1, 2, 7, 16, 33, 64)),
        ("dense", 2), ("dense", 7), ("dense", 16)])
    def test_stacks_report_what_single_samples_do(self, build, dim):
        # Drawn and applied in stacks (all 20 up to dim 28, 15 at dim 33, 4 at 64),
        # the samples give every field of the one-at-a-time report exactly.
        rng = np.random.default_rng(dim)
        if build == "dense":
            ch = KrausChannel(rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim)))
            assert ch.multipliers is None
        else:
            family = {"pd": phase_damping, "ad": amplitude_damping, "dep": depolarizing}[build]
            ch = family(float(rng.uniform(0.1, 0.9)), dim)
        for block in sorted({1, (dim + 1) // 2, dim}):
            assert verify_channel(ch, block) == verify_one_sample_at_a_time(ch, block)

    def test_stacks_are_bounded_by_bytes(self, monkeypatch):
        sizes = []

        def counted(ch, x):
            sizes.append(x.shape)
            return apply_channel(ch, x)

        monkeypatch.setattr(channels, "apply_channel", counted)
        for dim, stacks in ((16, [20]), (64, [4] * 5)):
            verify_channel(amplitude_damping(0.5, dim))
            # One hermitian stack, then one state stack, of n samples each.
            assert sizes == [(n, dim, dim) for n in stacks for _ in range(2)]
            assert max(n for n, _, _ in sizes) * dim**2 * 16 <= channels.VERIFY_STACK_BYTES
            sizes.clear()

    @staticmethod
    def _traced(call):
        """Run ``call`` under tracemalloc: (peak, current) bytes traced."""
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[::-1]
        finally:
            tracemalloc.stop()

    def test_traced_peak_at_dim_64_cold(self):
        # A first call also traces numpy's lazy imports (about 0.8 MB), so one
        # small call comes first. A cold call draws the 40 inputs into the
        # array it keeps, and leaves just that array held.
        verify_channel(amplitude_damping(0.5, 2))
        ch = amplitude_damping(0.5, 64)
        channels._VERIFY_INPUTS.clear()
        peak, current = self._traced(lambda: verify_channel(ch))
        held = 2 * 20 * 64**2 * 16
        assert [h.nbytes for h in channels._VERIFY_INPUTS.values()] == [held]
        assert held <= current <= held + 2e4
        assert peak <= 2.5e6 + held

    def test_traced_peak_at_dim_64_warm(self):
        verify_channel(amplitude_damping(0.5, 2))
        ch = amplitude_damping(0.5, 64)
        verify_channel(ch)
        peak, _ = self._traced(lambda: verify_channel(ch))
        assert peak <= 2.5e6

    def test_kept_inputs_report_what_single_samples_do(self):
        # Cold and warm calls with interleaved (dim, block) keys; channels of
        # one truncation share one entry.
        channels._VERIFY_INPUTS.clear()
        rng = np.random.default_rng(5)
        calls = [("pd", 16, 16), ("ad", 33, 17), ("ad", 16, 16), ("dep", 16, 8),
                 ("ad", 33, 17), ("dep", 16, 16), ("pd", 16, 8), ("pd", 33, 17)]
        families = {"pd": phase_damping, "ad": amplitude_damping, "dep": depolarizing}
        for family, dim, block in calls:
            ch = families[family](float(rng.uniform(0.1, 0.9)), dim)
            assert verify_channel(ch, block) == verify_one_sample_at_a_time(ch, block)
        assert sorted(key[:2] for key in channels._VERIFY_INPUTS) == [(16, 8), (16, 16), (33, 17)]

    def test_kept_inputs_are_read_only(self):
        verify_channel(phase_damping(0.5, 8), block=3)
        held = channels._VERIFY_INPUTS[(8, 3, VERIFY_SEED, 20, channels.VERIFY_STACK_BYTES)]
        assert held.shape == (2, 20, 8, 8) and not held.flags.writeable
        with pytest.raises(ValueError):
            held[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("name, value", [
        ("VERIFY_SEED", 99), ("VERIFY_SAMPLES", 5), ("VERIFY_STACK_BYTES", 4 * 12**2 * 16)])
    def test_patched_constants_draw_afresh(self, monkeypatch, name, value):
        ch = amplitude_damping(0.4, 12)
        verify_channel(ch)
        monkeypatch.setattr(channels, name, value)
        if hasattr(kraus_reference, name):
            monkeypatch.setattr(kraus_reference, name, value)
        assert verify_channel(ch) == verify_one_sample_at_a_time(ch)
        key = (12, 12, channels.VERIFY_SEED, channels.VERIFY_SAMPLES, channels.VERIFY_STACK_BYTES)
        assert key in channels._VERIFY_INPUTS
        assert channels._VERIFY_INPUTS[key].shape == (2, channels.VERIFY_SAMPLES, 12, 12)
        assert (12, 12, VERIFY_SEED, 20, 2**18) in channels._VERIFY_INPUTS

    def test_kept_inputs_fit_the_budget(self, monkeypatch):
        # 96 needs 5.9 MB, past the 4 MiB budget, and is drawn on each call;
        # 16, 32 and 64 fit together (3.4 MB), and 80 (4.1 MB) fits alone.
        channels._VERIFY_INPUTS.clear()
        verify_channel(phase_damping(0.5, 96))
        assert channels._VERIFY_INPUTS == {}
        for dim in (16, 32, 64):
            verify_channel(phase_damping(0.5, dim))
        assert [key[0] for key in channels._VERIFY_INPUTS] == [16, 32, 64]
        verify_channel(phase_damping(0.5, 80))
        assert [key[0] for key in channels._VERIFY_INPUTS] == [80]
        # The least recently used go first: with room for 16 and 32, 24 drops 32.
        monkeypatch.setattr(channels, "VERIFY_CACHE_BYTES", 2 * 20 * (16**2 + 32**2) * 16)
        channels._VERIFY_INPUTS.clear()
        for dim in (16, 32, 16, 24):
            verify_channel(phase_damping(0.5, dim))
        assert [key[0] for key in channels._VERIFY_INPUTS] == [16, 24]

    def test_partial_block_of_truncated_family(self):
        # Only the top level of the truncated amplitude-damping sum is exact;
        # the defect on a sub-block is still tiny.
        ch = amplitude_damping(0.8, 12)
        assert tp_defect_on_block(ch, 6) <= 1e-12


class TestSuperoperator:
    def test_identity(self):
        sup = superoperator_of(identity_channel(4))
        assert np.max(np.abs(sup - np.eye(16))) < 1e-15

    def test_phase_damping_diagonal(self):
        eta = 0.4
        sup = superoperator_of(phase_damping(eta, 4))
        off = sup - np.diag(np.diag(sup))
        assert np.max(np.abs(off)) == 0.0
        for k in range(4):
            for s in range(4):
                entry = sup[s * 4 + k, s * 4 + k]  # vec index (col s, row k)
                assert entry == pytest.approx(eta ** ((k - s) ** 2), abs=1e-10)

    def test_amplitude_damping_action(self):
        ch = amplitude_damping(0.5, 3)
        sup = superoperator_of(ch)
        out = unvec(sup @ vec(basis_operator(1, 1, 3)), 3)
        expect = 0.5 * basis_operator(1, 1, 3) + 0.5 * basis_operator(0, 0, 3)
        assert np.max(np.abs(out - expect)) < 1e-14

    def test_matches_apply_on_random_states(self):
        rng = np.random.default_rng(6)
        for ch in (amplitude_damping(0.3, 5), phase_damping(0.8, 5), depolarizing(0.6, 5)):
            sup = superoperator_of(ch)
            for _ in range(10):
                rho = random_density_matrix(5, rng)
                direct = apply_channel(ch, rho)
                via_matrix = unvec(sup @ vec(rho), 5)
                assert np.max(np.abs(direct - via_matrix)) < 1e-10

    def test_dim_guard(self):
        with pytest.raises(ResourceLimitError):
            superoperator_of(amplitude_damping(0.5, MAX_SUPEROPERATOR_DIM + 1))

    def test_vec_roundtrip(self):
        rng = np.random.default_rng(7)
        x = random_hermitian(4, rng)
        assert np.array_equal(unvec(vec(x), 4), x)
        # Column stacking: vec picks up columns in order.
        m = np.array([[1, 2], [3, 4]])
        assert np.array_equal(vec(m), [1, 3, 2, 4])


# ---------------------------------------------------------------------------
# Random channels against the dense Kraus-sum references in kraus_reference.py
# ---------------------------------------------------------------------------


@st.composite
def random_channels(draw):
    """(ops, banded) for a random CPTP Kraus stack on dim <= 8.

    Banded stacks put each operator on one random offset (offset 0 always
    present, so every column is covered) and rescale the columns so that
    sum_i E_i^dag E_i = I; the stacked operators then lie on the Stiefel
    manifold. Other stacks are a random isometry cut into dense operators.
    """
    dim = draw(st.integers(min_value=1, max_value=8))
    terms = draw(st.integers(min_value=1, max_value=5))
    banded = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if not banded:
        g = rng.normal(size=(terms * dim, dim)) + 1j * rng.normal(size=(terms * dim, dim))
        return np.linalg.qr(g)[0].reshape(terms, dim, dim), False
    offsets = [0] + draw(st.lists(st.integers(min_value=1 - dim, max_value=dim - 1),
                                  min_size=terms - 1, max_size=terms - 1))
    ops = np.zeros((terms, dim, dim), dtype=complex)
    for op, o in zip(ops, offsets):
        m = dim - abs(o)
        idx = np.arange(m) + max(0, -o)
        op[idx, idx + o] = rng.normal(size=m) + 1j * rng.normal(size=m)
    norms = np.sqrt(np.sum(np.abs(ops) ** 2, axis=(0, 1)))
    return ops / norms, True


def _pair(seed, dim):
    rng = np.random.default_rng(seed)
    return random_hermitian(dim, rng), random_hermitian(dim, rng) + 1j * random_hermitian(dim, rng)


class TestRandomChannels:
    @settings(max_examples=60, deadline=None)
    @given(random_channels(), st.integers(min_value=0, max_value=10**6))
    def test_apply_and_adjoint_match_dense_sum(self, case, seed):
        ops, banded = case
        ch = KrausChannel(ops)
        assert (ch.multipliers is not None) == (banded or ch.dim == 1)
        for x in _pair(seed, ch.dim):
            assert np.max(np.abs(apply_channel(ch, x) - dense_apply(ops, x))) < 1e-12
            assert np.max(np.abs(adjoint_apply(ch, x) - dense_adjoint(ops, x))) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(random_channels(), st.integers(min_value=0, max_value=10**6))
    def test_adjoint_duality(self, case, seed):
        ch = KrausChannel(case[0])
        x1, x2 = _pair(seed, ch.dim)
        lhs = np.trace(x1 @ adjoint_apply(ch, x2))
        rhs = np.trace(apply_channel(ch, x1) @ x2)
        assert abs(lhs - rhs) <= 1e-12 * ch.dim * operator_norm(x1) * operator_norm(x2)

    @settings(max_examples=60, deadline=None)
    @given(random_channels(), st.floats(min_value=0.5, max_value=1.5))
    def test_tp_defect_matches_dense_gram(self, case, scale):
        ops, _ = case
        assert KrausChannel(ops).tp_defect < 1e-12
        # A random rescaling of the columns keeps the bands but breaks trace
        # preservation by a known amount.
        cols = np.linspace(scale, 1.0, ops.shape[1])
        lossy = ops * cols
        ch = KrausChannel(lossy)
        assert ch.tp_defect == pytest.approx(dense_tp_defect(lossy), abs=1e-13)
        for block in range(1, ch.dim + 1):
            assert tp_defect_on_block(ch, block) == pytest.approx(
                dense_tp_defect(lossy, block), abs=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(random_channels())
    def test_superoperator_matches_kron_sum(self, case):
        ops, _ = case
        sup = superoperator_of(KrausChannel(ops))
        assert np.max(np.abs(sup - dense_superoperator(ops))) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(random_channels().filter(lambda case: case[1]))
    def test_band_storage_rebuilds_the_stack(self, case):
        # Bands taken from the stack fold into multipliers; the stack factored
        # back from them is a Kraus family of the same channel, one operator
        # per counted term.
        ops, _ = case
        offsets = [int(np.flatnonzero(np.any(op != 0, axis=0))[0]
                       - np.flatnonzero(np.any(op != 0, axis=1))[0]) for op in ops]
        bands = {o: np.stack([np.diagonal(op, o) for op, oi in zip(ops, offsets) if oi == o])
                 for o in set(offsets)}
        ch = KrausChannel(bands=bands)
        rebuilt = ch.kraus_ops
        assert rebuilt.shape == (ch.kraus_truncation, ch.dim, ch.dim)
        assert np.max(np.abs(dense_superoperator(rebuilt) - dense_superoperator(ops))) < 1e-13
        x, _ = _pair(0, ch.dim)
        assert np.max(np.abs(apply_channel(ch, x) - dense_apply(ops, x))) < 1e-12
