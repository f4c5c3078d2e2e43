import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import subchan.channels
import subchan.subspaces
from kraus_reference import (
    dense_fixed_points,
    dense_superoperator,
    identity_channel,
    span_projector,
)
from subchan.channels import (
    MAX_KRAUS_BYTES,
    MAX_SUPEROPERATOR_DIM,
    KrausChannel,
    _coherence_blocks,
    adjoint_apply,
    apply_channel,
    verify_channel,
)
from subchan.errors import (
    ConstraintError,
    DimensionMismatchError,
    ResourceLimitError,
    SupportError,
)
from subchan.families import amplitude_damping, depolarizing, phase_damping
from subchan.fock import basis_operator, fock_state, hs_norm, operator_norm
from subchan.subspaces import (
    Subspace,
    cat_state_subspace,
    fixed_point_space,
    invariant_hull_check,
    projector,
    restrict,
    subspace_overlap,
    unitality_check,
)
from subchan.tolerances import FIXED_POINT_TOL
from test_multipliers import _constructions, dense_stacks, multiplier_channels


def _random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotated(subspace: Subspace, seed: int) -> Subspace:
    rng = np.random.default_rng(seed)
    u = _random_unitary(subspace.d, rng)
    return Subspace(dim=subspace.dim, basis=u @ subspace.basis, label="rotated")


class TestSubspace:
    def test_from_levels(self):
        k = Subspace.from_levels([0, 1], 4)
        assert k.d == 2
        assert np.array_equal(k.basis[0], fock_state(0, 4))

    def test_rejects_non_orthonormal(self):
        v = fock_state(0, 4)
        with pytest.raises(ValueError):
            Subspace(dim=4, basis=np.stack([v, v]))
        with pytest.raises(ValueError):
            Subspace(dim=4, basis=np.stack([2 * v]))

    def test_rejects_nan_basis(self):
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace(dim=3, basis=[[np.nan, 0, 0], [0, 1, 0]])

    @pytest.mark.parametrize("basis, residual", [
        ([[1, 0, 0], [1, 0, 0]], 1.0),
        ([[0.9, 0, 0], [0, 1, 0]], 0.19),
        ([[1, 0, 0], [0, 0.6, 0.8], [0, 0.8, 0.6]], 0.96),
    ])
    def test_refusal_carries_the_gram_defect(self, basis, residual):
        with pytest.raises(ConstraintError, match="not orthonormal") as err:
            Subspace(dim=3, basis=basis)
        assert err.value.residual == pytest.approx(residual, abs=1e-15)

    def test_rejects_an_empty_basis(self):
        with pytest.raises(ValueError, match="at least one basis vector"):
            Subspace(dim=3, basis=np.zeros((0, 3)))

    def test_rejects_too_many_vectors(self):
        basis = np.eye(3, dtype=complex)
        with pytest.raises(ConstraintError, match="3 code words cannot be orthonormal in dim 2"):
            Subspace(dim=2, basis=basis[:, :2])

    def test_rejects_duplicate_levels(self):
        with pytest.raises(ValueError):
            Subspace.from_levels([1, 1], 4)

    def test_rejects_empty_levels(self):
        with pytest.raises(ValueError, match="level list is empty"):
            Subspace.from_levels([], 4)

    def test_records_compare_and_hash_by_identity(self):
        # Array-holding records compare by identity, like KrausChannel: equal
        # contents neither make two of them equal nor break == or hash().
        a, b = Subspace.from_levels([0, 1], 4), Subspace.from_levels([0, 1], 4)
        restricted = restrict(amplitude_damping(0.5, 4), a)
        assert a == a and a != b
        assert restricted == restricted and restricted != restrict(amplitude_damping(0.5, 4), a)
        assert len({a, b, a, restricted, restricted}) == 3

    def test_overlap(self):
        a = Subspace.from_levels([0, 1], 8)
        assert subspace_overlap(a, _rotated(a, 1)) == pytest.approx(1.0, abs=1e-12)
        b = Subspace.from_levels([2, 3], 8)
        assert subspace_overlap(a, b) == pytest.approx(0.0, abs=1e-12)


class TestProjector:
    def test_levels(self):
        p = projector(Subspace.from_levels([0, 1], 4))
        assert np.array_equal(p, np.diag([1, 1, 0, 0]).astype(complex))

    def test_superposition(self):
        v = (fock_state(0, 4) + fock_state(1, 4)) / np.sqrt(2)
        p = projector(Subspace(dim=4, basis=v[np.newaxis]))
        assert p[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert p[0, 1] == pytest.approx(0.5, abs=1e-14)

    def test_idempotent_hermitian_trace(self):
        rng = np.random.default_rng(2)
        raw = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        q, _ = np.linalg.qr(raw.T)
        sub = Subspace(dim=8, basis=q.T[:2])
        p = projector(sub)
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(p - p.conj().T)) < 1e-13
        assert np.trace(p).real == pytest.approx(2.0, abs=1e-10)


class TestRestrict:
    def test_phase_damping_coherence(self):
        eta = 0.7
        handle = restrict(phase_damping(eta, 8), Subspace.from_levels([0, 1], 8))
        out = handle.apply(basis_operator(0, 1, 8))
        assert np.max(np.abs(out - eta * basis_operator(0, 1, 8))) < 1e-12

    def test_amplitude_damping_no_projection_loss(self):
        eta = 0.25
        handle = restrict(amplitude_damping(eta, 8), Subspace.from_levels([0, 1], 8))
        out = handle.apply(basis_operator(1, 1, 8))
        expect = eta * basis_operator(1, 1, 8) + (1 - eta) * basis_operator(0, 0, 8)
        assert np.max(np.abs(out - expect)) < 1e-14

    def test_amplitude_damping_trace_loss_off_block(self):
        eta = 0.25
        handle = restrict(amplitude_damping(eta, 8), Subspace.from_levels([1, 2], 8))
        out = handle.apply(basis_operator(1, 1, 8))
        assert np.max(np.abs(out - eta * basis_operator(1, 1, 8))) < 1e-14
        assert np.trace(out).real == pytest.approx(eta, abs=1e-14)  # trace NOT preserved

    def test_rejects_unsupported_input(self):
        handle = restrict(phase_damping(0.5, 8), Subspace.from_levels([0, 1], 8))
        with pytest.raises(SupportError):
            handle.apply(basis_operator(3, 3, 8))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_input_before_any_svd(self, value, monkeypatch):
        handle = restrict(phase_damping(0.5, 8), Subspace.from_levels((0, 1), 8))
        x = np.zeros((8, 8))
        x[0, 0] = value
        monkeypatch.setattr(np.linalg, "norm", None)  # any norm call would fail
        with pytest.raises(SupportError, match="NaN or inf"):
            handle.apply(x)

    @pytest.mark.parametrize("k, s", [(0, 3), (3, 1)])
    def test_rejects_off_block_input(self, k, s):
        # |0><3| has no weight on (I-P) x (I-P), yet it lies outside the block P x P.
        handle = restrict(phase_damping(0.5, 8), Subspace.from_levels([0, 1], 8))
        with pytest.raises(SupportError):
            handle.apply(basis_operator(k, s, 8))

    def test_output_supported_on_subspace(self):
        rng = np.random.default_rng(3)
        sub = Subspace.from_levels([0, 1, 2], 8)
        p = projector(sub)
        comp = np.eye(8) - p
        handle = restrict(amplitude_damping(0.5, 8), sub)
        for _ in range(5):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = np.zeros((8, 8), dtype=complex)
            rho[:3, :3] = g @ g.conj().T / np.trace(g @ g.conj().T).real
            out = handle.apply(rho)
            assert operator_norm(comp @ out @ comp) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            restrict(amplitude_damping(0.5, 8), Subspace.from_levels([0, 1], 4))

    def test_tensor_size_guard(self, monkeypatch):
        # d = 65 needs 65^4 complex entries, just above MAX_KRAUS_BYTES; the
        # guard is an estimate, so the channel is never applied.
        def refuse(ch, x):
            raise AssertionError("apply_channel called before the size guard")

        monkeypatch.setattr(subchan.subspaces, "apply_channel", refuse)
        assert 64**4 * 16 <= MAX_KRAUS_BYTES < 65**4 * 16
        with pytest.raises(ResourceLimitError, match="restriction to a 65-dimensional"):
            restrict(identity_channel(65), Subspace.from_levels(range(65), 65))


def _random_code(dim, d, rng):
    """A random complex d-dimensional subspace of a dim-level truncation."""
    g = rng.normal(size=(dim, d)) + 1j * rng.normal(size=(dim, d))
    return Subspace(dim=dim, basis=np.linalg.qr(g)[0].T)


def _full_dim_defects(ch, sub):
    """Both unitality defects by the full-dim formulas ||P Phi*(P) P - P|| and
    ||P Phi(P) P - P||, the reference for the partial traces of T_K."""
    p = projector(sub)
    return (operator_norm(p @ adjoint_apply(ch, p) @ p - p),
            operator_norm(p @ apply_channel(ch, p) @ p - p))


class TestRestrictionTensor:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(multiplier_channels(), dense_stacks()), st.data())
    def test_matches_full_dim_formulas(self, case, data):
        if isinstance(case, tuple):
            channels = _constructions(*case)
        else:
            channels = [KrausChannel(case)]
        dim = channels[0].dim
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sub = _random_code(dim, data.draw(st.integers(1, min(dim, 4))), rng)
        c = rng.normal(size=(sub.d, sub.d)) + 1j * rng.normal(size=(sub.d, sub.d))
        x = sub.basis.T @ c @ sub.basis.conj()
        p = projector(sub)
        for ch in channels:
            report = unitality_check(ch, sub)
            trace_defect, unital_defect = _full_dim_defects(ch, sub)
            assert report.trace_defect == pytest.approx(trace_defect, abs=1e-12)
            assert report.unital_defect == pytest.approx(unital_defect, abs=1e-12)
            out = restrict(ch, sub).apply(x)
            assert np.max(np.abs(out - p @ apply_channel(ch, x) @ p)) <= 1e-12

    @pytest.mark.parametrize("levels", [[0, 1], [1, 2, 4]])
    def test_hull_check_applies_the_channel_d_squared_times(self, monkeypatch, levels):
        calls = []

        def counted(ch, x):
            calls.append(x)
            return apply_channel(ch, x)

        def refuse(ch, x):
            raise AssertionError("adjoint_apply called")

        monkeypatch.setattr(subchan.subspaces, "apply_channel", counted)
        for module in (subchan.channels, subchan, subchan.subspaces):
            monkeypatch.setattr(module, "adjoint_apply", refuse, raising=False)
        sub = Subspace.from_levels(levels, 16)
        invariant_hull_check(amplitude_damping(0.4, 16), sub)
        assert len(calls) == sub.d**2
        calls.clear()
        unitality_check(amplitude_damping(0.4, 16), sub)
        assert len(calls) == sub.d**2


class TestUnitality:
    def test_phase_damping_pair_holds(self):
        ch = phase_damping(0.5, 16)
        report = unitality_check(ch, Subspace.from_levels([2, 7], 16))
        assert report.is_trace_preserving and report.trace_defect <= 1e-9
        assert report.is_unital and report.unital_defect <= 1e-9

    @pytest.mark.parametrize("eta", [round(0.1 * i, 1) for i in range(1, 10)])
    def test_amplitude_damping_low_pair_not_unital(self, eta):
        ch = amplitude_damping(eta, 16)
        report = unitality_check(ch, Subspace.from_levels([0, 1], 16))
        # The restriction preserves trace (the adjoint fixes the projector)...
        assert report.is_trace_preserving
        # ...but it does not fix the maximally mixed state on the pair.
        assert not report.is_unital
        assert report.unital_defect == pytest.approx(1 - eta, abs=1e-12)

    def test_full_space_matches_channel_tp_defect(self):
        for ch in (amplitude_damping(0.3, 8), phase_damping(0.6, 8)):
            full = Subspace.from_levels(range(8), 8)
            report = unitality_check(ch, full)
            assert abs(report.trace_defect - verify_channel(ch, 8).tp_defect) < 1e-10

    def test_full_space_trace_preserving_channel_holds(self):
        report = unitality_check(depolarizing(0.4, 6), Subspace.from_levels(range(6), 6))
        assert report.is_trace_preserving
        assert report.is_unital  # depolarizing is also unital


class TestInvariantHull:
    def test_phase_damping_any_level_pair(self):
        ch = phase_damping(0.5, 16)
        report = invariant_hull_check(ch, Subspace.from_levels([2, 7], 16))
        assert report.is_invariant_hull
        assert report.is_unital_subchannel
        assert report.probed_inputs == 4

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_amplitude_damping_lowest_levels(self, d):
        ch = amplitude_damping(0.4, 16)
        report = invariant_hull_check(ch, Subspace.from_levels(range(d), 16))
        assert report.is_invariant_hull
        assert not report.is_unital_subchannel  # trace-preserving but not unital

    def test_invariant_fock_code_takes_no_full_size_svd(self, monkeypatch):
        # Every leakage of levels 0, 1 under amplitude damping is exactly zero,
        # so its norm is 0.0 without an SVD of a 1024 x 1024 matrix; only the
        # two 2 x 2 restriction defects, which are not zero, take one.
        norm, svds = np.linalg.norm, []

        def counted(x, ord=None, *args, **kwargs):
            if ord == 2:
                svds.append(np.shape(x))
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        ch = amplitude_damping(0.5, 1024)
        report = invariant_hull_check(ch, Subspace.from_levels([0, 1], 1024))
        assert report.is_invariant_hull
        assert report.max_leakage == 0.0 and report.max_leakage_hs == 0.0
        assert svds == [(2, 2)] * 2

    def test_amplitude_damping_shifted_pair_leaks(self):
        eta = 0.4
        ch = amplitude_damping(eta, 16)
        report = invariant_hull_check(ch, Subspace.from_levels([1, 2], 16))
        assert not report.is_invariant_hull
        assert report.max_leakage >= (1 - eta) - 1e-9

    def test_depolarizing_has_no_proper_hull(self):
        ch = depolarizing(0.5, 4)
        for levels in ([0], [0, 1], [0, 1, 2]):
            report = invariant_hull_check(ch, Subspace.from_levels(levels, 4))
            assert not report.is_invariant_hull

    def test_cat_states_leak(self):
        report = invariant_hull_check(amplitude_damping(0.5, 32), cat_state_subspace(1.0, 32))
        assert not report.is_invariant_hull

    def test_basis_independent(self):
        ch = amplitude_damping(0.4, 12)
        sub = Subspace.from_levels([0, 1, 2], 12)
        base = invariant_hull_check(ch, sub)
        for seed in (4, 5, 6):
            rotated = invariant_hull_check(ch, _rotated(sub, seed))
            assert rotated.is_invariant_hull == base.is_invariant_hull

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(multiplier_channels(), dense_stacks()), st.data())
    def test_leakage_matches_the_full_projector(self, case, data):
        # The hull check reads P Phi(x) P from T_K; the full-dim projector
        # gives the same leakage to roundoff.
        ops = case[0] if isinstance(case, tuple) else case
        ch = KrausChannel(ops)
        assume(ch.tp_defect <= 1e-8)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sub = _random_code(ch.dim, data.draw(st.integers(1, min(ch.dim, 4))), rng)
        p = projector(sub)
        op_norms, hs_norms = [], []
        for bi in sub.basis:
            for bj in sub.basis:
                image = apply_channel(ch, np.outer(bi, bj.conj()))
                op_norms.append(operator_norm(image - p @ image @ p))
                hs_norms.append(hs_norm(image - p @ image @ p))
        report = invariant_hull_check(ch, sub)
        assert report.max_leakage == pytest.approx(max(op_norms), abs=1e-14)
        assert report.max_leakage_hs == pytest.approx(max(hs_norms), abs=1e-14)

    def test_hull_restriction_preserves_trace(self):
        rng = np.random.default_rng(7)
        ch = amplitude_damping(0.35, 12)
        sub = Subspace.from_levels([0, 1, 2], 12)
        assert invariant_hull_check(ch, sub).is_invariant_hull
        handle = restrict(ch, sub)
        for _ in range(5):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = np.zeros((12, 12), dtype=complex)
            rho[:3, :3] = g @ g.conj().T / np.trace(g @ g.conj().T).real
            assert np.trace(handle.apply(rho)).real == pytest.approx(1.0, abs=1e-9)

    def test_rejects_untrustworthy_truncation(self):
        lossy = KrausChannel(0.9 * np.eye(4)[np.newaxis])
        with pytest.raises(ValueError):
            invariant_hull_check(lossy, Subspace.from_levels([0, 1], 4))

    def test_rejects_nan_trace_defect(self):
        # The square of 1e200 overflows, so the channel's defect is NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            ch = KrausChannel(np.array([[[1e200, 1.0], [1.0, 0.0]]]))
        assert np.isnan(ch.tp_defect)
        with pytest.raises(ValueError, match="trace-preservation defect nan"):
            invariant_hull_check(ch, Subspace.from_levels([0], 2))


class TestCatSubspace:
    def test_orthonormal_and_parity_split(self):
        sub = cat_state_subspace(1.0, 32)
        gram = sub.basis @ sub.basis.conj().T
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12
        even, odd = sub.basis
        assert np.max(np.abs(even[1::2])) < 1e-15
        assert np.max(np.abs(odd[0::2])) < 1e-15

    @pytest.mark.parametrize("alpha, dim", [(0.0, 8), (1.0, 1)])
    def test_vanishing_odd_cat_rejected(self, alpha, dim):
        with pytest.raises(ValueError, match="odd cat state vanishes"):
            cat_state_subspace(alpha, dim)


class TestFixedPoints:
    def test_amplitude_damping_vacuum_only(self):
        members = fixed_point_space(amplitude_damping(0.3, 16))
        assert len(members) == 1
        overlap = abs(members[0][0, 0]) ** 2
        assert overlap >= 1 - 1e-8

    def test_phase_damping_diagonal_algebra(self):
        members = fixed_point_space(phase_damping(0.5, 8))
        assert len(members) == 8
        for x in members:
            off = x - np.diag(np.diag(x))
            assert hs_norm(off) < 1e-6  # spanned by the |k><k|

    def test_identity_everything_fixed(self):
        assert len(fixed_point_space(identity_channel(4))) == 16

    def test_members_are_fixed(self):
        tol = 1e-8
        ch = amplitude_damping(0.3, 12)
        for x in fixed_point_space(ch, tol=tol):
            assert hs_norm(apply_channel(ch, x) - x) <= 10 * tol

    def test_members_orthonormal(self):
        members = fixed_point_space(phase_damping(0.5, 6))
        for i, x in enumerate(members):
            for j, y in enumerate(members):
                ip = np.trace(x.conj().T @ y)
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-10

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_refuses_bad_cutoff(self, tol):
        # sigma < tol holds for no singular value at NaN or a non-positive
        # cutoff, and for every one at inf.
        with pytest.raises(ValueError, match="cutoff must be positive and finite"):
            fixed_point_space(phase_damping(0.5, 4), tol=tol)

    def test_dim_guard(self):
        # A dense unitary spans every offset, so it has no band form and takes
        # the dense superoperator route, which stops at MAX_SUPEROPERATOR_DIM.
        dim = MAX_SUPEROPERATOR_DIM + 1
        ch = KrausChannel(_random_unitary(dim, np.random.default_rng(65)))
        assert ch.multipliers is None
        with pytest.raises(ResourceLimitError, match="superoperator"):
            fixed_point_space(ch)

    def test_svd_guard_refuses_before_any_block_is_built(self, monkeypatch):
        # The largest block's SVD is estimated first: a dense channel is refused
        # before its dim^4 superoperator is built, and a band channel before
        # its smaller blocks are built and decomposed.
        dim = 6
        dense = KrausChannel(_random_unitary(dim, np.random.default_rng(6)))
        monkeypatch.setattr(subchan.channels, "MAX_KRAUS_BYTES", 3 * dim**4 * 16 - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="^the SVD of a 36 x 36 "):
                fixed_point_space(dense)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dim**4 * 16

        def no_blocks(ch):
            raise AssertionError("a block was built")

        monkeypatch.setattr(subchan.channels, "MAX_KRAUS_BYTES", 3 * dim**2 * 16 - 1)
        monkeypatch.setattr(subchan.subspaces, "_coherence_blocks", no_blocks)
        with pytest.raises(ResourceLimitError, match="^the SVD of a 6 x 6 "):
            fixed_point_space(phase_damping(0.5, dim))

    def test_member_size_guard(self, monkeypatch):
        # The identity fixes all 65^2 matrix units: 65^4 complex entries, about
        # 286 MB, refused from the estimate before the members are allocated.
        dim = MAX_SUPEROPERATOR_DIM + 1
        assert dim**4 * 16 > MAX_KRAUS_BYTES
        real_zeros = np.zeros

        def small_zeros(shape, *args, **kwargs):
            if np.prod(shape) > dim**2:
                raise AssertionError("the fixed-point members were allocated")
            return real_zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", small_zeros)
        with pytest.raises(ResourceLimitError, match="fixed points"):
            fixed_point_space(identity_channel(dim))


# ---------------------------------------------------------------------------
# Coherence-order blocks against the dense route
# ---------------------------------------------------------------------------


def _assert_same_fixed_space(ch: KrausChannel, ops) -> None:
    block = fixed_point_space(ch)
    dense = dense_fixed_points(ops, FIXED_POINT_TOL)
    assert len(block) == len(dense)
    gap = np.max(np.abs(span_projector(block) - span_projector(dense)))
    assert gap <= 1e-10


FAMILIES = {
    "pd": phase_damping,
    "ad": amplitude_damping,
    "dep": depolarizing,
}


class TestCoherenceBlocks:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 17])
    def test_blocks_are_superoperator_slices(self, family, dim):
        # ``superoperator_of`` is built from the blocks, so they are checked
        # against the Kraus sum of the factored stack instead.
        ch = FAMILIES[family](0.4, dim)
        sup = dense_superoperator(ch.kraus_ops)
        weight = 0.0
        blocks = list(_coherence_blocks(ch))
        assert len(blocks) == 2 * dim - 1
        for q, (positions, block) in zip(range(1 - dim, dim), blocks):
            a = np.arange(max(0, -q), dim - max(0, q))
            index = (a + q) * dim + a  # vec position of x[a, a+q]
            assert np.array_equal(np.arange(dim * dim)[positions], index)
            assert np.max(np.abs(block - sup[np.ix_(index, index)])) < 1e-12
            weight += np.sum(np.abs(block) ** 2)
        # Nothing of the superoperator lies outside the blocks.
        assert weight == pytest.approx(np.sum(np.abs(sup) ** 2), rel=1e-12)

    @pytest.mark.parametrize("eta", [0.3, 0.7, 0.95])
    @pytest.mark.parametrize("dim", [*range(1, 17), 24, 32])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families_match_dense_oracle(self, family, dim, eta):
        ch = FAMILIES[family](eta, dim)
        _assert_same_fixed_space(ch, ch.kraus_ops)

    @pytest.mark.parametrize("dim", [2, 5, 8, 12])
    def test_dense_channel_matches_dense_oracle(self, dim):
        # {sqrt(w) V D V^dag, sqrt(1-w) I} is unital, so it fixes exactly the
        # commutant of V D V^dag: one full block per repeated phase of D.
        rng = np.random.default_rng(dim)
        phases = rng.choice([1, -1, 1j], size=dim)
        v = _random_unitary(dim, rng)
        u = v @ np.diag(phases) @ v.conj().T
        ops = np.stack([np.sqrt(0.7) * u, np.sqrt(0.3) * np.eye(dim)])
        ch = KrausChannel(ops)
        assert ch.multipliers is None
        members = fixed_point_space(ch)
        _, multiplicity = np.unique(phases, return_counts=True)
        assert len(members) == np.sum(multiplicity**2)
        dense = dense_fixed_points(ops, FIXED_POINT_TOL)
        assert np.max(np.abs(span_projector(members) - span_projector(dense))) <= 1e-10
        gram = np.array([[np.vdot(x, y) for y in members] for x in members])
        assert np.max(np.abs(gram - np.eye(len(members)))) < 1e-10

    def test_members_run_by_coherence_order(self):
        # Phase damping fixes exactly the diagonal (q = 0); a diagonal unitary
        # with repeated phases also fixes the coherences between equal phases.
        members = fixed_point_space(KrausChannel(np.diag([1, 1, -1, 1j, -1])))
        orders = []
        for x in members:
            rows, cols = np.nonzero(x)
            assert len(set(cols - rows)) == 1  # each member lies on one diagonal
            orders.append(int(cols[0] - rows[0]))
        assert orders == sorted(orders)
        assert len(members) == 2**2 + 2**2 + 1


@st.composite
def band_channels(draw):
    """Dense stack of a random CPTP band channel on dim <= 8.

    ``dephasing`` draws offset-0 operators whose columns come from a small
    pool, so levels sharing a column keep their coherences. ``exchange``
    moves level a to a+s and back with two operators on offsets +-s, so
    sums such as |a><b| + |a+s><b+s| are fixed. ``shifting`` puts each
    operator on a random offset, as in the channel tests. Any of them may be
    mixed with a diagonal unitary whose phases repeat, and the result is
    conjugated by a random diagonal unitary, which keeps the bands but gives
    fixed coherences complex relative phases.
    """
    dim = draw(st.integers(min_value=1, max_value=8))
    terms = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["dephasing", "exchange", "shifting"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "exchange" and dim > 1:
        s = draw(st.integers(min_value=1, max_value=dim - 1))
        ops = np.zeros((3, dim, dim), dtype=complex)
        a = np.arange(dim - s)
        ops[0, a, a + s] = 1.0
        ops[1, a + s, a] = 1.0
        # Levels neither operator reads (s > dim / 2) stay where they are.
        ops[2] = np.diag(np.sum(np.abs(ops[:2]) ** 2, axis=(0, 1)) == 0)
    elif kind == "shifting":
        ops = np.zeros((terms, dim, dim), dtype=complex)
        offsets = [0] + draw(st.lists(st.integers(min_value=1 - dim, max_value=dim - 1),
                                      min_size=terms - 1, max_size=terms - 1))
        for op, o in zip(ops, offsets):
            idx = np.arange(dim - abs(o)) + max(0, -o)
            op[idx, idx + o] = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    else:
        pool = rng.normal(size=(terms, dim)) + 1j * rng.normal(size=(terms, dim))
        columns = pool[:, draw(st.lists(st.integers(min_value=0, max_value=dim - 1),
                                        min_size=dim, max_size=dim))]
        ops = np.zeros((terms, dim, dim), dtype=complex)
        ops[:, np.arange(dim), np.arange(dim)] = columns
    ops /= np.sqrt(np.sum(np.abs(ops) ** 2, axis=(0, 1)))
    weight = draw(st.sampled_from([1.0, 0.5, 0.1]))
    if weight < 1.0:
        phases = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=dim, max_size=dim))
        unitary = np.diag(np.exp(1j * np.pi * np.array(phases)))
        ops = np.concatenate([np.sqrt(weight) * ops, np.sqrt(1 - weight) * unitary[None]])
    v = np.exp(2j * np.pi * rng.random(dim))
    return ops * np.outer(v, v.conj())


class TestRandomBandChannels:
    @settings(max_examples=80, deadline=None)
    @given(band_channels())
    def test_matches_dense_oracle(self, ops):
        ch = KrausChannel(ops)
        assert ch.multipliers is not None and ch.tp_defect <= 1e-12
        _assert_same_fixed_space(ch, ops)
