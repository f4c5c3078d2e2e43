import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subchan.encodings import (
    contiguous_pair_sweep,
    encoding_from_coefficients,
    hypersphere_point,
    leading_ties,
    n_ansatz_params,
    optimize_encoding,
    realize_encoding,
    three_level_encoding,
)
from subchan.errors import ConstraintError
from subchan.families import amplitude_damping, phase_damping
from subchan.fidelity import average_fidelity_closed, average_fidelity_quadrature, reference_formula
from subchan.subspaces import Subspace, subspace_overlap


class TestEncodingFromCoefficients:
    def test_fock_pair(self):
        sub = encoding_from_coefficients([1, 0], [0, 1], dim=6)
        assert subspace_overlap(sub, Subspace.from_levels([0, 1], 6)) == pytest.approx(1.0)

    def test_phase_freedom(self):
        chi = 1.234
        sub = encoding_from_coefficients([1, 0], [0, np.exp(1j * chi)], dim=4)
        assert sub.d == 2

    def test_parallel_rejected(self):
        with pytest.raises(ConstraintError) as err:
            encoding_from_coefficients([1, 0], [1, 0], dim=4)
        assert err.value.residual == pytest.approx(1.0)

    def test_norm_rejected(self):
        with pytest.raises(ConstraintError):
            encoding_from_coefficients([0.9, 0], [0, 1], dim=4)

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            encoding_from_coefficients([1, 0, 0], [0, 1, 0], dim=2)


class TestThreeLevelEncoding:
    def test_paper_optimum_is_lowest_pair(self):
        sub = three_level_encoding(np.pi / 2, 0.0, np.pi / 2, np.pi / 2)
        assert subspace_overlap(sub, Subspace.from_levels([0, 1], 3)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_top_level_frame(self):
        # cos(gamma) = 0 kills the cross term, so psi0 = |2> is orthogonal to
        # anything in the 0-1 plane.
        sub = three_level_encoding(0.0, 0.3, np.pi / 2, 0.8, dim=4)
        assert abs(sub.basis[0][2]) == pytest.approx(1.0, abs=1e-12)
        assert abs(sub.basis[1][2]) == pytest.approx(0.0, abs=1e-12)

    def test_constraint_violation(self):
        with pytest.raises(ConstraintError) as err:
            three_level_encoding(0.0, 0.1, 0.0, 0.2)
        assert err.value.residual == pytest.approx(1.0, abs=1e-12)


class TestHypersphere:
    @pytest.mark.parametrize("angles", [[0.3], [0.3, 1.2], [0.1, 2.0, 0.7, 1.1, 0.4]])
    def test_unit_norm(self, angles):
        assert np.linalg.norm(hypersphere_point(angles)) == pytest.approx(1.0, abs=1e-14)

    def test_two_components(self):
        v = hypersphere_point([0.5])
        assert v[0] == pytest.approx(np.cos(0.5))
        assert v[1] == pytest.approx(np.sin(0.5))

    def test_three_components(self):
        a, b = 0.4, 1.3
        v = hypersphere_point([a, b])
        assert v == pytest.approx([np.cos(a), np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)])


class TestRealizeEncoding:
    def test_feasible_after_projection(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            params = rng.uniform(0, np.pi, size=n_ansatz_params(3))
            b = realize_encoding([0, 1, 2], params, dim=8).basis
            assert abs(np.linalg.norm(b[0]) - 1) < 1e-12
            assert abs(np.linalg.norm(b[1]) - 1) < 1e-12
            assert abs(np.vdot(b[0], b[1])) < 1e-10

    def test_param_count_checked(self):
        with pytest.raises(ValueError):
            realize_encoding([0, 1, 2], [0.1, 0.2], dim=8)

    def test_phases_add_params(self):
        assert n_ansatz_params(3, allow_phases=False) == 3
        assert n_ansatz_params(3, allow_phases=True) == 5
        params = np.array([1.2, 0.4, 0.9, 2.0, 0.3])
        sub = realize_encoding([0, 1, 2], params, dim=6, allow_phases=True)
        assert abs(np.vdot(sub.basis[0], sub.basis[1])) < 1e-10

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.booleans(), st.data())
    def test_frames_orthonormal_for_any_parameters(self, n, phases, data):
        # Angles next to pi put u next to -e_0, where the sign in w matters.
        angle = (st.floats(min_value=-1e3, max_value=1e3)
                 | st.floats(min_value=np.pi - 1e-6, max_value=np.pi + 1e-6))
        size = n_ansatz_params(n, phases)
        params = data.draw(st.lists(angle, min_size=size, max_size=size))
        b = realize_encoding(range(n), params, dim=8, allow_phases=phases).basis
        assert np.max(np.abs(b @ b.conj().T - np.eye(2))) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 7))
    def test_zero_parameters_give_lowest_pair(self, n):
        sub = realize_encoding(range(n), np.zeros(n_ansatz_params(n)), dim=8)
        assert subspace_overlap(sub, Subspace.from_levels([0, 1], 8)) == pytest.approx(
            1.0, abs=1e-15)


class TestOptimizer:
    def test_two_level_value_independent_of_rotation(self):
        # Any orthonormal pair on levels {0, 1} reaches the same average.
        ch = amplitude_damping(0.25, 8)
        result = optimize_encoding(ch, [0, 1], restarts=4, seed=5)
        ref = reference_formula("amplitude-damping-01", eta=0.25)
        assert result.best_fidelity == pytest.approx(ref, abs=1e-9)
        spread = {round(f, 9) for _, f in result.history}
        assert len(spread) == 1

    def test_three_level_recovery(self):
        ch = amplitude_damping(0.5, 12)
        result = optimize_encoding(ch, [0, 1, 2], restarts=12, seed=7)
        ref = reference_formula("amplitude-damping-01", eta=0.5)
        assert result.best_fidelity == pytest.approx(ref, abs=1e-6)
        overlap = subspace_overlap(result.best_encoding, Subspace.from_levels([0, 1], 12))
        assert overlap >= 1 - 1e-6

    def test_extra_levels_do_not_help(self):
        for eta in (0.1, 0.5, 0.9):
            ch = amplitude_damping(eta, 10)
            best = {}
            for levels in ([0, 1], [0, 1, 2], [0, 1, 2, 3]):
                res = optimize_encoding(ch, levels, restarts=8, seed=3)
                best[tuple(levels)] = res.best_fidelity
            assert best[(0, 1, 2)] <= best[(0, 1)] + 1e-6
            assert best[(0, 1, 2, 3)] <= best[(0, 1, 2)] + 1e-6

    def test_never_beats_quadrature_oracle(self):
        ch = amplitude_damping(0.3, 10)
        result = optimize_encoding(ch, [0, 1, 2], restarts=6, seed=9)
        oracle = average_fidelity_quadrature(ch, result.best_encoding).value
        assert result.best_fidelity <= oracle + 1e-9

    def test_reported_value_matches_encoding(self):
        ch = amplitude_damping(0.7, 10)
        result = optimize_encoding(ch, [0, 1, 2], restarts=6, seed=2)
        recomputed = average_fidelity_closed(ch, result.best_encoding).value
        assert abs(result.best_fidelity - recomputed) <= 1e-10

    def test_deterministic_given_seed(self):
        ch = amplitude_damping(0.4, 8)
        a = optimize_encoding(ch, [0, 1, 2], restarts=5, seed=42)
        b = optimize_encoding(ch, [0, 1, 2], restarts=5, seed=42)
        assert a.best_fidelity == b.best_fidelity
        assert np.array_equal(a.best_params, b.best_params)
        assert len(a.history) == len(b.history) == 5

    def test_feasible_results_always(self):
        ch = amplitude_damping(0.6, 8)
        result = optimize_encoding(ch, [0, 1, 2, 3], restarts=3, seed=1)
        b = result.best_encoding.basis
        assert abs(np.vdot(b[0], b[1])) < 1e-10

    def test_input_validation(self):
        ch = amplitude_damping(0.5, 8)
        with pytest.raises(ValueError):
            optimize_encoding(ch, [0], restarts=2)
        with pytest.raises(ValueError):
            optimize_encoding(ch, list(range(7)), restarts=2)
        with pytest.raises(ValueError):
            optimize_encoding(ch, [0, 99], restarts=2)
        with pytest.raises(ValueError):
            optimize_encoding(ch, [-1, 0], restarts=2)
        with pytest.raises(ValueError):
            optimize_encoding(ch, [0, 1], restarts=0)
        with pytest.raises(ValueError):
            optimize_encoding(ch, [1, 1], restarts=2)


class TestPairSweep:
    def test_phase_damping_adjacent_ties(self):
        ch = phase_damping(0.5, 8)
        rows = contiguous_pair_sweep(ch, 5)
        ties = leading_ties(rows)
        assert {(r.k, r.s) for r in ties} == {(k, k + 1) for k in range(5)}
        assert ties[0].value == pytest.approx(2 / 3 + 0.5 / 3, abs=1e-10)

    def test_phase_damping_wide_pair_value(self):
        ch = phase_damping(0.5, 8)
        rows = {(r.k, r.s): r.value for r in contiguous_pair_sweep(ch, 5)}
        assert rows[(0, 3)] == pytest.approx(2 / 3 + 0.5**9 / 3, abs=1e-10)

    def test_amplitude_damping_top_pair(self):
        ch = amplitude_damping(0.5, 8)
        rows = contiguous_pair_sweep(ch, 4)
        assert (rows[0].k, rows[0].s) == (0, 1)

    def test_sorted_descending_with_lexicographic_ties(self):
        ch = phase_damping(0.5, 8)
        rows = contiguous_pair_sweep(ch, 4)
        values = [r.value for r in rows]
        assert values == sorted(values, reverse=True)
        ties = leading_ties(rows)
        assert [(r.k, r.s) for r in ties] == sorted((r.k, r.s) for r in ties)

    def test_max_level_bounds(self):
        ch = phase_damping(0.5, 8)
        with pytest.raises(ValueError):
            contiguous_pair_sweep(ch, 8)
        with pytest.raises(ValueError):
            contiguous_pair_sweep(ch, 0)
