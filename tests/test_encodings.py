import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import subchan.encodings as encodings
from kraus_reference import reference_formula
from test_multipliers import dense_stacks
from subchan.channels import KrausChannel
from subchan.encodings import (
    CONVERGED,
    NON_ASCENT,
    STEP_CAP,
    _ascent_point,
    _bloch_form,
    _gauge,
    _seesaw,
    contiguous_pair_sweep,
    encoding_from_coefficients,
    leading_ties,
    optimize_encoding,
    realize_encoding,
    three_level_encoding,
)
from subchan.errors import ConstraintError, ResourceLimitError
from subchan.families import amplitude_damping, depolarizing, phase_damping
from subchan.fidelity import (
    average_fidelity_closed,
    average_fidelity_quadrature,
    contract_bloch_moments,
    fidelity_tensor,
    level_process_tensor,
)
from subchan.subspaces import Subspace, subspace_overlap


def _isometry(rng, n):
    """A random complex n x 2 isometry."""
    return np.linalg.qr(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))[0]


@st.composite
def channels_with_levels(draw):
    """(channel, levels): a built-in family at a random parameter, or a dense
    CPTP stack with no band form, and 2 to 5 distinct levels inside it."""
    kind = draw(st.sampled_from(["pd", "ad", "dep", "dense"]))
    if kind == "dense":
        ch = KrausChannel(draw(dense_stacks()))
    else:
        eta = draw(st.floats(min_value=0.05, max_value=1.0))
        family = {"pd": phase_damping, "ad": amplitude_damping, "dep": depolarizing}[kind]
        ch = family(eta, draw(st.integers(min_value=2, max_value=7)))
    dim = ch.dim
    count = draw(st.integers(min_value=2, max_value=min(dim, 5)))
    levels = draw(st.lists(st.integers(min_value=0, max_value=dim - 1),
                           min_size=count, max_size=count, unique=True))
    return ch, levels


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

    def test_nan_coefficient_rejected(self):
        with pytest.raises(ConstraintError, match="psi0 norm defect nan"):
            encoding_from_coefficients([np.nan, 0], [0, 1], dim=4)

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

    def test_nan_angle_is_a_constraint_violation(self):
        with pytest.raises(ConstraintError, match="orthogonality residual nan") as err:
            three_level_encoding(np.nan, 0.1, 0.2, 0.3, dim=4)
        assert np.isnan(err.value.residual)


class TestRealizeEncoding:
    def test_feasible_after_projection(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = realize_encoding([0, 1, 2], _isometry(rng, 3).T, dim=8).basis
            assert abs(np.linalg.norm(b[0]) - 1) < 1e-12
            assert abs(np.linalg.norm(b[1]) - 1) < 1e-12
            assert abs(np.vdot(b[0], b[1])) < 1e-10

    def test_places_rows_on_the_levels(self):
        frame = np.array([[0.6, 0.0, 0.8j], [0.0, 1.0, 0.0]])
        b = realize_encoding([4, 0, 2], frame, dim=6).basis
        assert np.array_equal(b[0], [0, 0, 0.8j, 0, 0.6, 0])
        assert np.array_equal(b[1], [1, 0, 0, 0, 0, 0])

    def test_param_count_checked(self):
        with pytest.raises(ValueError, match="expected a \\(2, 3\\) frame"):
            realize_encoding([0, 1, 2], np.eye(2), dim=8)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(0, 2**32 - 1),
           st.integers(min_value=0, max_value=5))
    def test_frames_orthonormal_for_any_parameters(self, n, seed, quiet):
        # Any isometry, also one that vanishes on the lowest levels: the gauge
        # keeps the code and writes it with orthonormal words.
        rng = np.random.default_rng(seed)
        v = _isometry(rng, n)
        v[: min(quiet, n - 2)] = 0.0
        v = np.linalg.qr(v)[0]
        frame = _gauge(v)
        assert np.max(np.abs(frame @ frame.conj().T - np.eye(2))) <= 1e-12
        assert np.max(np.abs(frame.T @ frame.conj() - v @ v.conj().T)) <= 1e-12
        b = realize_encoding(range(n), frame, dim=8).basis
        assert np.max(np.abs(b @ b.conj().T - np.eye(2))) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 7))
    def test_zero_parameters_give_lowest_pair(self, n):
        # In the gauge a code's parameters are its coefficients off the two
        # leading entries. All zero is span{|0>, |1>}, and the gauge writes
        # any basis of that span, phases and rotation included, so.
        sub = realize_encoding(range(n), np.eye(2, n), dim=8)
        assert subspace_overlap(sub, Subspace.from_levels([0, 1], 8)) == pytest.approx(
            1.0, abs=1e-15)
        v = np.zeros((n, 2), dtype=complex)
        v[:2] = _isometry(np.random.default_rng(n), 2)
        assert np.max(np.abs(_gauge(v) - np.eye(2, n))) <= 1e-15

    def test_gauge_leads_with_positive_coefficients(self):
        # span{(|1> + i|2>)/sqrt2, |3>}: word 0 leads on level 1, word 1 is the
        # code word that vanishes there.
        v = np.zeros((4, 2), dtype=complex)
        v[1:3, 0] = np.array([1, 1j]) / np.sqrt(2)
        v[3, 1] = 1.0
        v = v @ np.array([[0.6, 0.8j], [0.8j, 0.6]])
        frame = _gauge(v)
        expect = np.array([[0, 1, 1j, 0], [0, 0, 0, np.sqrt(2)]]) / np.sqrt(2)
        assert np.max(np.abs(frame - expect)) <= 1e-15


class TestBlochForm:
    @settings(max_examples=100, deadline=None)
    @given(channels_with_levels(), st.integers(0, 2**32 - 1))
    def test_matches_moment_contraction(self, case, seed):
        ch, levels = case
        k = _bloch_form(level_process_tensor(ch, levels))
        rng = np.random.default_rng(seed)
        for _ in range(3):
            v = _isometry(rng, len(levels))
            code = realize_encoding(levels, v.T, ch.dim)
            want = contract_bloch_moments(fidelity_tensor(ch, code))
            assert _ascent_point(k, v)[0] == pytest.approx(want, abs=1e-12)

    def test_gradient_is_the_derivative(self):
        # tr(H X) / 2 is the derivative of F along any hermitian direction X.
        rng = np.random.default_rng(4)
        k = _bloch_form(level_process_tensor(amplitude_damping(0.4, 8), [0, 2, 3, 5]))
        v = _isometry(rng, 4)
        p = v @ v.conj().T
        _, h = _ascent_point(k, v)
        for _ in range(5):
            x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            x = x + x.conj().T
            f = [(q.ravel() @ k @ q.T.ravel()).real for q in (p + 1e-5 * x, p - 1e-5 * x)]
            assert (f[0] - f[1]) / 2e-5 == pytest.approx(np.trace(h @ x).real / 2, abs=1e-8)


class TestSeesaw:
    @settings(max_examples=60, deadline=None)
    @given(channels_with_levels(), st.integers(0, 2**32 - 1))
    def test_no_step_lowers_the_fidelity(self, case, seed):
        # One step at a time: each call with a one-step cap makes the step the
        # full loop would make next.
        ch, levels = case
        k = _bloch_form(level_process_tensor(ch, levels))
        v = _isometry(np.random.default_rng(seed), len(levels))
        value = _ascent_point(k, v)[0]
        cap = encodings.MAX_STEPS
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(encodings, "MAX_STEPS", 1)
            for _ in range(cap):
                v, steps, status = _seesaw(k, v)
                new_value = _ascent_point(k, v)[0]
                assert new_value >= value - 1e-13
                value = new_value
                if status != STEP_CAP:
                    break

    def test_descent_ends_the_start_where_it_was(self):
        # -F is no fidelity, and its linearized steps overshoot.
        k = -_bloch_form(level_process_tensor(amplitude_damping(0.5, 8), [0, 1, 2, 3]))
        start = _isometry(np.random.default_rng(3), 4)
        v, steps, status = _seesaw(k, start)
        assert status == NON_ASCENT
        assert _ascent_point(k, v)[0] >= _ascent_point(k, start)[0]
        if steps == 0:
            assert np.array_equal(v, start)

    def test_step_cap_is_recorded(self, monkeypatch):
        monkeypatch.setattr(encodings, "MAX_STEPS", 3)
        result = optimize_encoding(amplitude_damping(0.9, 8), [0, 1, 2], restarts=2, seed=1)
        assert [(r.steps, r.status) for r in result.history] == [(3, STEP_CAP)] * 2


class TestOptimizer:
    def test_two_level_value_independent_of_rotation(self):
        # Any orthonormal pair on levels {0, 1} reaches the same average.
        ch = amplitude_damping(0.25, 8)
        result = optimize_encoding(ch, [0, 1], restarts=4, seed=5)
        ref = reference_formula("amplitude-damping-01", eta=0.25)
        assert result.best_fidelity == pytest.approx(ref, abs=1e-9)
        spread = {round(record.fidelity, 9) for record in result.history}
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

    @settings(max_examples=40, deadline=None)
    @given(channels_with_levels(), st.integers(0, 2**32 - 1))
    def test_best_start_is_reported_and_reproducible(self, case, seed):
        ch, levels = case
        result = optimize_encoding(ch, levels, restarts=3, seed=seed)
        assert result.best_fidelity == average_fidelity_closed(ch, result.best_encoding).value
        values = [record.fidelity for record in result.history]
        assert result.best_fidelity == max(values)
        best = realize_encoding(levels, result.best_params, ch.dim)
        assert np.array_equal(best.basis, result.best_encoding.basis)
        again = optimize_encoding(ch, levels, restarts=3, seed=seed)
        assert np.array_equal(again.best_params, result.best_params)
        assert again.history == result.history

    def test_two_levels_converge_in_one_step(self):
        # On two levels every code is the same one, written as unit vectors.
        result = optimize_encoding(phase_damping(0.5, 6), [2, 3], restarts=3, seed=0)
        assert np.max(np.abs(result.best_params - np.eye(2))) <= 1e-15
        assert [(r.steps, r.status) for r in result.history] == [(1, CONVERGED)] * 3

    def test_three_levels_on_complex_amplitudes_recover_the_pair(self):
        # The optimum of phase damping on {0, 1, 3} is the adjacent pair.
        result = optimize_encoding(phase_damping(0.5, 8), [0, 1, 3], restarts=8, seed=11)
        assert result.best_fidelity == pytest.approx(2 / 3 + 0.5 / 3, abs=1e-9)

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
            optimize_encoding(ch, [0, 99], restarts=2)
        with pytest.raises(ValueError):
            optimize_encoding(ch, [-1, 0], restarts=2)
        with pytest.raises(ValueError):
            optimize_encoding(ch, [0, 1], restarts=0)
        with pytest.raises(ValueError):
            optimize_encoding(ch, [1, 1], restarts=2)

    def test_level_count_is_bounded_by_bytes(self, monkeypatch):
        # Seven levels need 2 * 7^4 complex entries; the guard counts them
        # before the level tensor is built.
        monkeypatch.setattr(encodings, "MAX_KRAUS_BYTES", 2 * 6**4 * 16)
        monkeypatch.setattr(encodings, "level_process_tensor", None)
        with pytest.raises(ResourceLimitError, match="7 levels needs 0.00 GB"):
            optimize_encoding(amplitude_damping(0.5, 8), range(7), restarts=1)


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
