import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import subchan.fidelity
from kraus_reference import (
    bloch_state,
    design_average,
    identity_channel,
    node_quadrature,
    pure_fidelity,
    reference_formula,
)
from subchan.channels import KrausChannel, _compress, apply_channel
from subchan.errors import DimensionMismatchError, ResourceLimitError
from subchan.families import amplitude_damping, depolarizing, phase_damping
from subchan.fock import outer
from subchan.fidelity import (
    FidelityReport,
    _clip_unit,
    _fock_tables,
    _gauss_legendre,
    _haar_average,
    _moments,
    average_fidelity_closed,
    average_fidelity_from_frames,
    average_fidelity_quadrature,
    damping_fidelity_series,
    level_process_tensor,
)
from subchan.subspaces import Subspace, restrict
from test_multipliers import _constructions, dense_stacks, multiplier_channels

ETA_GRID = [round(0.1 * i, 1) for i in range(11)]


def _pair(k, s, dim):
    return Subspace.from_levels([k, s], dim)


def _random_code(dim, rng):
    code, _ = np.linalg.qr(rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2)))
    return Subspace(dim=dim, basis=code.T)


def _node_by_node(ch, subspace, n_theta, n_phi):
    """``average_fidelity_quadrature``'s value with every node built on its own:
    per node ``amplitude @ basis``, ``fock.outer`` and ``np.vdot``."""
    (used,) = np.nonzero(subspace.basis.any(axis=0))
    lo, hi = int(used[0]), int(used[-1]) + 1
    window = _compress(ch, lo, hi)
    basis = subspace.basis[:, lo:hi]
    nodes, weights = np.polynomial.legendre.leggauss(n_theta)
    half = np.arccos(nodes)[:, np.newaxis] / 2
    phase = np.exp(2j * np.pi * np.arange(n_phi) / n_phi)
    amplitudes = np.stack(np.broadcast_arrays(np.cos(half), phase * np.sin(half)), axis=-1)
    scores = np.empty(n_theta * n_phi)
    for node, amplitude in enumerate(amplitudes.reshape(-1, 2)):
        psi = amplitude @ basis
        x = outer(psi, psi)
        scores[node] = np.vdot(x, apply_channel(window, x)).real
    total = weights @ scores.reshape(n_theta, n_phi).sum(axis=1)
    return _clip_unit(total / (2 * n_phi))


class TestPureFidelity:
    def test_identity_channel(self):
        value = pure_fidelity(identity_channel(8), _pair(0, 1, 8), theta=1.1, phi=0.4)
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_phase_damping_formula(self):
        # cos^4 + sin^4 + 2 eta^((k-s)^2) cos^2 sin^2 across a grid of angles.
        eta, k, s, dim = 0.6, 1, 3, 12
        ch = phase_damping(eta, dim)
        for theta in (0.0, 0.7, 1.9, np.pi):
            for phi in (0.0, 1.3, 4.0):
                c2, s2 = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
                expect = c2**2 + s2**2 + 2 * eta ** ((k - s) ** 2) * c2 * s2
                value = pure_fidelity(ch, _pair(k, s, dim), theta, phi)
                assert value == pytest.approx(expect, abs=1e-10)

    def test_pole_state_fixed(self):
        value = pure_fidelity(phase_damping(0.3, 8), _pair(2, 5, 8), theta=0.0, phi=0.0)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pure_fidelity(phase_damping(0.5, 8), _pair(0, 1, 4), 0.5, 0.5)

    def test_encoded_qubit_requires_two_dims(self):
        with pytest.raises(ValueError):
            pure_fidelity(phase_damping(0.5, 8), Subspace.from_levels([0, 1, 2], 8), 0.1, 0.1)

    def test_bloch_state_normalized(self):
        psi = bloch_state(_pair(0, 3, 8), 0.9, 2.2)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


class TestClosedForm:
    @pytest.mark.parametrize("eta", (0.1, 0.5, 0.9))
    @pytest.mark.parametrize("pair", ((0, 1), (1, 2), (0, 2), (2, 5)))
    def test_phase_damping_reference(self, eta, pair):
        k, s = pair
        ch = phase_damping(eta, 16)
        value = average_fidelity_closed(ch, _pair(k, s, 16)).value
        assert value == pytest.approx(2 / 3 + eta ** ((k - s) ** 2) / 3, abs=1e-9)

    def test_amplitude_damping_reference(self):
        ch = amplitude_damping(0.25, 16)
        value = average_fidelity_closed(ch, _pair(0, 1, 16)).value
        assert value == pytest.approx(0.70833333333, abs=1e-9)

    def test_identity(self):
        value = average_fidelity_closed(identity_channel(6), _pair(0, 1, 6)).value
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_report_metadata(self):
        ch = amplitude_damping(0.25, 8)
        rep = average_fidelity_closed(ch, _pair(0, 1, 8))
        assert rep.method == "closed-form"
        assert rep.channel_family == "amplitude-damping"
        assert rep.eta == 0.25
        assert rep.encoding == "levels 0,1"
        assert rep.code_dim == 2

    def test_report_names_the_code_dimension(self):
        ch = amplitude_damping(0.5, 8)
        assert average_fidelity_closed(ch, Subspace.from_levels([0, 1, 2], 8)).code_dim == 3
        assert average_fidelity_quadrature(ch, _pair(0, 3, 8)).code_dim == 2

    def test_report_range_invariant(self):
        with pytest.raises(ValueError):
            FidelityReport(
                value=1.5, method="closed-form", channel_family="custom", eta=None,
                dim=2, kraus_terms=1, channel_tp_defect=0.0, encoding="x", code_dim=2,
            )


class TestHaarContraction:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(multiplier_channels(), dense_stacks()), st.data())
    def test_matches_weighted_design(self, case, data):
        # Band channels in all three constructions and dense CPTP stacks,
        # some of the band channels off trace preservation; codes of d <= 5.
        channels = _constructions(*case) if isinstance(case, tuple) else [KrausChannel(case)]
        dim = channels[0].dim
        d = data.draw(st.integers(min_value=1, max_value=min(dim, 5)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        q = np.linalg.qr(rng.normal(size=(dim, d)) + 1j * rng.normal(size=(dim, d)))[0]
        code = Subspace(dim=dim, basis=q.T)
        for ch in channels:
            t = restrict(ch, code).tensor
            want = design_average(functools.partial(apply_channel, ch), code.basis)
            assert _haar_average(*_moments(t)) == pytest.approx(want, abs=1e-12)
            if d == 2:
                # The qubit Bloch-moment formula, bit for bit, so printed qubit
                # fidelities and cross-check gaps are those of that formula.
                bloch = (t[0, 0, 0, 0] + t[1, 1, 1, 1]) / 3 + (
                    t[0, 0, 1, 1] + t[1, 1, 0, 0] + t[0, 1, 0, 1] + t[1, 0, 1, 0]) / 6
                assert _haar_average(*_moments(t)) == _clip_unit(bloch.real)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("eta", [0.2, 0.5, 0.9])
    def test_known_answers(self, d, eta):
        # pd on levels k..k+d-1: (d + sum_ij eta^((i-j)^2)) / (d(d+1));
        # ad on levels 0..d-1: (d + (sum_n eta^(n/2))^2) / (d(d+1)).
        i = np.arange(d)
        pd_want = (d + np.sum(eta ** ((i[:, None] - i) ** 2))) / (d * (d + 1))
        for k in (0, 3):
            code = Subspace.from_levels(range(k, k + d), 16)
            value = average_fidelity_closed(phase_damping(eta, 16), code).value
            assert value == pytest.approx(pd_want, abs=1e-12)
        ad_want = (d + np.sum(eta ** (i / 2)) ** 2) / (d * (d + 1))
        value = average_fidelity_closed(amplitude_damping(eta, 16),
                                        Subspace.from_levels(range(d), 16)).value
        assert value == pytest.approx(ad_want, abs=1e-12)

    def test_qubit_design_is_the_bloch_quadrature(self):
        # At d = 2 the design and the quadrature are two oracles of one average.
        ch = amplitude_damping(0.35, 10)
        code = Subspace.from_levels([1, 4], 10)
        apply = functools.partial(apply_channel, ch)
        assert design_average(apply, code.basis) == pytest.approx(
            node_quadrature(apply, code.basis, 16, 16), abs=1e-14)


class TestQuadrature:
    def test_phase_damping_value(self):
        value = average_fidelity_quadrature(phase_damping(0.5, 8), _pair(0, 1, 8)).value
        assert value == pytest.approx(2 / 3 + 0.5 / 3, abs=1e-12)

    def test_amplitude_damping_endpoints(self):
        top = average_fidelity_quadrature(amplitude_damping(1.0, 8), _pair(0, 1, 8)).value
        assert top == pytest.approx(1.0, abs=1e-12)
        bottom = average_fidelity_quadrature(amplitude_damping(0.0, 8), _pair(0, 1, 8)).value
        assert bottom == pytest.approx(0.5, abs=1e-12)

    def test_node_minimums(self):
        ch = phase_damping(0.5, 8)
        with pytest.raises(ValueError):
            average_fidelity_quadrature(ch, _pair(0, 1, 8), n_theta=4)
        with pytest.raises(ValueError):
            average_fidelity_quadrature(ch, _pair(0, 1, 8), n_phi=4)

    def test_encoded_qubit_requires_two_dims(self):
        with pytest.raises(ValueError):
            average_fidelity_quadrature(phase_damping(0.5, 8), Subspace.from_levels([0, 1, 2], 8))

    @pytest.mark.parametrize("grid", [(16, 16), (8, 12), (13, 9)])
    @pytest.mark.parametrize("maker", [phase_damping, amplitude_damping, depolarizing])
    def test_matches_node_by_node_oracle(self, maker, grid, monkeypatch):
        # Unequal node counts pair each theta weight with the wrong nodes if
        # the vectorized grid is transposed or its weights repeated wrongly.
        # Each node is applied once, at the size of the code's Fock window (4
        # for a pair three levels apart, the truncation for a code on every
        # level); the oracle applies the channel at the full truncation.
        shapes = []

        def counted(ch, x):
            shapes.append(np.shape(x))
            return apply_channel(ch, x)

        monkeypatch.setattr(subchan.fidelity, "apply_channel", counted)
        rng = np.random.default_rng(7)
        code, _ = np.linalg.qr(rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2)))
        for sub, w in ((_pair(1, 4, 10), 4), (_pair(2, 5, 64), 4),
                       (Subspace(dim=10, basis=code.T), 10)):
            ch = maker(0.45, sub.dim)
            shapes.clear()
            value = average_fidelity_quadrature(ch, sub, *grid).value
            assert shapes == [(w, w)] * (grid[0] * grid[1])
            oracle = node_quadrature(lambda x: apply_channel(ch, x), sub.basis, *grid)
            assert abs(value - oracle) <= 1e-14

    @pytest.mark.parametrize("grid", [(16, 16), (8, 12), (13, 9)])
    @pytest.mark.parametrize("maker", [phase_damping, amplitude_damping, depolarizing])
    def test_bit_identical_to_node_by_node_loop(self, maker, grid):
        # All kets in one product and the states one theta row at a time
        # multiply the same numbers as the loop does per node.
        rng = np.random.default_rng(20)
        codes = [_pair(0, 1, 8), _pair(1, 4, 10), _pair(2, 5, 64)]
        codes += [_random_code(dim, rng) for dim in (4, 10, 33)]
        for sub in codes:
            ch = maker(0.45, sub.dim)
            assert average_fidelity_quadrature(ch, sub, *grid).value == _node_by_node(ch, sub, *grid)

    def test_states_are_built_one_row_at_a_time(self):
        # A code on every level of dim 64: the 256 node states would hold
        # 16.8 MB at once; one row of them holds 1 MB.
        sub = _random_code(64, np.random.default_rng(21))
        ch = phase_damping(0.5, 64)
        tracemalloc.start()
        try:
            average_fidelity_quadrature(ch, sub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 64**2 * 16

    def test_rule_is_cached_read_only(self):
        nodes, weights = _gauss_legendre(16)
        assert _gauss_legendre(16)[0] is nodes
        for cached in (nodes, weights):
            with pytest.raises(ValueError):
                cached[0] = 0.0
        ch, sub = amplitude_damping(0.3, 12), _pair(1, 3, 12)
        first = average_fidelity_quadrature(ch, sub).value
        average_fidelity_quadrature(ch, sub, 13, 9)
        assert average_fidelity_quadrature(ch, sub).value == first

    def test_grid_size_guard(self, monkeypatch):
        # Checked by estimate only: with the limit below a 16 x 16 grid's
        # bytes, the call is refused before the nodes are computed.
        def refuse(n):
            raise AssertionError("the quadrature nodes were computed")

        monkeypatch.setattr(subchan.channels, "MAX_KRAUS_BYTES", 16 * 16**2)
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        with pytest.raises(ResourceLimitError, match="16 x 16 quadrature grid"):
            average_fidelity_quadrature(phase_damping(0.5, 8), _pair(0, 1, 8))

    def test_cross_check_matrix(self):
        # The decisive validation of the frozen contraction weights.
        subspaces = [(0, 1), (1, 2), (2, 5)]
        for eta in (0.1, 0.5, 0.9):
            for maker in (phase_damping, amplitude_damping):
                ch = maker(eta, 16)
                for k, s in subspaces:
                    closed = average_fidelity_closed(ch, _pair(k, s, 16)).value
                    quad = average_fidelity_quadrature(ch, _pair(k, s, 16)).value
                    assert abs(closed - quad) <= 1e-10

    def test_range_floor_on_test_matrix(self):
        for eta in ETA_GRID:
            value = average_fidelity_closed(amplitude_damping(eta, 8), _pair(0, 1, 8)).value
            assert 0.5 - 1e-12 <= value <= 1 + 1e-10
        for eta in ETA_GRID[1:]:
            value = average_fidelity_closed(phase_damping(eta, 8), _pair(0, 1, 8)).value
            assert 0.5 - 1e-12 <= value <= 1 + 1e-10

    def test_monotone_in_eta(self):
        ad_curve = [
            average_fidelity_closed(amplitude_damping(eta, 8), _pair(0, 1, 8)).value
            for eta in ETA_GRID
        ]
        assert all(b >= a - 1e-12 for a, b in zip(ad_curve, ad_curve[1:]))
        # Phase damping starts at 0.1: eta = 0 is outside its domain.
        pd_curve = [
            average_fidelity_closed(phase_damping(eta, 8), _pair(0, 1, 8)).value
            for eta in ETA_GRID[1:]
        ]
        assert all(b >= a - 1e-12 for a, b in zip(pd_curve, pd_curve[1:]))

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.0, max_value=2 * np.pi))
    def test_basis_phase_invariance(self, chi):
        ch = amplitude_damping(0.4, 6)
        base = _pair(0, 1, 6)
        twisted = Subspace(
            dim=6,
            basis=np.stack([base.basis[0], np.exp(1j * chi) * base.basis[1]]),
        )
        a = average_fidelity_closed(ch, base).value
        b = average_fidelity_closed(ch, twisted).value
        assert abs(a - b) < 1e-12


class TestContiguity:
    def test_adjacent_pairs_win(self):
        eta = 0.5
        values = {}
        for k in range(10):
            for s in range(k + 1, 10):
                values[(k, s)] = reference_formula("phase-damping", eta=eta, k=k, s=s)
        best_adjacent = min(v for (k, s), v in values.items() if s - k == 1)
        worst_gap = max(v for (k, s), v in values.items() if s - k >= 2)
        assert best_adjacent > worst_gap


class TestReferenceFormula:
    def test_phase_damping(self):
        assert reference_formula("phase-damping", eta=0.9, k=3, s=5) == pytest.approx(
            2 / 3 + 0.9**4 / 3, abs=1e-12
        )

    def test_amplitude_damping(self):
        assert reference_formula("amplitude-damping-01", eta=1.0) == pytest.approx(1.0)
        assert reference_formula("amplitude-damping-01", eta=0.25) == pytest.approx(
            0.70833333333, abs=1e-10
        )

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            reference_formula("bit-flip", p=0.1)


class TestLevelProcessTensor:
    def test_matches_full_closed_form(self):
        rng = np.random.default_rng(11)
        ch = amplitude_damping(0.45, 12)
        levels = [0, 2, 3]
        g = level_process_tensor(ch, levels)
        for _ in range(5):
            raw = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
            q, _ = np.linalg.qr(raw.T)
            frames = q.T[:2].copy()
            basis = np.zeros((2, 12), dtype=complex)
            for col, level in enumerate(levels):
                basis[:, level] = frames[:, col]
            sub = Subspace(dim=12, basis=basis)
            fast = average_fidelity_from_frames(g, frames)
            slow = average_fidelity_closed(ch, sub).value
            assert fast == pytest.approx(slow, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(multiplier_channels(), st.data())
    def test_band_read_is_the_restriction(self, case, data):
        # Read from the storage, G keeps every bit of the restriction's T_K on
        # levels in any order, for every way a band channel can be built.
        dim = case[0].shape[1]
        levels = data.draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim,
                                    unique=True))
        for ch in _constructions(*case):
            assert ch.multipliers is not None
            expect = restrict(ch, Subspace.from_levels(levels, dim)).tensor
            assert np.array_equal(level_process_tensor(ch, levels), expect)

    @pytest.mark.parametrize("family, eta", [
        (phase_damping, 1.0), (phase_damping, 0.3), (amplitude_damping, 0.0),
        (amplitude_damping, 1.0), (amplitude_damping, 0.3), (depolarizing, 0.0),
        (depolarizing, 1.0), (depolarizing, 0.3)])
    @pytest.mark.parametrize("dim", [1, 9])
    def test_families_read_as_restricted(self, family, eta, dim):
        ch = family(eta, dim)
        levels = np.random.default_rng(dim).permutation(dim)[:5].tolist()
        expect = restrict(ch, Subspace.from_levels(levels, dim)).tensor
        assert np.array_equal(level_process_tensor(ch, levels), expect)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(multiplier_channels(), dense_stacks()), st.data())
    def test_fock_tables_are_the_moments_of_g(self, case, data):
        # The pair tables keep every bit of the moments of G on levels 0..n-1,
        # for every way a band channel can be built and for dense stacks.
        channels = _constructions(*case) if isinstance(case, tuple) else [KrausChannel(case)]
        n = data.draw(st.integers(min_value=1, max_value=channels[0].dim))
        for ch in channels:
            moments = _moments(level_process_tensor(ch, range(n)))
            for table, moment in zip(_fock_tables(ch, n), moments, strict=True):
                assert table.dtype == complex and np.array_equal(table, moment)

    @pytest.mark.parametrize("family, etas", [
        (phase_damping, (1e-3, 1.0)), (amplitude_damping, (0.0, 1.0)),
        (depolarizing, (0.0, 1.0))])
    @pytest.mark.parametrize("dim", range(1, 10))
    def test_family_tables_are_the_moments_of_g(self, family, etas, dim):
        for eta, n in itertools.product(etas, range(1, dim + 1)):
            ch = family(eta, dim)
            moments = _moments(level_process_tensor(ch, range(n)))
            for table, moment in zip(_fock_tables(ch, n), moments, strict=True):
                assert table.dtype == complex and np.array_equal(table, moment)

    @pytest.mark.parametrize("levels, message", [
        ([-1, 0], "out of range"), ([1, 1], "distinct"), ([], "empty")])
    def test_rejects_bad_levels(self, levels, message):
        with pytest.raises(ValueError, match=message):
            level_process_tensor(amplitude_damping(0.5, 8), levels)

    def test_tensor_hermitian_pairing(self):
        ch = amplitude_damping(0.3, 8)
        t = restrict(ch, _pair(0, 1, 8)).tensor
        assert t[1, 0, 1, 0] == pytest.approx(np.conj(t[0, 1, 0, 1]), abs=1e-12)


class TestSeriesAudit:
    """The explicit damping-order series against the quadrature oracle.

    The consistent loss exponent is (1-eta)^k; the halved variant is kept
    only to demonstrate numerically that it does NOT reproduce the average.
    """

    def test_consistent_exponent_matches_oracle(self):
        dim = 16
        c = np.zeros(dim)
        d = np.zeros(dim)
        c[0] = 1.0
        d[1] = 1.0
        for eta in ETA_GRID:
            series = damping_fidelity_series(eta, c, d, loss_exponent="k")
            oracle = average_fidelity_quadrature(
                amplitude_damping(eta, dim), _pair(0, 1, dim)
            ).value
            assert series == pytest.approx(oracle, abs=1e-9)

    def test_halved_exponent_fails(self):
        worst = 0.0
        for eta in (0.25, 0.5, 0.75):
            series = damping_fidelity_series(eta, [1, 0], [0, 1], loss_exponent="k/2")
            oracle = reference_formula("amplitude-damping-01", eta=eta)
            worst = max(worst, abs(series - oracle))
        assert worst > 1e-3

    def test_rotated_real_encoding_matches_oracle(self):
        # Any orthonormal pair on the two lowest levels gives the same average.
        eta, dim = 0.4, 12
        for t in (0.3, 1.1):
            c = np.zeros(dim)
            d = np.zeros(dim)
            c[0], c[1] = math.cos(t), math.sin(t)
            d[0], d[1] = -math.sin(t), math.cos(t)
            series = damping_fidelity_series(eta, c, d)
            assert series == pytest.approx(
                reference_formula("amplitude-damping-01", eta=eta), abs=1e-10
            )

    def test_complex_encoding_matches_oracle(self):
        eta, dim = 0.55, 16
        c = np.zeros(dim, dtype=complex)
        d = np.zeros(dim, dtype=complex)
        c[0], c[2] = 0.8, 0.6j
        d[0], d[2] = 0.6, -0.8j
        series = damping_fidelity_series(eta, c, d)
        sub = Subspace(dim=dim, basis=np.stack([c, d]))
        oracle = average_fidelity_quadrature(amplitude_damping(eta, dim), sub).value
        assert series == pytest.approx(oracle, abs=1e-9)

    def test_three_level_encoding_matches_oracle(self):
        eta, dim = 0.3, 16
        c = np.zeros(dim)
        d = np.zeros(dim)
        c[0], c[1], c[2] = 0.6, 0.48, 0.64
        d[0], d[1], d[2] = -0.64, 0.768, -0.576 / 8 * 8  # orthogonal to c
        # Normalize and orthogonalize exactly before comparing.
        c /= np.linalg.norm(c)
        d -= (c @ d) * c
        d /= np.linalg.norm(d)
        series = damping_fidelity_series(eta, c, d)
        sub = Subspace(dim=dim, basis=np.stack([c.astype(complex), d.astype(complex)]))
        oracle = average_fidelity_quadrature(amplitude_damping(eta, dim), sub).value
        assert series == pytest.approx(oracle, abs=1e-9)

    def test_exponent_argument_validated(self):
        with pytest.raises(ValueError):
            damping_fidelity_series(0.5, [1, 0], [0, 1], loss_exponent="2k")
