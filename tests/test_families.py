import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.stats import poisson

import subchan.channels
from kraus_reference import dense_apply, random_density_matrix, random_hermitian
from subchan.channels import MAX_KRAUS_BYTES, apply_channel
from subchan.errors import PrecisionLossError, ResourceLimitError
from subchan.families import (
    _dim_for_deficit,
    amplitude_damping,
    amplitude_damping_closed,
    coherent_action_closed,
    depolarizing,
    phase_damping,
    phase_damping_closed,
)
from subchan.fock import (
    basis_operator,
    coherent_state,
    outer,
)

ETAS = (0.1, 0.5, 0.9)


class TestPhaseDamping:
    def test_eta_one_is_identity(self):
        ch = phase_damping(1.0, 4)
        assert ch.kraus_truncation == 1
        assert np.array_equal(ch.kraus_ops[0], np.eye(4))

    def test_eta_domain(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                phase_damping(bad, 4)

    def test_diagonal_fixed(self):
        ch = phase_damping(0.5, 6)
        x = basis_operator(2, 2, 6)
        assert np.max(np.abs(apply_channel(ch, x) - x)) < 1e-12

    def test_coherence_contraction(self):
        ch = phase_damping(0.5, 6)
        out = apply_channel(ch, basis_operator(0, 2, 6))
        assert np.max(np.abs(out - 0.5**4 * basis_operator(0, 2, 6))) < 1e-12
        full = phase_damping(0.5, 8)
        assert full.tp_defect == 0.0        # the exact multiplier
        assert full.kraus_truncation == 8   # one Cholesky row per level

    def test_closed_form_values(self):
        assert phase_damping_closed(0.5, 1, 1) == 1.0
        assert phase_damping_closed(0.5, 1, 2) == 0.5
        assert phase_damping_closed(0.9, 0, 3) == pytest.approx(0.9**9, abs=1e-15)
        with pytest.raises(ValueError):
            phase_damping_closed(0.0, 0, 1)
        with pytest.raises(ValueError):
            phase_damping_closed(0.5, -1, 0)

    @pytest.mark.parametrize("eta", ETAS)
    def test_closed_matches_kraus(self, eta):
        n = 16
        ch = phase_damping(eta, n)
        for k in range(n // 2):
            for s in range(n // 2):
                out = apply_channel(ch, basis_operator(k, s, n))
                expect = phase_damping_closed(eta, k, s) * basis_operator(k, s, n)
                assert np.max(np.abs(out - expect)) < 1e-10

    def test_semigroup(self):
        n = 12
        a, b = 0.7, 0.8
        rng = np.random.default_rng(0)
        x = random_hermitian(n, rng)
        once = apply_channel(phase_damping(a * b, n), x)
        twice = apply_channel(phase_damping(b, n), apply_channel(phase_damping(a, n), x))
        assert np.max(np.abs(once - twice)) < 1e-10


class TestAmplitudeDamping:
    def test_eta_one_single_nonzero_kraus(self):
        ch = amplitude_damping(1.0, 4)
        assert ch.kraus_truncation == 4
        assert np.array_equal(ch.kraus_ops[0], np.eye(4))
        assert not np.any(ch.kraus_ops[1:])

    def test_eta_zero_total_damping(self):
        ch = amplitude_damping(0.0, 4)
        rng = np.random.default_rng(1)
        rho = random_density_matrix(4, rng)
        out = apply_channel(ch, rho)
        assert np.max(np.abs(out - basis_operator(0, 0, 4))) < 1e-12

    def test_eta_domain(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                amplitude_damping(bad, 4)

    def test_exact_trace_preservation(self):
        assert amplitude_damping(0.37, 16).tp_defect <= 1e-12

    @pytest.mark.parametrize("dim", [64, 128, 256])
    @pytest.mark.parametrize("eta", [0.05, 0.5, 0.95])
    def test_multipliers_match_exact_decimal(self, dim, eta):
        # M_o[a, b] = e[a] e[b] with e[j]^2 = C(o + j, o) eta^j (1 - eta)^o, a
        # binomial weight (so e[j] <= 1), evaluated in 40-digit Decimal from the
        # binary eta; rounding e and the product to float costs under 2 ulp.
        # Only entries above 1e-290 are compared, since underflow costs
        # relative precision; both factors of such an entry are normal floats.
        ch = amplitude_damping(eta, dim)
        with localcontext() as ctx:
            ctx.prec = 40
            d = Decimal(eta)
            for o in (0, 1, dim // 4, dim // 2):
                e = np.array([float((math.comb(o + j, o) * d ** j * (1 - d) ** o).sqrt())
                              for j in range(dim - o)])
                exact = np.outer(e, e)
                normal = exact > 1e-290
                assert normal.sum() > (dim - o) ** 2 // 2
                stored = ch.multipliers[o][normal]
                assert np.max(np.abs(stored - exact[normal]) / exact[normal]) <= 2e-12, o

    def test_closed_form_vacuum_fixed(self):
        out = amplitude_damping_closed(0.5, 0, 0, 4)
        assert np.array_equal(out, basis_operator(0, 0, 4))

    def test_closed_form_population(self):
        out = amplitude_damping_closed(0.25, 1, 1, 4)
        expect = 0.25 * basis_operator(1, 1, 4) + 0.75 * basis_operator(0, 0, 4)
        assert np.max(np.abs(out - expect)) < 1e-15

    def test_closed_form_coherence(self):
        out = amplitude_damping_closed(0.25, 0, 1, 4)
        assert np.max(np.abs(out - 0.5 * basis_operator(0, 1, 4))) < 1e-15

    def test_closed_form_requires_ordered_levels(self):
        with pytest.raises(ValueError):
            amplitude_damping_closed(0.5, 2, 1, 4)

    @pytest.mark.parametrize("eta", ETAS)
    def test_closed_matches_kraus(self, eta):
        n = 16
        ch = amplitude_damping(eta, n)
        for k in range(n // 2):
            for s in range(k, n // 2):
                out = apply_channel(ch, basis_operator(k, s, n))
                assert np.max(np.abs(out - amplitude_damping_closed(eta, k, s, n))) < 1e-10

    def test_matrix_form_vacuum_fixed(self):
        out = apply_channel(amplitude_damping(0.5, 4), basis_operator(0, 0, 4))
        assert np.max(np.abs(out - basis_operator(0, 0, 4))) < 1e-15

    def test_matrix_form_mixed_diagonal(self):
        # y_00 of I/4 at eta = 0.5 sums the geometric pull-down weights.
        out = apply_channel(amplitude_damping(0.5, 4), np.eye(4, dtype=complex) / 4)
        assert out[0, 0] == pytest.approx(15 / 32, abs=1e-14)

    def test_semigroup(self):
        n = 12
        a, b = 0.6, 0.5
        rng = np.random.default_rng(3)
        x = random_hermitian(n, rng)
        once = apply_channel(amplitude_damping(a * b, n), x)
        twice = apply_channel(amplitude_damping(b, n), apply_channel(amplitude_damping(a, n), x))
        assert np.max(np.abs(once - twice)) < 1e-10


class TestDepolarizing:
    def test_p_one_identity(self):
        ch = depolarizing(1.0, 4)
        rng = np.random.default_rng(4)
        x = random_hermitian(4, rng)
        assert np.max(np.abs(apply_channel(ch, x) - x)) < 1e-12

    def test_p_zero_chaotic(self):
        ch = depolarizing(0.0, 4)
        rng = np.random.default_rng(5)
        rho = random_density_matrix(4, rng)
        assert np.max(np.abs(apply_channel(ch, rho) - np.eye(4) / 4)) < 1e-12

    def test_affine_action(self):
        ch = depolarizing(0.3, 2)
        out = apply_channel(ch, basis_operator(0, 0, 2))
        expect = 0.3 * basis_operator(0, 0, 2) + 0.35 * np.eye(2)
        assert np.max(np.abs(out - expect)) < 1e-14

    def test_affine_contract_on_random_operators(self):
        n = 5
        ch = depolarizing(0.62, n)
        rng = np.random.default_rng(6)
        for _ in range(5):
            x = random_hermitian(n, rng)
            expect = 0.62 * x + 0.38 * np.trace(x) * np.eye(n) / n
            assert np.max(np.abs(apply_channel(ch, x) - expect)) < 1e-12

    def test_trace_preserving(self):
        assert depolarizing(0.3, 4).tp_defect <= 1e-12

    def test_p_domain(self):
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError):
                depolarizing(bad, 4)

    @pytest.mark.parametrize("p", (0.0, 0.4, 1.0))
    def test_kraus_stack_order(self, p):
        # Band order: offset s - k ascending, then row k; sqrt(p) I (when
        # p > 0) leads offset 0.
        n = 3
        ops = depolarizing(p, n).kraus_ops
        expect = []
        for o in range(1 - n, n):
            if o == 0 and p > 0:
                expect.append(math.sqrt(p) * np.eye(n))
            if p < 1:
                expect += [math.sqrt((1 - p) / n) * basis_operator(k, k + o, n)
                           for k in range(max(0, -o), n - max(0, o))]
        assert np.array_equal(ops, np.stack(expect))


# eta = 0 lies outside the phase-damping domain.
FAMILY_CASES = [(family, eta) for family in (phase_damping, amplitude_damping, depolarizing)
                for eta in (0.0, 0.3, 0.77, 1.0) if (family, eta) != (phase_damping, 0.0)]


@pytest.mark.parametrize("family, eta", FAMILY_CASES)
@pytest.mark.parametrize("dim", (1, 2, 7, 16))
def test_band_action_matches_dense_kraus_sum(family, eta, dim):
    ch = family(eta, dim)
    assert ch.multipliers is not None
    rng = np.random.default_rng(dim)
    x = random_hermitian(dim, rng) + 1j * random_hermitian(dim, rng)
    assert np.max(np.abs(apply_channel(ch, x) - dense_apply(ch.kraus_ops, x))) < 1e-13


FAMILIES = (phase_damping, amplitude_damping, depolarizing)


class TestSizeGuard:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_builds_at_the_documented_limit(self, family):
        ch = family(0.5, 256)
        assert ch.dim == 256

    @pytest.mark.parametrize("family", FAMILIES)
    def test_estimate_covers_the_stored_arrays(self, monkeypatch, family):
        # Lowered to exactly what the channel stores, the limit refuses it:
        # the estimate counts at least its vectors, multipliers and transfer.
        ch = family(0.5, 40)
        stored = ch.stored_bytes
        assert 0 < stored <= MAX_KRAUS_BYTES
        monkeypatch.setattr(subchan.channels, "MAX_KRAUS_BYTES", stored)
        with pytest.raises(ResourceLimitError, match="at dim 40 needs"):
            family(0.5, 40)

    def test_every_family_counts_five_tables(self, monkeypatch):
        # Amplitude damping holds its dim (dim + 1) / 2 band entries a few
        # times over while it is built, as the others hold a few dim x dim
        # tables: a limit of four tables refuses each at dim 600. Only the
        # estimates run, so nothing is allocated.
        monkeypatch.setattr(subchan.channels, "MAX_KRAUS_BYTES", 4 * 600**2 * 8)
        for family in FAMILIES:
            with pytest.raises(ResourceLimitError, match="at dim 600 needs"):
                family(0.5, 600)


class TestCoherentAction:
    def test_vacuum(self):
        out = coherent_action_closed(0.5, 0, 0, 8)
        assert np.max(np.abs(out - basis_operator(0, 0, 8))) < 1e-14

    def test_diagonal_transport(self):
        # |alpha><alpha| -> |sqrt(eta) alpha><sqrt(eta) alpha| with no prefactor.
        out = coherent_action_closed(0.49, 1, 1, 32)
        ket, _ = coherent_state(0.7, 32)
        assert np.max(np.abs(out - outer(ket, ket))) < 1e-12

    def test_off_diagonal_prefactor(self):
        # (1 - eta)(-(1+1)/2 + (1)(-1)) = -1 at eta = 0.5, alpha = 1, beta = -1.
        out = coherent_action_closed(0.5, 1, -1, 32)
        ket, _ = coherent_state(math.sqrt(0.5), 32)
        bra, _ = coherent_state(-math.sqrt(0.5), 32)
        assert np.max(np.abs(out - math.exp(-1) * outer(ket, bra))) < 1e-12

    @pytest.mark.parametrize(
        "alpha,beta",
        [(1.0, 1.0), (1.0, -1.0), (0.5, 0.5j), (1.5, 1.2), (1.2j, -0.7)],
    )
    def test_matches_kraus_application(self, alpha, beta):
        eta, dim = 0.5, 32
        ch = amplitude_damping(eta, dim)
        ka, _ = coherent_state(alpha, dim)
        kb, _ = coherent_state(beta, dim)
        oracle = apply_channel(ch, outer(ka, kb))
        out = coherent_action_closed(eta, alpha, beta, dim)
        assert np.max(np.abs(out - oracle)) < 1e-7

    def test_deficit_guard_names_required_dim(self):
        with pytest.raises(PrecisionLossError) as err:
            coherent_action_closed(0.5, 3.0, 0.0, 8)
        assert err.value.required_dim is not None
        _, deficit = coherent_state(3.0, err.value.required_dim)
        assert deficit < 1e-8

    @pytest.mark.parametrize("lam", [1e-6, 1e-3, 0.1, 0.5, 1.0, 2.5, 7.3, 25.0, 100.0, 1000.0])
    def test_required_dim_inverts_the_poisson_tail(self, lam):
        # The log-space tail walk against scipy's inverse survival function.
        for tol in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            assert _dim_for_deficit(math.sqrt(lam), tol) == int(poisson.isf(tol, lam)) + 2, tol
