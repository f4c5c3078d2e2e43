import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import poisson

from subchan.fock import (
    coherent_state,
    fock_state,
    hermiticity_defect,
    hs_norm,
    log_binomial,
    log_factorials,
    operator_norm,
    outer,
    random_density_matrix,
)
from subchan.tolerances import SPECTRAL_TOL, STRUCTURAL_TOL


class TestFockState:
    def test_ground_state(self):
        assert np.array_equal(fock_state(0, 4), [1, 0, 0, 0])

    def test_top_state(self):
        assert np.array_equal(fock_state(3, 4), [0, 0, 0, 1])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            fock_state(4, 4)
        with pytest.raises(ValueError):
            fock_state(-1, 4)

    def test_pairwise_orthonormal(self):
        dim = 6
        for k in range(dim):
            for s in range(dim):
                ip = np.vdot(fock_state(k, dim), fock_state(s, dim))
                assert ip == (1.0 if k == s else 0.0)


class TestCoherentState:
    def test_vacuum(self):
        amps, deficit = coherent_state(0, 8)
        assert np.array_equal(amps, fock_state(0, 8))
        assert deficit == 0.0

    def test_alpha_one_dim_two(self):
        # Both retained amplitudes are e^{-1/2}; the lost weight is 1 - 2/e.
        amps, deficit = coherent_state(1, 2)
        expected = math.exp(-0.5)
        assert amps[0] == pytest.approx(expected, abs=1e-15)
        assert amps[1] == pytest.approx(expected, abs=1e-15)
        assert deficit == pytest.approx(1 - 2 / math.e, abs=1e-14)

    def test_small_alpha_negligible_deficit(self):
        _, deficit = coherent_state(0.5, 32)
        # Oracle: occupation weights are Poisson(|alpha|^2), tail from scipy.
        assert deficit <= max(float(poisson.sf(31, 0.25)), 1e-12)
        assert deficit < 1e-12

    def test_amplitudes_match_direct_formula(self):
        alpha = 0.7 - 0.3j
        amps, _ = coherent_state(alpha, 12)
        for k in range(12):
            direct = (
                math.exp(-abs(alpha) ** 2 / 2)
                * alpha**k
                / math.sqrt(math.factorial(k))
            )
            assert amps[k] == pytest.approx(direct, abs=1e-14)

    def test_not_renormalized(self):
        amps, deficit = coherent_state(2.0, 6)
        assert float(np.sum(np.abs(amps) ** 2)) == pytest.approx(1 - deficit, abs=1e-12)
        assert deficit > 0.1

    @given(st.floats(min_value=0.1, max_value=2.0), st.integers(min_value=1, max_value=20))
    def test_deficit_monotone_in_dim(self, alpha, dim):
        _, d_small = coherent_state(alpha, dim)
        _, d_large = coherent_state(alpha, dim + 1)
        assert d_large <= d_small + 1e-15

    def test_requires_positive_dim(self):
        with pytest.raises(ValueError):
            coherent_state(1.0, 0)


class TestLogFactorials:
    def test_within_three_ulp_of_exact(self):
        # Oracle: ln k! of the exact integer k!, to 40 digits.
        table = log_factorials(600)
        with localcontext() as ctx:
            ctx.prec = 40
            exact = [float(Decimal(math.factorial(k)).ln()) for k in range(600)]
        for k, want in enumerate(exact):
            assert abs(table[k] - want) <= 3 * math.ulp(want), k

    def test_cached_and_read_only(self):
        table = log_factorials(8)
        assert log_factorials(8) is table
        with pytest.raises(ValueError):
            table[0] = 1.0

    def test_negative_length(self):
        with pytest.raises(ValueError):
            log_factorials(-1)


class TestLogBinomial:
    def test_small(self):
        assert log_binomial(4, 2) == pytest.approx(math.log(6), abs=1e-14)

    def test_edge(self):
        assert log_binomial(10, 0) == pytest.approx(0.0, abs=1e-13)
        assert log_binomial(10, 10) == pytest.approx(0.0, abs=1e-13)

    def test_large_against_exact_integer(self):
        exact = math.comb(100, 50)
        assert log_binomial(100, 50) == pytest.approx(math.log(exact), rel=1e-13)

    def test_very_large_against_exact_integer(self):
        # math.log takes arbitrary-size ints, so the oracle stays exact.
        for k, i in ((10_000, 5_000), (10_000, 137), (9_999, 3_333)):
            assert log_binomial(k, i) == pytest.approx(math.log(math.comb(k, i)), rel=1e-12)

    def test_docstring_bound_against_exact_log(self):
        # The three log-gamma terms nearly cancel when C(k, i) is small beside
        # k!, so i = 1 is the worst case at each k; every k up to 1e4 is checked
        # there, and a stride of k at wider i. The worst measured is 3.7e-12,
        # at (8231, 1).
        cases = [(k, 1) for k in range(2, 10_001)]
        cases += [(k, i) for k in range(3, 10_001, 997) for i in (2, k // 3, k // 2)]
        with localcontext() as ctx:
            ctx.prec = 40
            for k, i in cases:
                exact = Decimal(math.comb(k, i)).ln()
                assert abs(Decimal(log_binomial(k, i)) - exact) <= Decimal("5e-12") * exact, (k, i)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_binomial(3, 4)
        with pytest.raises(ValueError):
            log_binomial(-1, 0)

    def test_exhaustive_roundtrip_to_30(self):
        for k in range(31):
            for i in range(k + 1):
                assert round(math.exp(log_binomial(k, i))) == math.comb(k, i)

    @given(st.integers(min_value=0, max_value=2000), st.integers(min_value=0, max_value=2000))
    def test_matches_exact_log(self, k, extra):
        i = min(extra, k)
        assert log_binomial(k, i) == pytest.approx(math.log(math.comb(k, i)), abs=1e-9, rel=1e-12)


class TestValidators:
    def test_hermiticity(self):
        h = np.array([[1.0, 1j], [-1j, 2.0]])
        assert hermiticity_defect(h) == 0.0
        assert hermiticity_defect(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1.0

    def test_random_density_matrix_is_state(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            rho = random_density_matrix(6, rng)
            assert hermiticity_defect(rho) <= STRUCTURAL_TOL
            assert np.trace(rho) == pytest.approx(1.0, abs=STRUCTURAL_TOL)
            assert np.linalg.eigvalsh(rho).min() >= -SPECTRAL_TOL

    def test_norms(self):
        p = outer(fock_state(0, 3), fock_state(1, 3))
        assert operator_norm(p) == pytest.approx(1.0, abs=1e-14)
        assert hs_norm(p) == pytest.approx(1.0, abs=1e-14)
        assert operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-14)
        assert hs_norm(np.eye(5)) == pytest.approx(math.sqrt(5), abs=1e-14)

    @staticmethod
    def _svds(monkeypatch):
        """The shapes np.linalg.norm takes a spectral norm (an SVD) of, as they come."""
        norm, shapes = np.linalg.norm, []

        def counted(x, ord=None, *args, **kwargs):
            if ord == 2:
                shapes.append(np.shape(x))
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        return shapes

    def test_zero_operator_norm_takes_no_svd(self, monkeypatch):
        svds = self._svds(monkeypatch)
        for zero in (np.zeros((4, 4), dtype=complex), -np.zeros((3, 3)), np.zeros((0, 0))):
            assert operator_norm(zero) == 0.0
            assert not np.signbit(operator_norm(zero))
        assert svds == []
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        x[1:] = 0
        assert operator_norm(x) == float(np.linalg.norm(x, 2))
        assert svds == [(5, 5)] * 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operators_take_the_svd(self, monkeypatch, bad):
        # inf gives NaN; on NaN, LAPACK may also refuse to converge.
        svds = self._svds(monkeypatch)
        op = np.zeros((3, 3), dtype=complex)
        op[1, 2] = bad
        try:
            value = operator_norm(op)
        except np.linalg.LinAlgError:
            value = np.nan
        assert np.isnan(value)
        assert svds == [(3, 3)]
