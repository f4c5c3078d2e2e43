import math

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
