"""Numerical tolerances used across the package.

Two tiers: identities that hold in exact arithmetic (norms, hermiticity,
binomial sums) are checked at STRUCTURAL_TOL; anything routed through an
eigen- or singular-value solver gets the looser SPECTRAL_TOL. The tiers are
constants; only ``fixed_point_space(tol)`` takes a cutoff.
"""

# Exact-arithmetic identities (unit norms, hermiticity, closed-form sums).
STRUCTURAL_TOL = 1e-12

# Eigen/SVD-based checks (positivity, projector spectra).
SPECTRAL_TOL = 1e-10

# Invariant-hull leakage threshold (operator norm of the out-of-subspace block).
HULL_TOL = 1e-9

# Largest channel trace-preservation defect at which a hull verdict is given.
# A map that loses or gains more trace than this (a lossy channel file, say)
# is not a channel, so the check refuses it instead of judging it.
HULL_TP_PRECONDITION = 1e-8

# Unitality / trace-preservation verdicts for restricted maps.
UNITALITY_TOL = 1e-9

# Singular-value cutoff for the fixed-operator subspace of a channel.
FIXED_POINT_TOL = 1e-8

# Largest coherent-state truncation deficit accepted by the closed-form
# coherent action; above this the truncated outer product is too lossy.
COHERENT_DEFICIT_TOL = 1e-8

# Agreement required between the moment-contraction fidelity and the
# quadrature oracle.
CROSS_CHECK_TOL = 1e-10

# Pair fidelities this close to the best one are reported as tied with it
# (degenerate optima), a margin well above the closed form's roundoff.
TIE_TOL = 1e-9
