"""Truncated Fock-space primitives.

States and operators are plain numpy arrays: a vector on an N-level space is
a length-N complex array whose k-th entry multiplies the number state |k>, an
operator is an N x N complex array whose (k, s) entry multiplies |k><s|.
Everything downstream (channels, subspaces, fidelities) rides on these
carriers, so the module also collects the validation helpers and the
numerically stable combinatorics the channel constructors need.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .tolerances import SPECTRAL_TOL, STRUCTURAL_TOL


def fock_state(k: int, dim: int) -> np.ndarray:
    """Unit vector for the number state |k> on a dim-level truncation."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if not 0 <= k < dim:
        raise ValueError(f"level index k={k} out of range for dim={dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[k] = 1.0
    return vec


def basis_operator(k: int, s: int, dim: int) -> np.ndarray:
    """Matrix unit |k><s| on a dim-level truncation."""
    op = np.zeros((dim, dim), dtype=complex)
    op[k, s] = 1.0
    return op


def outer(ket: np.ndarray, bra: np.ndarray) -> np.ndarray:
    """Outer product |ket><bra|."""
    return np.outer(ket, np.conj(bra))


def coherent_state(alpha: complex, dim: int) -> tuple[np.ndarray, float]:
    """Truncated coherent state and its truncation deficit.

    Amplitudes are exp(-|alpha|^2 / 2) * alpha^k / sqrt(k!) for k < dim,
    evaluated in log space. The vector is deliberately NOT renormalized after
    truncation; the deficit 1 - sum_k |amplitude_k|^2 is returned alongside so
    callers can judge (or reject) the truncation. Any finite alpha is
    accepted; a large |alpha| merely shows up as a large deficit.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    alpha = complex(alpha)
    amps = np.zeros(dim, dtype=complex)
    if alpha == 0:
        amps[0] = 1.0
        return amps, 0.0
    k = np.arange(dim)
    log_amps = -abs(alpha) ** 2 / 2 + k * np.log(alpha) - 0.5 * gammaln(k + 1)
    amps = np.exp(log_amps)
    deficit = 1.0 - float(np.sum(np.abs(amps) ** 2))
    # Roundoff can push an essentially complete sum a hair past 1.
    return amps, max(deficit, 0.0)


def log_binomial(k: int, i: int) -> float:
    """ln of the binomial coefficient k! / ((k-i)! i!), via log-gamma.

    Never forms factorial products, so it stays accurate (1e-12 relative)
    out to k ~ 1e4 where naive products would overflow long before.
    """
    if i < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got k={k}, i={i}")
    if i > k:
        raise ValueError(f"require i <= k, got k={k}, i={i}")
    return float(gammaln(k + 1) - gammaln(i + 1) - gammaln(k - i + 1))


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------


def norm_defect(vec: np.ndarray) -> float:
    """|sum_k |v_k|^2 - 1| for a would-be unit vector."""
    return abs(float(np.sum(np.abs(np.asarray(vec)) ** 2)) - 1.0)


def is_normalized(vec: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    return norm_defect(vec) <= tol


def hermiticity_defect(op: np.ndarray) -> float:
    """max |op[k, s] - conj(op[s, k])|."""
    op = np.asarray(op)
    return float(np.max(np.abs(op - op.conj().T))) if op.size else 0.0


def is_hermitian(op: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    return hermiticity_defect(op) <= tol


def is_density_matrix(
    op: np.ndarray,
    herm_tol: float = STRUCTURAL_TOL,
    eig_tol: float = SPECTRAL_TOL,
    trace_tol: float = SPECTRAL_TOL,
) -> bool:
    """Hermitian, positive semidefinite (min eigenvalue >= -eig_tol), unit trace."""
    op = np.asarray(op)
    if hermiticity_defect(op) > herm_tol:
        return False
    if abs(float(np.trace(op).real) - 1.0) > trace_tol or abs(float(np.trace(op).imag)) > trace_tol:
        return False
    min_eig = float(np.linalg.eigvalsh((op + op.conj().T) / 2).min())
    return min_eig >= -eig_tol


def operator_norm(op: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(op), 2))


def hs_norm(op: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(op)))


# ---------------------------------------------------------------------------
# Random test inputs (seeded by the caller)
# ---------------------------------------------------------------------------


def random_density_matrix(
    dim: int, rng: np.random.Generator, rank: int | None = None
) -> np.ndarray:
    """Random mixed state from a Ginibre factor G: rho = G G^dag / tr."""
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2
