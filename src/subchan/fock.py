"""Truncated Fock-space primitives.

States and operators are plain numpy arrays: a vector on an N-level space is
a length-N complex array whose k-th entry multiplies the number state |k>, an
operator is an N x N complex array whose (k, s) entry multiplies |k><s|.
Everything downstream (channels, subspaces, fidelities) rides on these
carriers, so the module also collects the validation helpers and the
numerically stable combinatorics the channel constructors need. Every ln k!
comes from the standard library's ``math.lgamma(k + 1)``, either directly or
through the cached table ``log_factorials``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


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
    log_amps = -abs(alpha) ** 2 / 2 + k * np.log(alpha) - 0.5 * log_factorials(dim)
    amps = np.exp(log_amps)
    deficit = 1.0 - float(np.sum(np.abs(amps) ** 2))
    # Roundoff can push an essentially complete sum a hair past 1.
    return amps, max(deficit, 0.0)


@lru_cache(maxsize=8)
def log_factorials(n: int) -> np.ndarray:
    """Table of ln k! for k < n, each entry ``math.lgamma(k + 1)``.

    Cached per n and shared by every caller, hence read-only.
    """
    if n < 0:
        raise ValueError(f"table length must be nonnegative, got {n}")
    table = np.array([math.lgamma(k + 1) for k in range(n)], dtype=float)
    table.flags.writeable = False
    return table


def log_binomial(k: int, i: int) -> float:
    """ln of the binomial coefficient k! / ((k-i)! i!), each ln k! from ``math.lgamma``.

    Never forms factorial products, so it stays accurate (5e-12 relative)
    out to k ~ 1e4 where naive products would overflow long before. The worst
    case is i = 1 or k - 1, where the three log-gamma terms nearly cancel.
    """
    if i < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got k={k}, i={i}")
    if i > k:
        raise ValueError(f"require i <= k, got k={k}, i={i}")
    return math.lgamma(k + 1) - math.lgamma(i + 1) - math.lgamma(k - i + 1)


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------


def hermiticity_defect(op: np.ndarray) -> float:
    """max |op[k, s] - conj(op[s, k])|."""
    op = np.asarray(op)
    return float(np.max(np.abs(op - op.conj().T))) if op.size else 0.0


def operator_norm(op: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(np.asarray(op), 2))


def hs_norm(op: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(op)))


# ---------------------------------------------------------------------------
# Random test inputs (seeded by the caller)
# ---------------------------------------------------------------------------


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank mixed state from a square Ginibre factor G: rho = G G^dag / tr."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2
