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
    """max |op[..., k, s] - conj(op[..., s, k])| over one operator or a stack of them."""
    op = np.asarray(op)
    return float(np.max(np.abs(op - op.conj().swapaxes(-1, -2)))) if op.size else 0.0


def operator_norm(op: np.ndarray) -> float:
    """Largest singular value; 0.0 without an SVD when ``op`` has no nonzero entry (NaN
    and inf are nonzero)."""
    op = np.asarray(op)
    return float(np.linalg.norm(op, 2)) if op.any() else 0.0


def hs_norm(op: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(op)))


# ---------------------------------------------------------------------------
# Random operators from standard normals (verify_channel's samples)
# ---------------------------------------------------------------------------

# _state_from and _hermitian_from take standard normals g of shape
# (..., 2, dim, dim), real parts then imaginary parts, and build one operator
# per leading index: a stack of draws gives the operators that drawing them one
# at a time in that order gives.
# Sums and quotients are formed in place, which keeps verify_channel's stacks
# from holding extra temporaries; the terms of a sum commute bit for bit.


def _ginibre(g: np.ndarray) -> np.ndarray:
    """g[..., 0, :, :] + 1j g[..., 1, :, :]."""
    a = 1j * g[..., 1, :, :]
    a += g[..., 0, :, :]
    return a


def _state_from(g: np.ndarray) -> np.ndarray:
    """G G^dag / tr(G G^dag) for the Ginibre factor G of ``g``."""
    g = _ginibre(g)
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., np.newaxis, np.newaxis]
    return rho


def _hermitian_from(g: np.ndarray) -> np.ndarray:
    """(A + A^dag) / 2 for the Ginibre factor A of ``g``."""
    a = _ginibre(g)
    h = a.conj().swapaxes(-1, -2)
    h += a
    h /= 2
    return h
