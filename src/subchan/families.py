"""Constructors and closed-form actions for the standard channel families.

Phase damping (retention eta in (0, 1]) contracts the coherence between
levels a and b by eta^((a-b)^2) and fixes every |k><k|. That is the Schur
multiplier M_0[a, b] = eta^((a-b)^2), exact on every truncation, and the
channel is built from it in closed form. (Its classic Kraus family is
infinite on the Fock space; ``kraus_ops`` factors M_0 into dim terms.)

Amplitude damping (retention eta in [0, 1]) needs exactly dim operators on a
dim-level truncation,

    E_i = sum_{k>=i} sqrt(C(k, i)) eta^((k-i)/2) (1-eta)^(i/2) |k-i><k|,

and is exactly trace-preserving there (binomial identity). eta = 0 is the
continuous limit where every state collapses to the vacuum.

The depolarizing channel acts affinely, x -> p x + (1-p) tr(x) I / n; any
Kraus realization reproducing that action is equally valid, and the one used
here is {sqrt(p) I} plus {sqrt((1-p)/n) |k><s|} over all matrix units: the
multiplier p J on offset 0 (J all ones) and the population-transfer matrix
T = (1-p)/n on every entry.

Every family is built in the band form of :mod:`subchan.channels`, with real
entries.
"""

from __future__ import annotations

import math

import numpy as np

from .channels import FORMED_BYTES, REAL_BYTES, KrausChannel, _check_bytes
from .errors import PrecisionLossError
from .fock import coherent_state, log_binomial, log_factorials, outer
from .tolerances import COHERENT_DEFICIT_TOL


def _check_dim(family: str, dim: int, vectors: bool = False) -> None:
    """ValueError for dim < 1. Then the size guard, before allocating, on five real
    dim x dim arrays, what a family holds while it is built and folded. A family
    stored as ``vectors`` (amplitude damping: its dim (dim + 1) / 2 band entries,
    held three times over while folded) adds the multipliers it forms when they
    fit in FORMED_BYTES: at most sum_o (dim - o)^2 floats."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    formed = min(dim * (dim + 1) * (2 * dim + 1) // 6 * REAL_BYTES, FORMED_BYTES) if vectors else 0
    _check_bytes(5 * dim * dim * REAL_BYTES + formed, f"{family} at dim {dim}")


# ---------------------------------------------------------------------------
# Phase damping
# ---------------------------------------------------------------------------


def phase_damping(eta: float, dim: int) -> KrausChannel:
    """Phase damping channel on dim levels: the exact multiplier M_0[a, b] = eta^((a-b)^2).

    One dim x dim exp: its trace-preservation defect is 0 and its Kraus form
    (dim terms) is factored only on demand. eta = 1 gives exactly {I}.
    eta <= 0 is rejected (the log diverges).
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"phase damping requires 0 < eta <= 1, got {eta}")
    _check_dim("phase damping", dim)
    if eta == 1.0:
        return KrausChannel(bands={0: np.ones((1, dim))}, family="phase-damping", eta=1.0)
    level = np.arange(dim)
    m0 = np.exp(np.subtract.outer(level, level) ** 2 * np.log(eta))
    return KrausChannel(multipliers={0: m0}, family="phase-damping", eta=float(eta))


def phase_damping_closed(eta: float, k: int, s: int) -> float:
    """Coherence retention factor eta^((k-s)^2) of phase damping."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"phase damping requires 0 < eta <= 1, got {eta}")
    if k < 0 or s < 0:
        raise ValueError(f"levels must be nonnegative, got k={k}, s={s}")
    return float(eta ** ((k - s) ** 2))


# ---------------------------------------------------------------------------
# Amplitude damping
# ---------------------------------------------------------------------------


def amplitude_damping(eta: float, dim: int) -> KrausChannel:
    """Amplitude damping channel; exactly dim Kraus operators on dim levels.

    Operator i lies on offset i: its diagonal holds the values at k = i + j
    for j < dim - i, all computed in one dim x dim table. Each diagonal is a
    real nonnegative band, stored as its vector, the one-entry band on
    offset dim - 1 too. At eta = 0 every operator is a matrix unit, and the
    channel is the transfer matrix T with T[0, :] = 1 alone.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"amplitude damping requires 0 <= eta <= 1, got {eta}")
    _check_dim("amplitude damping", dim, vectors=True)
    vals = np.zeros((dim, dim))
    if eta == 0.0:
        # Continuous limit: E_i = |0><i|, everything damps to the vacuum.
        vals[0] = 1.0
        return KrausChannel(transfer=vals, family="amplitude-damping", eta=0.0)
    if eta == 1.0:
        vals[0] = 1.0
    else:
        # vals[i, j] at k = i + j, in place: lf[k] - lf[i] - lf[j] + j ln(eta) + i ln(1-eta),
        # halved, exponentiated. A sliding view of lf reads lf[i + j] with no index array.
        lf = log_factorials(2 * dim)
        level = np.arange(dim)
        np.subtract(np.lib.stride_tricks.sliding_window_view(lf, dim)[:dim],
                    lf[:dim, np.newaxis], out=vals)
        vals -= lf[:dim]
        vals += level * np.log(eta)
        vals += level[:, np.newaxis] * np.log1p(-eta)
        vals *= 0.5
        np.exp(vals, out=vals)
    bands = {i: vals[i:i + 1, :dim - i] for i in range(dim)}
    return KrausChannel(bands=bands, family="amplitude-damping", eta=float(eta))


def amplitude_damping_closed(eta: float, k: int, s: int, dim: int) -> np.ndarray:
    """Action of amplitude damping on the matrix unit |k><s| for k <= s.

    Returns sum_{i=0}^{k} sqrt(C(k,i) C(s,i)) eta^((k+s)/2 - i) (1-eta)^i
    |k-i><s-i| as a dim x dim matrix. Callers wanting k > s should conjugate
    the transposed result themselves.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"amplitude damping requires 0 <= eta <= 1, got {eta}")
    if not 0 <= k <= s < dim:
        raise ValueError(f"require 0 <= k <= s < dim, got k={k}, s={s}, dim={dim}")
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(k + 1):
        coeff = np.exp(0.5 * (log_binomial(k, i) + log_binomial(s, i)))
        coeff *= eta ** ((k + s) / 2 - i) * (1.0 - eta) ** i
        out[k - i, s - i] = coeff
    return out


# ---------------------------------------------------------------------------
# Depolarizing
# ---------------------------------------------------------------------------


def depolarizing(p: float, dim: int) -> KrausChannel:
    """Depolarizing channel: x -> p x + (1-p) tr(x) I / dim.

    Kraus operators sqrt(p) I (when p > 0) and sqrt((1-p)/dim) |k><s| (when
    p < 1), stored as the multiplier p J on offset 0 and the population
    transfer T = (1-p)/dim on every entry: O(dim^2) in all. ``kraus_ops``
    lists them in band order: ascending offset s - k, then ascending row k,
    with sqrt(p) I first on offset 0.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing requires 0 <= p <= 1, got {p}")
    _check_dim("depolarizing", dim)
    identity = {0: np.full((1, dim), np.sqrt(p))} if p > 0.0 else None
    replacement = np.full((dim, dim), (1.0 - p) / dim) if p < 1.0 else None
    return KrausChannel(bands=identity, transfer=replacement,
                        family="depolarizing", eta=float(p))


# ---------------------------------------------------------------------------
# Coherent-state transport
# ---------------------------------------------------------------------------


def coherent_action_closed(eta: float, alpha: complex, beta: complex, dim: int) -> np.ndarray:
    """Amplitude-damping action on |alpha><beta| built from coherent states.

    Returns |sqrt(eta) alpha><sqrt(eta) beta| scaled by
    exp[(1-eta)(-(|alpha|^2 + |beta|^2)/2 + alpha conj(beta))], using
    dim-level truncations of the output coherent states. Requires both input
    truncation deficits to sit below COHERENT_DEFICIT_TOL.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"amplitude damping requires 0 <= eta <= 1, got {eta}")
    alpha, beta = complex(alpha), complex(beta)
    for label, z in (("alpha", alpha), ("beta", beta)):
        _, deficit = coherent_state(z, dim)
        if deficit > COHERENT_DEFICIT_TOL:
            required = _dim_for_deficit(z, COHERENT_DEFICIT_TOL)
            raise PrecisionLossError(
                f"coherent state {label}={z} has truncation deficit {deficit:.3e} "
                f"at dim={dim}; need dim >= {required} for {COHERENT_DEFICIT_TOL:.0e}",
                required_dim=required,
            )
    root = np.sqrt(eta)
    ket, _ = coherent_state(root * alpha, dim)
    bra, _ = coherent_state(root * beta, dim)
    scale = np.exp(
        (1.0 - eta) * (-(abs(alpha) ** 2 + abs(beta) ** 2) / 2 + alpha * np.conj(beta))
    )
    return scale * outer(ket, bra)


def _dim_for_deficit(alpha: complex, tol: float) -> int:
    """Two more than the smallest k with P(N > k) <= tol, N ~ Poisson(|alpha|^2).

    Occupation weights of a coherent state are Poisson. The tail P(N > k) is
    summed from k = lam + 40 sqrt(lam) + 40 down, smallest terms first, with
    each weight taken in log space; the mass beyond that start is below
    exp(-270) for every lam up to 1e5.
    """
    lam = abs(alpha) ** 2
    if lam == 0:
        return 1
    tail = 0.0  # P(N > k)
    for k in range(int(lam + 40 * math.sqrt(lam) + 40), -1, -1):
        if tail > tol:
            return k + 3
        tail += math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
    return 2


__all__ = [
    "phase_damping",
    "phase_damping_closed",
    "amplitude_damping",
    "amplitude_damping_closed",
    "depolarizing",
    "coherent_action_closed",
]
