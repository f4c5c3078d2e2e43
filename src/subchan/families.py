"""Constructors and closed-form actions for the standard channel families.

Phase damping (retention eta in (0, 1]) has diagonal Kraus operators

    E_i[k, k] = (k * sqrt(-2 ln eta))^i / sqrt(i!) * eta^(k^2),

an infinite family truncated here by a Poisson tail bound: the squared
entries at level k follow a Poisson(-2 k^2 ln eta) law in i, so the number
of retained terms is chosen to push every diagonal's missing mass below
KRAUS_TAIL_TARGET. Entries are evaluated in log space because k^i overflows
while eta^(k^2) underflows long before their product leaves float range.
Its action contracts coherences as eta^((k-s)^2) and fixes every |k><k|.

Amplitude damping (retention eta in [0, 1]) needs exactly dim operators on a
dim-level truncation,

    E_i = sum_{k>=i} sqrt(C(k, i)) eta^((k-i)/2) (1-eta)^(i/2) |k-i><k|,

and is exactly trace-preserving there (binomial identity). eta = 0 is the
continuous limit where every state collapses to the vacuum.

The depolarizing channel acts affinely, x -> p x + (1-p) tr(x) I / n; any
Kraus realization reproducing that action is equally valid, and the one used
here is {sqrt(p) I} plus {sqrt((1-p)/n) |k><s|} over all matrix units.

Every family is built in the band form of :mod:`subchan.channels`, one
diagonal per Kraus operator, with real entries.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln
from scipy.stats import poisson

from .channels import KrausChannel
from .errors import PrecisionLossError
from .fock import coherent_state, log_binomial, outer
from .tolerances import COHERENT_DEFICIT_TOL, KRAUS_TAIL_TARGET


def identity_channel(dim: int) -> KrausChannel:
    """Single-Kraus identity map, handy as a reference point."""
    return KrausChannel(np.eye(dim, dtype=complex)[np.newaxis], family="custom")


# ---------------------------------------------------------------------------
# Phase damping
# ---------------------------------------------------------------------------


def phase_damping_terms(eta: float, dim: int) -> int:
    """Number of Kraus terms keeping every diagonal's Poisson tail below KRAUS_TAIL_TARGET."""
    lam = -2.0 * (dim - 1) ** 2 * np.log(eta)
    if lam <= 0:
        return 1
    return int(poisson.isf(KRAUS_TAIL_TARGET, lam)) + 1


def phase_damping(
    eta: float, dim: int, kraus_truncation: int | None = None
) -> KrausChannel:
    """Phase damping channel with diagonal Kraus operators on dim levels.

    eta = 1 gives exactly {I}. eta <= 0 is rejected (the log diverges).
    When ``kraus_truncation`` is not given the Poisson tail bound picks it;
    the achieved trace-preservation defect is stored on the channel either
    way.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"phase damping requires 0 < eta <= 1, got {eta}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    terms = phase_damping_terms(eta, dim) if kraus_truncation is None else kraus_truncation
    if terms < 1:
        raise ValueError(f"kraus_truncation must be >= 1, got {terms}")

    log_eta = np.log(eta)
    diags = np.zeros((terms, dim), dtype=float)
    k = np.arange(1, dim)
    # i = 0 row: (k sqrt(-2 ln eta))^0 = 1, leaving eta^(k^2).
    diags[0, 0] = 1.0
    diags[0, 1:] = np.exp(k**2 * log_eta)
    if terms > 1 and dim > 1 and eta < 1.0:
        i = np.arange(1, terms)[:, np.newaxis]
        log_rate = np.log(k * np.sqrt(-2.0 * log_eta))[np.newaxis, :]
        diags[1:, 1:] = np.exp(
            i * log_rate - 0.5 * gammaln(i + 1) + (k**2 * log_eta)[np.newaxis, :]
        )
    return KrausChannel(bands={0: diags}, family="phase-damping", eta=float(eta))


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
    for j < dim - i.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"amplitude damping requires 0 <= eta <= 1, got {eta}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    vals = np.zeros((dim, dim))
    if eta == 1.0:
        vals[0] = 1.0
    elif eta == 0.0:
        # Continuous limit: E_i = |0><i|, everything damps to the vacuum.
        vals[:, 0] = 1.0
    else:
        log_eta = np.log(eta)
        log_loss = np.log1p(-eta)
        i = np.arange(dim)[:, np.newaxis]
        k = i + np.arange(dim)
        log_c = gammaln(k + 1) - gammaln(i + 1) - gammaln(k - i + 1)
        vals = np.exp(0.5 * (log_c + (k - i) * log_eta + i * log_loss))
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
    p < 1). The unit |k><s| lies on offset s - k, so offset o holds dim - |o|
    of them, and ``kraus_ops`` lists the terms in band order: ascending
    offset, then ascending row k, with sqrt(p) I first on offset 0.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing requires 0 <= p <= 1, got {p}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    bands = {}
    if p < 1.0:
        w = np.sqrt((1.0 - p) / dim)
        bands = {o: w * np.eye(dim - abs(o)) for o in range(1 - dim, dim)}
    if p > 0.0:
        bands[0] = np.vstack([np.full((1, dim), np.sqrt(p)), bands.get(0, np.empty((0, dim)))])
    return KrausChannel(bands=bands, family="depolarizing", eta=float(p))


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
    # Occupation weights are Poisson(|alpha|^2); invert its tail.
    lam = abs(alpha) ** 2
    if lam == 0:
        return 1
    return int(poisson.isf(tol, lam)) + 2


__all__ = [
    "identity_channel",
    "phase_damping",
    "phase_damping_terms",
    "phase_damping_closed",
    "amplitude_damping",
    "amplitude_damping_closed",
    "depolarizing",
    "coherent_action_closed",
]
