"""Average transmission fidelity of a code, and its oracle.

For a code K = span(b_0, ..., b_{d-1}) the fidelity of a pure input |psi>
in K is f = <psi|Phi(|psi><psi|)|psi>. Its Haar average over K's pure
states contracts T_K = ``restrict(ch, K).tensor``,
T[i,j,k,l] = <b_k|Phi(|b_i><b_j|)|b_l>, with the state's second moment
(I + SWAP) / (d(d+1)) (Horodecki^3, PRA 60, 1888 (1999); Nielsen,
quant-ph/0205035):

    F = (sum_ij T[i,j,i,j] + sum_ik T[i,i,k,k]) / (d(d+1)).

At d = 2 this is the uniform Bloch-sphere average, which quadrature also
computes: Gauss-Legendre in u = cos(theta) crossed with a uniform periodic
rule in phi, for |psi> = cos(theta/2)|b_0> + e^{i phi} sin(theta/2)|b_1>.
The integrand has degree <= 2 in u and harmonics |m| <= 2 in phi, so the
QUADRATURE_NODES x QUADRATURE_NODES default (16 x 16) integrates it exactly
up to roundoff, making this an independent oracle for the contraction.
The Gauss-Legendre rule is computed once per n_theta and cached read-only.
Every node state lies on the code's Fock window W, the smallest level range
holding both code words, and its score reads Phi(x) only there. So the
channel is compressed onto W once, x -> P_W Phi(P_W x P_W) P_W. The kets of
all nodes on W come in one product; the states x = |psi><psi| are built one
theta row at a time, never all at once; and each node is applied through the
compression: one channel application per node, to the plain density matrix.
The contraction builds T_K at the full truncation, so the two routes share
nothing beyond the channel, and a compression error would show as a gap
between them.

A third route, for amplitude damping alone, needs no channel and no
truncation: ``damping_fidelity_series`` applies the same Haar formula one
damping order at a time, to that order's Kraus operator compressed to the
code, for any d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import COMPLEX_BYTES, KrausChannel, _check_bytes, _coherence_block, _compress
from .channels import apply_channel
from .errors import DimensionMismatchError
from .fock import basis_operator, log_factorials
from .subspaces import Subspace, _fock_levels, restrict
from .tolerances import SPECTRAL_TOL

# Default quadrature nodes per Bloch angle.
QUADRATURE_NODES = 16


def _clip_unit(value):
    """``value`` with entries within SPECTRAL_TOL of [0, 1] moved onto it, elementwise."""
    near = (value >= -SPECTRAL_TOL) & (value <= 1.0 + SPECTRAL_TOL)
    return np.where(near, np.clip(value, 0.0, 1.0), value)[()]


@dataclass(frozen=True)
class FidelityReport:
    """Average fidelity plus enough metadata to reproduce it."""

    value: float
    method: str  # "closed-form" | "quadrature"
    channel_family: str
    eta: float | None
    dim: int
    kraus_terms: int
    channel_tp_defect: float
    encoding: str
    code_dim: int  # d, the number of code words

    def __post_init__(self):
        if not -SPECTRAL_TOL <= self.value <= 1.0 + SPECTRAL_TOL:
            raise ValueError(f"fidelity {self.value} outside [0, 1]")


def _report(ch: KrausChannel, subspace: Subspace, value: float, method: str) -> FidelityReport:
    return FidelityReport(
        value=value,
        method=method,
        channel_family=ch.family,
        eta=ch.eta,
        dim=ch.dim,
        kraus_terms=ch.kraus_truncation,
        channel_tp_defect=ch.tp_defect,
        encoding=subspace.label,
        code_dim=subspace.d,
    )


def _haar_average(populations: np.ndarray, coherences: np.ndarray):
    """Haar-averaged fidelity (sum_ik P[i,k] + sum_{i != k} C[i,k]) / (d(d+1)) over any
    leading axes of the tables P[i,k] = T[i,i,k,k] and C[i,k] = T[i,k,i,k] of T_K.

    The terms P[i,i] = T[i,i,i,i] are summed once and weighed twice: at d = 2 that
    is the Bloch-moment order, so qubit values keep every bit."""
    d = populations.shape[-1]
    apart = [(i, k) for i in range(d) for k in range(d) if i != k]
    shared = sum(populations[..., i, i] for i in range(d))
    rest = sum([table[..., i, k] for table in (populations, coherences) for i, k in apart])
    val = shared / (d * (d + 1) // 2) + rest / (d * (d + 1))
    if np.any(abs(val.imag) > SPECTRAL_TOL):
        raise ArithmeticError(f"average fidelity came out non-real: {val}")
    return _clip_unit(val.real)


def _moments(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tables (T[i,i,k,k], T[i,k,i,k]) of T_K that ``_haar_average`` reads."""
    return np.einsum("iikk->ik", t), np.einsum("ikik->ik", t)


def _fock_tables(ch: KrausChannel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_moments(level_process_tensor(ch, range(n)))`` entry for entry, with no G: a band
    channel's transposed B_0 block and its M_0 (or zeros) with B_0's diagonal, T[i,i,i,i];
    a dense channel's image of each matrix unit |i><k|, read at (k, k) and at (i, k).
    B_0's leading n x n corner is the B_0 of the compression onto levels [0, n), so only
    that n x n block is built."""
    if ch._stored is None:
        populations, coherences = np.empty((2, n, n), dtype=complex)
        for i, k in np.ndindex(n, n):
            image = apply_channel(ch, basis_operator(i, k, ch.dim))
            coherences[i, k] = image[i, k]
            if i == k:
                populations[i] = image.diagonal()[:n]
    else:
        populations = _coherence_block(_compress(ch, 0, n), 0).T.astype(complex)
        level = np.arange(n)
        coherences = (ch._entries(0, level[:, np.newaxis], level) if 0 in ch._stored
                      else np.zeros((n, n))).astype(complex)
        np.fill_diagonal(coherences, populations.diagonal())
    return populations, coherences


def level_process_tensor(ch: KrausChannel, levels) -> np.ndarray:
    """G[i,j,k,l] = <L_k|Phi(|L_i><L_j|)|L_l> on the Fock levels L: T_K of their span.

    ValueError for an empty, repeated or out-of-range level; G's n^4 complex
    entries go through the size guard. A dense channel is restricted. A band
    channel sends |a><b| to one diagonal, so G is a read of its storage:
    G[i,j,k,l] = M_o[L_k - r, L_l - r] for o = L_i - L_k = L_j - L_l and
    r = max(0, -o), then + T[L_k, L_i] where i = j and k = l (the order of
    ``apply_channel``), else 0. Pair sweeps read only two tables of G (``_fock_tables``).
    """
    levels = _fock_levels(levels, ch.dim)
    if ch._stored is None:
        return restrict(ch, Subspace.from_levels(levels, ch.dim)).tensor
    n = len(levels)
    _check_bytes(n**4 * COMPLEX_BYTES, f"the restriction to a {n}-dimensional subspace")
    at = np.array(levels)
    g = np.zeros((n,) * 4, dtype=complex)
    shift = at[:, np.newaxis] - at  # shift[i, k] = L_i - L_k
    for o in ch._stored.keys() & shift.ravel().tolist():
        i, k = np.nonzero(shift == o)
        source = at[k, np.newaxis] - max(0, -o)
        g[i[:, np.newaxis], i, k[:, np.newaxis], k] = ch._entries(o, source, source.T)
    if ch._transfer is not None:
        i = np.arange(n)[:, np.newaxis]
        g[i, i, i.T, i.T] += ch._transfer[at, at[:, np.newaxis]]
    return g


def average_fidelity_from_frames(g: np.ndarray, frames: np.ndarray) -> float:
    """Haar average of the code whose words are the rows of ``frames``, on G's levels."""
    t = np.einsum("ia,jb,kc,le,abce->ijkl", frames, frames.conj(),
                  frames.conj(), frames, g)
    return _haar_average(*_moments(t))


def average_fidelity_closed(ch: KrausChannel, subspace: Subspace) -> FidelityReport:
    """Haar average over the code's pure states: the contraction of T_K, for any d."""
    t = restrict(ch, subspace).tensor
    return _report(ch, subspace, _haar_average(*_moments(t)), "closed-form")


@lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(n)``'s nodes and weights, read-only, since every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def average_fidelity_quadrature(
    ch: KrausChannel,
    subspace: Subspace,
    n_theta: int = QUADRATURE_NODES,
    n_phi: int = QUADRATURE_NODES,
) -> FidelityReport:
    """Bloch average by Gauss-Legendre (in cos theta) x periodic-uniform (in phi).

    The node states' amplitudes on the two code words, all n_theta * n_phi
    of them, theta major, are built in one vectorized step; they and
    leggauss's n_theta x n_theta companion matrix go through the size guard
    first. The rule is cached per n_theta. The channel is compressed once
    onto the code's Fock window [lo, hi), the smallest level range holding
    every nonzero entry of the code words. The kets of all nodes on that
    window come in one product, and the states x = |psi><psi| one theta row
    at a time; the kets and one row of states go through the size guard
    before the compression. Each node is scored as tr(x Phi(x)): one channel
    application per node, through the compression.
    """
    if n_theta < 8 or n_phi < 8:
        raise ValueError(f"need n_theta >= 8 and n_phi >= 8, got {n_theta}, {n_phi}")
    if ch.dim != subspace.dim:
        raise DimensionMismatchError(
            f"channel dim {ch.dim} does not match encoding dim {subspace.dim}"
        )
    if subspace.d != 2:
        raise ValueError(f"need a d=2 subspace, got d={subspace.d}")
    # The companion matrix, then the amplitudes, their complex temporary and
    # the scores, each entry counted at COMPLEX_BYTES.
    _check_bytes((n_theta**2 + 4 * n_theta * n_phi) * COMPLEX_BYTES,
                 f"a {n_theta} x {n_phi} quadrature grid")
    (used,) = np.nonzero(subspace.basis.any(axis=0))
    lo, hi = int(used[0]), int(used[-1]) + 1
    w = hi - lo
    # Every node's ket, then one theta row of states.
    _check_bytes((n_theta * n_phi * w + n_phi * w * w) * COMPLEX_BYTES,
                 f"the node states on a {w}-level window")
    window = _compress(ch, lo, hi)
    nodes, weights = _gauss_legendre(n_theta)
    half = np.arccos(nodes)[:, np.newaxis] / 2
    phase = np.exp(2j * np.pi * np.arange(n_phi) / n_phi)
    amplitudes = np.stack(np.broadcast_arrays(np.cos(half), phase * np.sin(half)), axis=-1)
    # A stack of 1 x 2 rows, so each ket is the vector-matrix product that a
    # lone node's amplitude @ basis makes, rounding included.
    kets = (amplitudes[:, :, np.newaxis, :] @ subspace.basis[:, lo:hi])[:, :, 0, :]
    scores = np.empty((n_theta, n_phi))
    for row_scores, row_kets in zip(scores, kets):
        states = row_kets[:, :, np.newaxis] * row_kets.conj()[:, np.newaxis, :]
        for node, x in enumerate(states):
            row_scores[node] = np.vdot(x, apply_channel(window, x)).real
    # (1 / 4pi) * sum_ij w_i (2pi / n_phi) f_ij
    total = weights @ scores.sum(axis=1)
    return _report(ch, subspace, _clip_unit(total / (2 * n_phi)), "quadrature")


# ---------------------------------------------------------------------------
# Series form for amplitude damping encodings
# ---------------------------------------------------------------------------


def damping_fidelity_series(eta: float, *words, loss_exponent: str = "k") -> float:
    """Haar-averaged fidelity of the code spanned by ``words`` through amplitude damping
    on the untruncated Fock space, as a series over the damping order k.

    The words, padded with zeros to the longest, must pass ``Subspace``'s
    orthonormality check. Damping order k compresses to the code as
    (1-eta)^(k/2) A_k, with A_k[l, i] = sum_{n>=k} b_n conj(w_l[n-k]) w_i[n]
    and b_n = sqrt(C(n,k)) eta^((n-k)/2); the Haar average over the code's
    pure states (see the module docstring) is then

        F = sum_k (1-eta)^k (|tr A_k|^2 + ||A_k||_F^2) / (d(d+1)).

    ``loss_exponent`` selects the power of (1 - eta) attached to order k:
    "k" is the algebraically consistent weight, since the damping order
    enters once from each of the two conjugate Kraus factors at
    (1-eta)^(k/2) apiece; "k/2" evaluates the halved variant so derivations
    that lose one factor can be audited numerically. The "k/2" variant does
    NOT reproduce the Bloch average.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"amplitude damping requires 0 <= eta <= 1, got {eta}")
    if loss_exponent not in ("k", "k/2"):
        raise ValueError(f"loss_exponent must be 'k' or 'k/2', got {loss_exponent!r}")
    words = [np.asarray(w, dtype=complex) for w in words]
    padded = np.zeros((len(words), max((w.size for w in words), default=0)), dtype=complex)
    for row, w in zip(padded, words):
        row[:w.size] = w
    d, size = padded.shape
    Subspace(dim=size, basis=padded)  # ConstraintError unless the words are orthonormal
    log_fact = log_factorials(size)
    total = 0.0
    for k in range(size):
        loss = (1.0 - eta) ** (k if loss_exponent == "k" else k / 2)
        if loss == 0.0:
            break
        m = np.arange(size - k)  # n - k for each level n >= k: b_n = sqrt(C(n,k)) eta^(m/2)
        b = np.exp(0.5 * (log_fact[k:] - log_fact[k] - log_fact[m])) * eta ** (m / 2)
        a = padded[:, :size - k].conj() @ (b * padded[:, k:]).T
        total += loss * (abs(np.trace(a)) ** 2 + np.vdot(a, a).real)
    return float(total) / (d * (d + 1))
