"""Qubit encodings: explicit constructions, a seesaw search and level-pair sweeps.

A qubit code on n chosen Fock levels is the projector P onto the span of its
two code words, and its Bloch-averaged fidelity is a quadratic form in P
(Horodecki, Horodecki & Horodecki, PRA 60, 1888 (1999)). With the level
process tensor G[a,b,c,e] = <l_c|Phi(|l_a><l_b|)|l_e>,

    F(P) = sum G[a,b,c,e] (P[a,b] P[e,c] + P[a,c] P[e,b]) / 6
         = vec(P) . K . vec(P^T),   K = (G[ab, ce] + G[ac, be]) / 6,

which is the moment contraction of ``fidelity.contract_bloch_moments``
written in P.

``optimize_encoding`` maximizes F by the fixed-channel iteration of Reimpell
& Werner, PRL 94, 080501 (2005), quant-ph/0307138: from a Haar-random start,
each step replaces P by the projector onto the top two eigenvectors of the
hermitian gradient of F at P, the code that maximizes F's linearization
there. The code words are complex. F is not concave in general, so each
step's gain is checked rather than assumed. A start ends when a step raises F
by less than SEESAW_TOL (converged), when a step lowers F by more than
ROUNDOFF (non-ascent: the start keeps the code before that step), or after
MAX_STEPS steps (step cap). Any number of levels is searched whose G and K
fit MAX_KRAUS_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# Unused here; bench/tracing.py patches this name until ROADMAP item 1 drops it.
from scipy.optimize import minimize  # noqa: F401

from .channels import COMPLEX_BYTES, MAX_KRAUS_BYTES, KrausChannel
from .errors import ConstraintError, ResourceLimitError
from .fidelity import average_fidelity_closed, level_process_tensor
from .subspaces import Subspace
from .tolerances import SPECTRAL_TOL, TIE_TOL

# Seesaw starts of optimize_encoding unless the caller asks for others.
DEFAULT_RESTARTS = 20

# A start has converged once a step raises F by less than this.
SEESAW_TOL = 1e-13
# A step that lowers F by more than this is not roundoff: the start stops there.
ROUNDOFF = 1e-14
# Steps allowed per start.
MAX_STEPS = 1000

# How a start ended (StartRecord.status).
CONVERGED, STEP_CAP, NON_ASCENT = "converged", "step cap", "non-ascent"


def encoding_from_coefficients(c, d, dim: int, label: str = "custom") -> Subspace:
    """Qubit subspace from explicit coefficient lists of |psi_0> and |psi_1>.

    Both lists must be unit-norm and mutually orthogonal (sum conj(c_n) d_n
    = 0) to 1e-10; shorter lists are zero-padded to ``dim``.
    """
    c = np.asarray(c, dtype=complex)
    d = np.asarray(d, dtype=complex)
    if c.size > dim or d.size > dim:
        raise ValueError(f"coefficient lists longer than dim={dim}")
    c = np.pad(c, (0, dim - c.size))
    d = np.pad(d, (0, dim - d.size))
    for name, v in (("psi0", c), ("psi1", d)):
        defect = abs(float(np.sum(np.abs(v) ** 2)) - 1.0)
        if not defect <= SPECTRAL_TOL:  # NaN fails too
            raise ConstraintError(
                f"{name} norm defect {defect:.3e} exceeds {SPECTRAL_TOL:.0e}",
                residual=defect,
            )
    overlap = abs(complex(np.vdot(c, d)))
    if not overlap <= SPECTRAL_TOL:
        raise ConstraintError(
            f"overlap |<psi0|psi1>| = {overlap:.3e} exceeds {SPECTRAL_TOL:.0e}",
            residual=overlap,
        )
    return Subspace(dim=dim, basis=np.stack([c, d]), label=label)


def three_level_encoding(
    alpha: float, beta: float, gamma: float, delta: float, dim: int = 3
) -> Subspace:
    """Real-amplitude qubit frame on the three lowest levels.

    |psi_0> = sin(a) cos(b)|0> + sin(a) sin(b)|1> + cos(a)|2> and likewise
    |psi_1> with (gamma, delta). The two frames must satisfy

        sin(a) cos(b) sin(g) cos(d) + sin(a) sin(b) sin(g) sin(d)
        + cos(a) cos(g) = 0

    to 1e-10, else a ConstraintError carrying the residual is raised.
    """
    if dim < 3:
        raise ValueError(f"need dim >= 3, got {dim}")
    psi0 = np.zeros(dim, dtype=complex)
    psi1 = np.zeros(dim, dtype=complex)
    psi0[:3] = [np.sin(alpha) * np.cos(beta), np.sin(alpha) * np.sin(beta), np.cos(alpha)]
    psi1[:3] = [np.sin(gamma) * np.cos(delta), np.sin(gamma) * np.sin(delta), np.cos(gamma)]
    residual = abs(float(np.real(np.vdot(psi0, psi1))))
    if not residual <= SPECTRAL_TOL:  # NaN fails too
        raise ConstraintError(
            f"orthogonality residual {residual:.3e} exceeds {SPECTRAL_TOL:.0e}",
            residual=residual,
        )
    return Subspace(dim=dim, basis=np.stack([psi0, psi1]), label="three-level")


def realize_encoding(levels, frame, dim: int) -> Subspace:
    """The encoding whose two code words are the rows of ``frame`` on ``levels``.

    ``frame`` is (2, len(levels)): row i holds code word i's coefficients on
    the levels, in the order given. The rows must be orthonormal (checked by
    Subspace).
    """
    levels = tuple(levels)
    if any(not 0 <= level < dim for level in levels):
        raise ValueError(f"levels {levels} outside [0, {dim})")
    frame = np.asarray(frame, dtype=complex)
    if frame.shape != (2, len(levels)):
        raise ValueError(f"expected a (2, {len(levels)}) frame, got shape {frame.shape}")
    basis = np.zeros((2, dim), dtype=complex)
    basis[:, list(levels)] = frame
    return Subspace(dim=dim, basis=basis, label="code on levels " + ",".join(map(str, levels)))


def _bloch_form(g: np.ndarray) -> np.ndarray:
    """K with F(P) = vec(P) . K . vec(P^T) for a code projector P on G's levels."""
    n2 = g.shape[0] ** 2
    return (g.reshape(n2, n2) + g.transpose(0, 2, 1, 3).reshape(n2, n2)) / 6


def _ascent_point(k: np.ndarray, v: np.ndarray) -> tuple[float, np.ndarray]:
    """F(P) and H = C^T + conj(C) for P = v v^dag, where C[a, b] = dF/dP[a, b].

    For hermitian X, dF(P)[X] = tr(H X) / 2, so H is twice the hermitian
    gradient of F at P.
    """
    n = v.shape[0]
    p = v @ v.conj().T
    vec_p, vec_pt = p.ravel(), p.T.ravel()
    k_pt = k @ vec_pt
    c = k_pt.reshape(n, n) + (vec_p @ k).reshape(n, n).T
    return float((vec_p @ k_pt).real), c.T + c.conj()


def _seesaw(k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, int, str]:
    """Ascend F from the code spanned by the columns of the isometry ``v``.

    Each step takes the top two eigenvectors of H at the current code.
    Returns the final isometry, the steps accepted and how the start ended.
    """
    value, h = _ascent_point(k, v)
    for step in range(MAX_STEPS):
        nxt = np.linalg.eigh(h)[1][:, -2:]
        new_value, new_h = _ascent_point(k, nxt)
        if new_value < value - ROUNDOFF:
            return v, step, NON_ASCENT
        gain = new_value - value
        v, value, h = nxt, new_value, new_h
        if gain < SEESAW_TOL:
            return v, step + 1, CONVERGED
    return v, MAX_STEPS, STEP_CAP


def _gauge(v: np.ndarray) -> np.ndarray:
    """The code spanned by the columns of ``v`` as a (2, n) frame in a fixed gauge.

    Word 1 is the code word that vanishes on the lowest level the code
    reaches (beyond SPECTRAL_TOL); word 0 is the code's projection of that
    level. Each is normalized with a real positive coefficient on its
    leading level, so a span of Fock levels comes out as unit vectors.
    """
    lead = v[np.flatnonzero(np.linalg.norm(v, axis=1) > SPECTRAL_TOL)[0]]
    u = lead.conj() / np.linalg.norm(lead)
    words = (v @ np.array([[u[0], -u[1].conj()], [u[1], u[0].conj()]])).T
    first = words[1][np.flatnonzero(np.abs(words[1]) > SPECTRAL_TOL)[0]]
    words[1] *= abs(first) / first
    return words


@dataclass(frozen=True)
class StartRecord:
    """How one seesaw start ended."""

    steps: int      # seesaw steps accepted
    status: str     # CONVERGED | STEP_CAP | NON_ASCENT
    fidelity: float  # average_fidelity_closed of the code it ended on


@dataclass(frozen=True)
class OptimizationResult:
    best_fidelity: float
    best_params: np.ndarray  # (2, n) frame of the best code, as realize_encoding takes it
    best_encoding: Subspace
    restarts_run: int
    history: list[StartRecord]  # one per start, in order


def optimize_encoding(
    ch: KrausChannel,
    levels,
    restarts: int = DEFAULT_RESTARTS,
    seed: int | None = None,
) -> OptimizationResult:
    """Multi-start seesaw maximization of the average fidelity over qubit codes on ``levels``.

    Each start draws a Haar-random complex isometry on the levels (QR of a
    complex Gaussian) from a generator seeded once with ``seed``, so
    identical inputs give identical results. Every start's code is scored
    once by ``average_fidelity_closed`` at the channel's full truncation;
    ties between starts resolve to the earliest one. Raises
    ResourceLimitError before allocating when the level tensor G and the
    form K (2 n^4 complex entries) exceed MAX_KRAUS_BYTES.
    """
    levels = tuple(levels)
    n = len(levels)
    if n < 2:
        raise ValueError(f"need at least 2 levels, got {n}")
    if len(set(levels)) != n:
        raise ValueError(f"levels must be distinct, got {levels}")
    if any(not 0 <= level < ch.dim for level in levels):
        raise ValueError(f"levels {levels} outside channel dim {ch.dim}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    nbytes = 2 * n**4 * COMPLEX_BYTES
    if nbytes > MAX_KRAUS_BYTES:
        raise ResourceLimitError(
            f"a search on {n} levels needs {nbytes / 1e9:.2f} GB for its level tensor; "
            f"limit is {MAX_KRAUS_BYTES / 1e9:.2f} GB. Use fewer levels."
        )

    rng = np.random.default_rng(seed)
    # The channel is linear, so its action on the level block is frozen into
    # G once and every candidate code is scored by the quadratic form K.
    k = _bloch_form(level_process_tensor(ch, levels))

    best_value, best_frame, best_encoding = -np.inf, None, None
    history = []
    for _ in range(restarts):
        start = np.linalg.qr(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))[0]
        v, steps, status = _seesaw(k, start)
        frame = _gauge(v)
        encoding = realize_encoding(levels, frame, ch.dim)
        value = average_fidelity_closed(ch, encoding).value
        history.append(StartRecord(steps=steps, status=status, fidelity=value))
        if value > best_value:
            best_value, best_frame, best_encoding = value, frame, encoding

    return OptimizationResult(
        best_fidelity=best_value,
        best_params=best_frame,
        best_encoding=best_encoding,
        restarts_run=restarts,
        history=history,
    )


# ---------------------------------------------------------------------------
# Level-pair sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairFidelity:
    k: int
    s: int
    value: float


def contiguous_pair_sweep(ch: KrausChannel, max_level: int) -> list[PairFidelity]:
    """Average fidelity of every Fock-pair encoding span{|k>, |s>}, k < s <= max_level.

    Sorted by descending fidelity, ties broken lexicographically on (k, s).
    """
    if not 0 < max_level < ch.dim:
        raise ValueError(f"max_level must be in (0, {ch.dim}), got {max_level}")
    rows = []
    for k in range(max_level + 1):
        for s in range(k + 1, max_level + 1):
            sub = Subspace.from_levels([k, s], ch.dim)
            rows.append(PairFidelity(k=k, s=s, value=average_fidelity_closed(ch, sub).value))
    return sorted(rows, key=lambda r: (-r.value, r.k, r.s))


def leading_ties(rows: list[PairFidelity]) -> list[PairFidelity]:
    """All rows within TIE_TOL of the best one (degenerate optima surface here)."""
    if not rows:
        return []
    top = rows[0].value
    return [r for r in rows if top - r.value <= TIE_TOL]
