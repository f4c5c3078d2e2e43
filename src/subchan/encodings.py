"""Codes: explicit constructions, a seesaw search over qubit codes and level-pair sweeps.

A code is the span of d orthonormal code words, given by their coefficients for
any d. On n chosen Fock levels it is the projector P onto that span. Its
Haar-averaged fidelity, (sum_ij T[i,j,i,j] + sum_ik T[i,i,k,k]) / (d(d+1)) of
its tensor T_K (Horodecki^3, PRA 60, 1888 (1999); Nielsen, quant-ph/0205035),
is a quadratic form in P. With the level process tensor
G[a,b,c,e] = <l_c|Phi(|l_a><l_b|)|l_e>, at d = 2,

    F(P) = sum G[a,b,c,e] (P[a,b] P[e,c] + P[a,c] P[e,b]) / 6
         = vec(P) . K . vec(P^T),   K = (G[ab, ce] + G[ac, be]) / 6,

which is ``fidelity.contract_haar_moments`` written in P.

``optimize_encoding`` maximizes F over qubit codes by the fixed-channel
iteration of Reimpell & Werner, PRL 94, 080501 (2005), quant-ph/0307138:
from the best Fock pair on the levels, then from Haar-random starts, each
step replaces P by the projector onto the top two eigenvectors of the
hermitian gradient of F at P, the code that maximizes F's linearization
there. The code words are complex. F is not concave in general, so each
step's gain is checked rather than assumed. A start ends when a step raises
F by less than SEESAW_TOL (converged), when a step lowers F by more than
ROUNDOFF (non-ascent: the start keeps the code before that step), or after
MAX_STEPS steps (step cap). Any number of levels is searched whose G passes
the size guard; K is folded into G's place.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channels import COMPLEX_BYTES, KrausChannel, _check_bytes, apply_channel
from .fidelity import average_fidelity_closed, contract_haar_moments, level_process_tensor
from .fock import basis_operator
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


def __getattr__(name: str):
    # The seesaw calls no optimizer. The benchmark tracer (bench/tracing.py) is
    # the only reader of ``minimize`` and patches it; until ROADMAP item 1 drops
    # that, it is imported on first access so that importing subchan loads no scipy.
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def encoding_from_coefficients(*rows, dim: int, label: str = "custom") -> Subspace:
    """The code whose code words have the coefficient lists ``rows``, zero-padded to ``dim``.

    Any number d of rows (their padded basis is size-guarded); Subspace refuses
    rows that are not orthonormal.
    """
    if any(np.size(row) > dim for row in rows):
        raise ValueError(f"coefficient lists longer than dim={dim}")
    _check_bytes(len(rows) * dim * COMPLEX_BYTES, f"{len(rows)} code words at dim {dim}")
    basis = np.zeros((len(rows), dim), dtype=complex)
    for word, row in zip(basis, rows):
        word[:np.size(row)] = row
    return Subspace(dim=dim, basis=basis, label=label)


def three_level_encoding(
    alpha: float, beta: float, gamma: float, delta: float, dim: int = 3
) -> Subspace:
    """Real-amplitude qubit frame on the three lowest levels.

    |psi_0> = sin(a) cos(b)|0> + sin(a) sin(b)|1> + cos(a)|2> and likewise
    |psi_1> with (gamma, delta). The two frames must satisfy

        sin(a) cos(b) sin(g) cos(d) + sin(a) sin(b) sin(g) sin(d)
        + cos(a) cos(g) = 0

    to 1e-10, else Subspace raises a ConstraintError carrying the residual.
    ValueError for dim < 3.
    """
    return encoding_from_coefficients(
        [np.sin(alpha) * np.cos(beta), np.sin(alpha) * np.sin(beta), np.cos(alpha)],
        [np.sin(gamma) * np.cos(delta), np.sin(gamma) * np.sin(delta), np.cos(gamma)],
        dim=dim, label="three-level")


def realize_encoding(levels, frame, dim: int) -> Subspace:
    """The code whose d code words are the rows of ``frame`` on ``levels``.

    ``frame`` is (d, len(levels)): row i holds code word i's coefficients on
    the levels, in the order given. Subspace checks that they are orthonormal,
    and ``Subspace.from_levels`` the levels.
    """
    levels = list(levels)
    frame = np.asarray(frame, dtype=complex)
    if frame.ndim != 2 or frame.shape[1] != len(levels):
        raise ValueError(f"expected a (d, {len(levels)}) frame, got shape {frame.shape}")
    basis = frame @ Subspace.from_levels(levels, dim).basis
    return Subspace(dim=dim, basis=basis, label="code on levels " + ",".join(map(str, levels)))


def _bloch_form(g: np.ndarray) -> np.ndarray:
    """K with F(P) = vec(P) . K . vec(P^T) for a code projector P on G's levels, written
    over G: K[a,b,c,e] = (G[a,b,c,e] + G[a,c,b,e]) / 6 is symmetric in b, c."""
    n = g.shape[0]
    for b in range(n):  # the slice pairs (b, c) and (c, b) for c >= b
        pair = g[:, b, b:] + g[:, b:, b]
        pair /= 6
        g[:, b, b:] = g[:, b:, b] = pair
    return g.reshape(n * n, n * n)


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


@dataclass(frozen=True, eq=False)
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

    The first start is the Fock pair on the levels that scores best on G
    (ties to the pair first in the order the levels are given). Each other
    start draws a Haar-random complex isometry on the levels (QR of a
    complex Gaussian) from a generator seeded once with ``seed``, so
    identical inputs give identical results. Every start's code is scored
    once by ``average_fidelity_closed`` at the channel's full truncation;
    ties between starts resolve to the earliest one. The level tensor G
    (n^4 complex entries, which K then overwrites) goes through the size
    guard before it is built; a repeated or out-of-range level raises
    ValueError (from ``level_process_tensor``).
    """
    levels = tuple(levels)
    n = len(levels)
    if n < 2:
        raise ValueError(f"need at least 2 levels, got {n}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    _check_bytes(n**4 * COMPLEX_BYTES, f"a search on {n} levels")

    rng = np.random.default_rng(seed)
    # The channel is linear, so its action on the level block is frozen into
    # G once and every candidate code is scored by the quadratic form K.
    g = level_process_tensor(ch, levels)
    pair = _ranked_pairs(np.einsum("aacc->ac", g), np.einsum("abab->ab", g))[0]
    warm = np.eye(n, dtype=complex)[:, [pair.k, pair.s]]
    k = _bloch_form(g)

    best_value, best_frame, best_encoding = -np.inf, None, None
    history = []
    for restart in range(restarts):
        start = warm if restart == 0 else np.linalg.qr(
            rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))[0]
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

    def __post_init__(self):
        if not -SPECTRAL_TOL <= self.value <= 1.0 + SPECTRAL_TOL:
            raise ValueError(f"fidelity {self.value} outside [0, 1]")


def contiguous_pair_sweep(ch: KrausChannel, max_level: int) -> list[PairFidelity]:
    """Average fidelity of every Fock-pair encoding span{|k>, |s>}, k < s <= max_level.

    One image Phi(|a><b|) per a, b <= max_level; each pair contracts its 2 x 2
    blocks of the populations T[a,a,c,c] = Phi(|a><a|)[c,c] and coherences
    T[a,b,a,b] = Phi(|a><b|)[a,b], O(max_level^2) memory. Sorted by descending
    fidelity, ties broken lexicographically on (k, s).
    """
    if not 0 < max_level < ch.dim:
        raise ValueError(f"max_level must be in (0, {ch.dim}), got {max_level}")
    n = max_level + 1
    populations, coherences = np.empty((2, n, n), dtype=complex)
    for a, b in np.ndindex(n, n):
        image = apply_channel(ch, basis_operator(a, b, ch.dim))
        if a == b:
            populations[a] = image.diagonal()[:n]
        coherences[a, b] = image[a, b]
    return _ranked_pairs(populations, coherences)


def _ranked_pairs(populations: np.ndarray, coherences: np.ndarray) -> list[PairFidelity]:
    """Every pair k < s of indices scored from the 2 x 2 blocks of T_K's populations
    T[a,a,c,c] and coherences T[a,b,a,b], best first, ties lexicographic on (k, s)."""
    rows = []
    for k, s in itertools.combinations(range(populations.shape[0]), 2):
        pair = np.ix_([k, s], [k, s])
        value = contract_haar_moments(populations[pair], coherences[pair])
        rows.append(PairFidelity(k=k, s=s, value=value))
    return sorted(rows, key=lambda r: (-r.value, r.k, r.s))


def leading_ties(rows: list[PairFidelity]) -> list[PairFidelity]:
    """All rows within TIE_TOL of the best one (degenerate optima surface here)."""
    return [r for r in rows if rows[0].value - r.value <= TIE_TOL]
