"""Codes: explicit constructions, a seesaw search over qubit codes and level-pair sweeps.

A code is the span of d orthonormal code words, given by their coefficients for
any d. On n chosen Fock levels it is the projector P onto that span. Its
Haar-averaged fidelity, (sum_ij T[i,j,i,j] + sum_ik T[i,i,k,k]) / (d(d+1)) of
its tensor T_K (Horodecki^3, PRA 60, 1888 (1999); Nielsen, quant-ph/0205035),
is a quadratic form in P. With the level process tensor
G[a,b,c,e] = <l_c|Phi(|l_a><l_b|)|l_e> (``fidelity.level_process_tensor``), at d = 2,

    F(P) = sum G[a,b,c,e] (P[a,b] P[e,c] + P[a,c] P[e,b]) / 6
         = vec(P) . K . vec(P^T),   K = (G[ab, ce] + G[ac, be]) / 6,

which is ``fidelity._haar_average`` written in P. Pair sweeps and the search's first
start rank all Fock pairs at once from two level tables, G[a,a,c,c] and G[a,c,a,c].

``optimize_encoding`` maximizes F over qubit codes by the fixed-channel
iteration of Reimpell & Werner, PRL 94, 080501 (2005), quant-ph/0307138:
from the best Fock pair on the levels, then from Haar-random starts, each
plain step replaces P by the projector onto the top two eigenvectors of the
hermitian gradient H of F at P, the code that maximizes F's linearization
there. The code words are complex. F is not concave in general, so each
step's gain is checked rather than assumed.

Near a fixed point a plain step shrinks a mode of coupling c by c / gap,
gap being H's distance from its second to its third eigenvalue; on
amplitude damping near eta = 1 that is close to 1. A shifted step takes the
top two eigenvectors of H - mu P instead, which has the same fixed points,
and shrinks the mode by (c - mu) / (gap - mu). Each start has its own mu >= 0.
It is 0 until the start's gains fall slowly, gain_t / gain_{t-1} in
(SLOW_RATIO, 1). From then on a secant on the slowest mode sets it every
step: with r = sqrt(gain_t / gain_{t-1}) capped at 1 and the shifted
spectrum's second gap d = gap - mu, c = mu + r d (at most gap) and the next
mu is SHIFT_FRACTION c. A shifted step ends no start. One that lowers F by
more than ROUNDOFF is undone, the start keeping its code and H; either way
the next step is plain, so a start converges only on a plain step. Two
levels have no third eigenvalue and never shift.

All starts are drawn up front and run in lockstep as one (R, n, 2) stack: a
step is one stacked ``eigh`` over the starts still running, and LAPACK takes
each matrix of a stack on its own, so every start follows the path it would
follow alone. A start leaves the stack on the step that ends it: when a
plain step raises F by less than SEESAW_TOL (converged), when it lowers F by
more than ROUNDOFF (non-ascent: the start keeps the code before that step),
or after MAX_STEPS steps, undone ones included (step cap). Any number of
levels is searched whose G passes the size guard; K is folded into G's place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import COMPLEX_BYTES, KrausChannel, _check_bytes
from .fidelity import _fock_tables, _haar_average, _moments, average_fidelity_closed
from .fidelity import level_process_tensor
from .subspaces import Subspace
from .tolerances import SPECTRAL_TOL, TIE_TOL

# Seesaw starts of optimize_encoding unless the caller asks for others.
DEFAULT_RESTARTS = 20

# A start has converged once a plain step raises F by less than this.
SEESAW_TOL = 1e-13
# A step that lowers F by more than this is not roundoff: a plain one ends the
# start there, a shifted one is undone.
ROUNDOFF = 1e-14
# Steps allowed per start, undone ones included.
MAX_STEPS = 1000
# A plain start shifts once a gain is more than SLOW_RATIO times the one before
# it, and less. Summed over the search benchmark's jobs (seeds 0-2, 10 rounds)
# the longest starts took 4453, 4694 and 4990 steps at 0.3, 0.5 and 0.7 (14507
# plain) and undid 558, 302 and 79; their seesaw time was equal within noise.
SLOW_RATIO = 0.5
# A shifted start's next mu is SHIFT_FRACTION times the coupling of its slowest
# mode. On the same jobs 0.8, 0.9, 0.95 and 0.98 took 5410, 4694, 4615 and 4537
# steps and undid 88, 302, 558 and 835.
SHIFT_FRACTION = 0.9

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


def _ascent_point(k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F(P), H = C^T + conj(C) and P itself for P = v v^dag, where C[a, b] = dF/dP[a, b].

    ``v`` is one (n, 2) isometry or a stack (..., n, 2) of them; F, H and P keep
    its leading axes. Each product of a stack is the product a lone start
    makes, so a start's values do not depend on the others in its stack. For
    hermitian X, dF(P)[X] = tr(H X) / 2, so H is twice the hermitian gradient
    of F at P.
    """
    *lead, n, _ = v.shape
    p = v @ v.conj().swapaxes(-1, -2)
    vec_p = p.reshape(*lead, n * n)
    vec_pt = p.swapaxes(-1, -2).reshape(*lead, n * n)
    row_p = vec_p[..., np.newaxis, :]
    k_pt = (k @ vec_pt[..., np.newaxis])[..., 0]
    c = k_pt.reshape(*lead, n, n) + (row_p @ k).reshape(*lead, n, n).swapaxes(-1, -2)
    value = (row_p @ k_pt[..., np.newaxis])[..., 0, 0].real
    return value, c.swapaxes(-1, -2) + c.conj(), p


def _seesaw(k: np.ndarray, v: np.ndarray):
    """Ascend F from the codes spanned by the columns of the isometries ``v``, in lockstep.

    ``v`` is a stack (R, n, 2) of starts. Each step takes the top two
    eigenvectors of every running start's H - mu P in one stacked ``eigh``,
    with the start's own shift mu (see the module docstring); a start leaves
    the stack on the step that ends it. Returns the final isometries and, per
    start, the steps it took (undone ones included), how it ended and how
    many of its steps were undone.
    """
    count = len(v)
    ends = v.copy()
    steps, statuses, undone = [MAX_STEPS] * count, [STEP_CAP] * count, [0] * count
    running = np.arange(count)
    value, h, p = _ascent_point(k, v)
    # Per running start: mu for its next step, and its last accepted gain
    # (inf: none since it started or last went plain). As Python floats the
    # rule took about 5 us a step for 4 starts, as arrays about 17. Two levels
    # have no third eigenvalue and never shift.
    shift, last = [0.0] * count, [math.inf] * count
    can_shift = v.shape[1] > 2
    for step in range(MAX_STEPS):
        a = h
        if any(shift):
            mu = np.array(shift)[:, np.newaxis, np.newaxis]
            a = np.where(mu > 0, h - mu * p, h)
        w, vecs = np.linalg.eigh(a)
        nxt = vecs[..., -2:]
        new_value, new_h, new_p = _ascent_point(k, nxt)
        gains, ended = (new_value - value).tolist(), []
        for i in [i for i, gain in enumerate(gains) if gain < SEESAW_TOL]:
            start = running[i]
            if shift[i] > 0:  # a shifted step ends no start; the next one is plain
                if gains[i] < -ROUNDOFF:
                    undone[start] += 1
                    nxt[i], new_value[i], new_h[i], new_p[i] = v[i], value[i], h[i], p[i]
                gains[i], shift[i] = math.inf, 0.0
            elif gains[i] >= -ROUNDOFF:
                ends[start], steps[start], statuses[start] = nxt[i], step + 1, CONVERGED
                ended.append(i)
            else:
                ends[start], steps[start], statuses[start] = v[i], step, NON_ASCENT
                ended.append(i)
        if ended:
            kept = np.ones(len(gains), dtype=bool)
            kept[ended] = False
            running, nxt, new_value, new_h, new_p, w = (
                running[kept], nxt[kept], new_value[kept], new_h[kept], new_p[kept], w[kept])
            gains, last, shift = ([x for x, keep in zip(xs, kept) if keep] for xs in (gains, last, shift))
        v, value, h, p = nxt, new_value, new_h, new_p
        if not running.size:
            break
        if can_shift:
            for i, (g, lst) in enumerate(zip(gains, last)):
                if shift[i] > 0 or SLOW_RATIO * lst < g < lst:
                    r = math.sqrt(min(g / lst, 1.0))
                    shift[i] = SHIFT_FRACTION * (shift[i] + r * (w[i, -2] - w[i, -3]))
        last = gains
    ends[running] = v
    return ends, steps, statuses, undone


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

    steps: int      # seesaw steps taken, undone ones included
    undone: int     # shifted steps undone (see the module docstring)
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
    start is a Haar-random complex isometry on the levels (QR of a complex
    Gaussian) from a generator seeded once with ``seed``, so identical inputs
    give identical results. All starts are drawn up front and run in lockstep;
    each leaves the stack as it ends. Every start's code is scored once by
    ``average_fidelity_closed`` at the channel's full truncation; ties between
    starts resolve to the earliest one. The level tensor G (n^4 complex
    entries, which K then overwrites) and the start stack (H, its
    eigenvectors and P: 3 R n^2 complex entries for R starts, so at most 1365
    starts on 64 levels) go through the size guard before either is built; a
    repeated or out-of-range level raises ValueError (from
    ``level_process_tensor``).
    """
    levels = tuple(levels)
    n = len(levels)
    if n < 2:
        raise ValueError(f"need at least 2 levels, got {n}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    _check_bytes(n**4 * COMPLEX_BYTES, f"a search on {n} levels")
    _check_bytes(3 * restarts * n**2 * COMPLEX_BYTES, f"{restarts} seesaw starts on {n} levels")

    rng = np.random.default_rng(seed)
    # The channel is linear, so its action on the level block is frozen into
    # G once and every candidate code is scored by the quadratic form K.
    g = level_process_tensor(ch, levels)
    pair = _ranked_pairs(*_moments(g))[0]
    warm = np.eye(n, dtype=complex)[:, [pair.k, pair.s]]
    k = _bloch_form(g)
    haar = [np.linalg.qr(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))[0]
            for _ in range(restarts - 1)]

    best_value, best_frame, best_encoding = -np.inf, None, None
    history = []
    for v, steps, status, undone in zip(*_seesaw(k, np.stack([warm, *haar]))):
        frame = _gauge(v)
        encoding = realize_encoding(levels, frame, ch.dim)
        value = average_fidelity_closed(ch, encoding).value
        history.append(StartRecord(steps=steps, undone=undone, status=status, fidelity=value))
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
    """Average fidelity of every Fock-pair encoding span{|k>, |s>}, k < s <= max_level, from
    the tables of levels 0..max_level; best first, ties broken lexicographically on (k, s)."""
    if not 0 < max_level < ch.dim:
        raise ValueError(f"max_level must be in (0, {ch.dim}), got {max_level}")
    return _ranked_pairs(*_fock_tables(ch, max_level + 1))


def _ranked_pairs(populations: np.ndarray, coherences: np.ndarray) -> list[PairFidelity]:
    """All level pairs k < s, scored by one ``_haar_average`` of their 2 x 2 blocks."""
    k, s = np.triu_indices(len(populations), 1)
    pair = np.stack([k, s], axis=1)
    block = pair[:, :, np.newaxis], pair[:, np.newaxis]
    values = _haar_average(populations[block], coherences[block])
    return [PairFidelity(int(k[r]), int(s[r]), values[r]) for r in np.lexsort((s, k, -values))]


def leading_ties(rows: list[PairFidelity]) -> list[PairFidelity]:
    """All rows within TIE_TOL of the best one (degenerate optima surface here)."""
    return [r for r in rows if rows[0].value - r.value <= TIE_TOL]
