"""Parametrized qubit encodings and derivative-free fidelity maximization.

The search ansatz places two real-amplitude orthonormal frames on a chosen
set of n Fock levels. The first, u, is a point on the unit sphere given by
n - 1 hyperspherical angles. The second is a unit vector orthogonal to e_0
(n - 2 more angles) carried onto the complement of u by the Householder
reflection that maps e_0 to -sign(u_0) u, so every parameter vector is a
feasible encoding: 2n - 3 parameters, with no penalty and no projection.
All-zero parameters give span{|0>, |1>} on the first two levels. Relative
phases are off by default (the amplitude-damping objective is invariant
under them); enabling them multiplies both frames by diag(1, e^{i phi_1},
..., e^{i phi_{n-1}}), which keeps them orthonormal, at 3n - 4 parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .channels import KrausChannel
from .errors import ConstraintError
from .fidelity import (
    average_fidelity_closed,
    average_fidelity_from_frames,
    level_process_tensor,
)
from .subspaces import Subspace
from .tolerances import SPECTRAL_TOL

# Simplex search defaults, frozen here.
INITIAL_SIMPLEX_SCALE = 0.3  # radians added per vertex
CONVERGENCE_FTOL = 1e-10     # simplex collapses when the fidelity spread is below this
CONVERGENCE_XTOL = 1e-8
MAX_EVALUATIONS = 2000


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
        if defect > SPECTRAL_TOL:
            raise ConstraintError(
                f"{name} norm defect {defect:.3e} exceeds {SPECTRAL_TOL:.0e}",
                residual=defect,
            )
    overlap = abs(complex(np.vdot(c, d)))
    if overlap > SPECTRAL_TOL:
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
    if residual > SPECTRAL_TOL:
        raise ConstraintError(
            f"orthogonality residual {residual:.3e} exceeds {SPECTRAL_TOL:.0e}",
            residual=residual,
        )
    return Subspace(dim=dim, basis=np.stack([psi0, psi1]), label="three-level")


def hypersphere_point(angles: np.ndarray) -> np.ndarray:
    """Real unit vector of length len(angles) + 1 from hyperspherical angles."""
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    n = angles.size + 1
    vec = np.ones(n)
    sines = 1.0
    for j, a in enumerate(angles):
        vec[j] = sines * np.cos(a)
        sines *= np.sin(a)
    vec[n - 1] = sines
    return vec


def n_ansatz_params(n_levels: int, allow_phases: bool = False) -> int:
    base = 2 * n_levels - 3
    return base + (n_levels - 1 if allow_phases else 0)


def _frames(params: np.ndarray, n: int, allow_phases: bool) -> np.ndarray:
    """Orthonormal (2, n) frame pair for a parameter vector.

    u comes from the first n - 1 angles. The Householder reflection
    H_u = I - 2 w w^T / (w^T w), w = u + sign(u_0) e_0, maps e_0 to -sign(u_0) u,
    so it carries the unit vectors orthogonal to e_0 (the next n - 2 angles)
    onto the complement of u; w^T w >= 2 keeps it well defined. Optional
    phases multiply both frames by the unitary diag(1, e^{i phi_1}, ...).
    """
    u = hypersphere_point(params[: n - 1])
    x = np.concatenate([[0.0], hypersphere_point(params[n - 1 : 2 * n - 3])])
    w = u.copy()
    w[0] += np.copysign(1.0, u[0])
    frames = np.stack([u, x - (2.0 * (w @ x) / (w @ w)) * w]).astype(complex)
    if allow_phases:
        frames *= np.exp(1j * np.concatenate([[0.0], params[2 * n - 3 :]]))
    return frames


def realize_encoding(levels, params, dim: int, allow_phases: bool = False) -> Subspace:
    """The orthonormal encoding a parameter vector places on ``levels``."""
    levels = tuple(levels)
    n = len(levels)
    if any(not 0 <= level < dim for level in levels):
        raise ValueError(f"levels {levels} outside [0, {dim})")
    params = np.asarray(params, dtype=float)
    if params.size != n_ansatz_params(n, allow_phases):
        raise ValueError(
            f"expected {n_ansatz_params(n, allow_phases)} parameters, got {params.size}"
        )
    frames = _frames(params, n, allow_phases)
    basis = np.zeros((2, dim), dtype=complex)
    for col, level in enumerate(levels):
        basis[:, level] = frames[:, col]
    label = "ansatz levels " + ",".join(map(str, levels))
    return Subspace(dim=dim, basis=basis, label=label)


@dataclass(frozen=True)
class OptimizationResult:
    best_fidelity: float
    best_params: np.ndarray
    best_encoding: Subspace
    restarts_run: int
    history: list  # one (params, fidelity) entry per restart


def optimize_encoding(
    ch: KrausChannel,
    levels,
    restarts: int = 20,
    seed: int | None = None,
    *,
    allow_phases: bool = False,
) -> OptimizationResult:
    """Multi-start Nelder-Mead maximization of the average fidelity.

    Each restart draws uniform-random starting angles from a generator
    seeded once with ``seed``, so identical inputs give identical results;
    ties between restarts resolve to the earliest one.
    """
    levels = tuple(levels)
    if not 2 <= len(levels) <= 6:
        raise ValueError(f"need between 2 and 6 levels, got {len(levels)}")
    if len(set(levels)) != len(levels):
        raise ValueError(f"levels must be distinct, got {levels}")
    if any(not 0 <= level < ch.dim for level in levels):
        raise ValueError(f"levels {levels} outside channel dim {ch.dim}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")

    n_params = n_ansatz_params(len(levels), allow_phases)
    rng = np.random.default_rng(seed)
    # The channel is linear, so its action on the level block can be frozen
    # into a small tensor once and every candidate scored by contraction.
    process = level_process_tensor(ch, levels)

    def objective(p: np.ndarray) -> float:
        return -average_fidelity_from_frames(process, _frames(p, len(levels), allow_phases))

    best_value, best_params, best_encoding = -np.inf, None, None
    history = []
    for _ in range(restarts):
        x0 = rng.uniform(0.0, np.pi, size=n_params)
        simplex = np.vstack([x0] + [x0 + INITIAL_SIMPLEX_SCALE * e
                                    for e in np.eye(n_params)])
        result = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": MAX_EVALUATIONS,
                "fatol": CONVERGENCE_FTOL,
                "xatol": CONVERGENCE_XTOL,
                "initial_simplex": simplex,
            },
        )
        encoding = realize_encoding(levels, result.x, ch.dim, allow_phases)
        value = average_fidelity_closed(ch, encoding).value
        history.append((np.array(result.x), value))
        if value > best_value:
            best_value, best_params, best_encoding = value, np.array(result.x), encoding

    return OptimizationResult(
        best_fidelity=best_value,
        best_params=best_params,
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


def leading_ties(rows: list[PairFidelity], tol: float = 1e-9) -> list[PairFidelity]:
    """All rows within ``tol`` of the best one (degenerate optima surface here)."""
    if not rows:
        return []
    top = rows[0].value
    return [r for r in rows if top - r.value <= tol]
