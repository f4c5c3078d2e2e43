"""Subspaces of the truncated Fock space and the compression of a channel onto them.

A ``Subspace`` is an ordered orthonormal set of d vectors spanning K, with
projector P = sum_j |b_j><b_j|. Restricting a channel to K gives the
completely positive map x -> P Phi(x) P. ``restrict`` holds it as one tensor,
T_K[i,j,k,l] = <b_k|Phi(|b_i><b_j|)|b_l>, built from d^2 images for d <= 64.
The Haar-averaged fidelity, a dense channel's level tensor, the restricted
map and two distinct properties of it, kept apart on purpose, are read from T_K:

* trace preservation: the restriction preserves trace for every input on K
  exactly when P Phi*(P) P = P, i.e. (sum_k T_K[:,:,k,k])^T = I_d;
* unitality: the restriction fixes the maximally mixed state P/d exactly
  when P Phi(P) P = P, i.e. sum_i T_K[i,i,:,:] = I_d.

A restriction can be trace-preserving without being unital (amplitude
damping on the two lowest levels is the canonical case), so reports carry
both defects.

Membership of K's state set in an invariant hull is probed on the operator
span of the |b_i><b_j| basis; by linearity that is equivalent to probing
every state supported on K. The probe images are those that build T_K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import COMPLEX_BYTES, KrausChannel, _check_bytes, _coherence_blocks, apply_channel
from .errors import ConstraintError, DimensionMismatchError, SupportError
from .fock import coherent_state, fock_state, hs_norm, operator_norm, outer
from .tolerances import (
    FIXED_POINT_TOL,
    HULL_TOL,
    HULL_TP_PRECONDITION,
    SPECTRAL_TOL,
    UNITALITY_TOL,
)


@dataclass(frozen=True, eq=False)
class Subspace:
    """Orthonormal basis (rows of ``basis``) for a d-dimensional subspace; more rows than
    ``dim``, or rows whose Gram matrix (size-guarded) is off I by more than SPECTRAL_TOL
    (or NaN), raise ConstraintError."""

    dim: int
    basis: np.ndarray  # shape (d, dim)
    label: str = "custom"

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=complex))
        if basis.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"basis vectors have length {basis.shape[1]}, expected {self.dim}"
            )
        d = basis.shape[0]
        if d == 0:
            raise ValueError("a subspace needs at least one basis vector")
        if d > self.dim:
            raise ConstraintError(f"{d} code words cannot be orthonormal in dim {self.dim}")
        _check_bytes((d * self.dim + d * d) * COMPLEX_BYTES,
                     f"the Gram matrix of {d} code words at dim {self.dim}")
        gram = basis @ basis.conj().T
        gram.reshape(-1)[::d + 1] -= 1.0
        defect = float(np.max(np.abs(gram)))
        if not defect <= SPECTRAL_TOL:  # NaN fails too
            raise ConstraintError(f"basis is not orthonormal (Gram defect {defect:.3e})",
                                  residual=defect)
        basis = basis.copy()
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def d(self) -> int:
        return int(self.basis.shape[0])

    @classmethod
    def from_levels(cls, levels, dim: int) -> "Subspace":
        """Span of the number states |k> for k in ``levels``."""
        levels = _fock_levels(levels, dim)
        basis = np.stack([fock_state(k, dim) for k in levels])
        return cls(dim=dim, basis=basis, label="levels " + ",".join(map(str, levels)))


def _fock_levels(levels, dim: int) -> list[int]:
    """``levels`` as a list; ValueError when it is empty, repeats a level or leaves [0, dim)."""
    levels = list(levels)
    if not levels:
        raise ValueError("the level list is empty; need at least one level")
    if len(set(levels)) != len(levels):
        raise ValueError(f"levels must be distinct, got {levels}")
    for k in levels:
        if not 0 <= k < dim:
            raise ValueError(f"level index k={k} out of range for dim={dim}")
    return levels


def cat_state_subspace(alpha: complex, dim: int) -> Subspace:
    """Qubit subspace spanned by the even and odd cat states of amplitude alpha.

    The unnormalized combinations |alpha> +- |-alpha> occupy disjoint (even
    vs odd) number levels, so they stay exactly orthogonal under truncation;
    only their norms need fixing. Raises ValueError where the odd one is
    zero (alpha = 0, or dim = 1).
    """
    plus_amps, _ = coherent_state(alpha, dim)
    minus_amps, _ = coherent_state(-alpha, dim)
    even = plus_amps + minus_amps
    odd = plus_amps - minus_amps
    if not np.any(odd):
        raise ValueError(f"the odd cat state vanishes at alpha={alpha}, dim={dim}")
    even = even / np.linalg.norm(even)
    odd = odd / np.linalg.norm(odd)
    return Subspace(dim=dim, basis=np.stack([even, odd]), label=f"cat alpha={alpha}")


def projector(subspace: Subspace) -> np.ndarray:
    """P = sum_j |b_j><b_j|: hermitian, idempotent, trace d."""
    b = subspace.basis
    return b.T @ b.conj()


def subspace_overlap(a: Subspace, b: Subspace) -> float:
    """tr(P_a P_b) / d in [0, 1]; equals 1 exactly when the spans coincide."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"ambient dims differ: {a.dim} vs {b.dim}")
    if a.d != b.d:
        raise ValueError(f"subspace dims differ: {a.d} vs {b.d}")
    cross = a.basis.conj() @ b.basis.T
    return float(np.sum(np.linalg.svd(cross, compute_uv=False) ** 2) / a.d)


# ---------------------------------------------------------------------------
# Restriction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RestrictedChannel:
    """x -> P Phi(x) P on K, held as T_K[i,j,k,l] = <b_k|Phi(|b_i><b_j|)|b_l>."""

    subspace: Subspace
    tensor: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """P Phi(x) P = V (sum_ij c_ij T[i,j]) V^dag with c = V^dag x V, which holds
        for x = P x P; SupportError when x holds NaN or inf (checked before any product
        or SVD), or when ||x - P x P|| exceeds SPECTRAL_TOL."""
        x = np.asarray(x, dtype=complex)
        dim = self.subspace.dim
        if x.shape != (dim, dim):
            raise DimensionMismatchError(f"operator shape {x.shape} does not match dim {dim}")
        if not np.isfinite(x).all():
            raise SupportError("input holds a NaN or inf entry")
        basis = self.subspace.basis
        c = basis.conj() @ x @ basis.T
        off = operator_norm(x - basis.T @ c @ basis.conj())
        if not off <= SPECTRAL_TOL:  # NaN fails too
            raise SupportError(f"input has weight {off:.3e} outside the block P x P "
                               f"(tol {SPECTRAL_TOL:.0e})")
        return basis.T @ np.tensordot(c, self.tensor, axes=2) @ basis.conj()


def restrict(ch: KrausChannel, subspace: Subspace) -> RestrictedChannel:
    """The compression onto ``subspace``, from the d^2 images Phi(|b_i><b_j|). Before
    applying ``ch``, raises DimensionMismatchError when the ambient dims differ, and
    T_K's d^4 complex entries go through the size guard (d <= 64)."""
    return _restrict(ch, subspace, lambda image, fold: None)


def _restrict(ch: KrausChannel, subspace: Subspace, visit) -> RestrictedChannel:
    """``restrict``, handing each image Phi(|b_i><b_j|) and its fold T_K[i, j] to ``visit``."""
    if ch.dim != subspace.dim:
        raise DimensionMismatchError(
            f"channel dim {ch.dim} does not match subspace ambient dim {subspace.dim}"
        )
    d = subspace.d
    _check_bytes(d**4 * COMPLEX_BYTES, f"the restriction to a {d}-dimensional subspace")
    basis = subspace.basis
    t = np.zeros((d, d, d, d), dtype=complex)
    for i, j in np.ndindex(d, d):
        image = apply_channel(ch, outer(basis[i], basis[j]))
        t[i, j] = basis.conj() @ image @ basis.T
        visit(image, t[i, j])
    return RestrictedChannel(subspace=subspace, tensor=t)


# ---------------------------------------------------------------------------
# Unitality / trace preservation of the restriction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitalityReport:
    """Both defects of the restricted map, in operator norm.

    ``trace_defect`` is ||P Phi*(P) P - P||: zero iff the restriction is
    trace-preserving on K. ``unital_defect`` is ||P Phi(P) P - P||: zero iff
    the restriction fixes the maximally mixed state on K. At K = full space
    the former reduces to the channel's trace-preservation defect and the
    latter to ordinary unitality.
    """

    trace_defect: float
    is_trace_preserving: bool
    unital_defect: float
    is_unital: bool


def unitality_check(ch: KrausChannel, subspace: Subspace) -> UnitalityReport:
    """Both defects of the restriction to ``subspace``, read from T_K, judged at UNITALITY_TOL."""
    return _unitality(restrict(ch, subspace).tensor)


def _unitality(t: np.ndarray) -> UnitalityReport:
    """The defects as partial traces of T_K: in K's basis, V^dag Phi*(P) V is
    (sum_k T[:,:,k,k])^T and V^dag Phi(P) V is sum_i T[i,i,:,:]."""
    eye = np.eye(t.shape[0])
    trace_defect = operator_norm(np.trace(t, axis1=2, axis2=3).T - eye)
    unital_defect = operator_norm(np.trace(t, axis1=0, axis2=1) - eye)
    return UnitalityReport(
        trace_defect=trace_defect,
        is_trace_preserving=trace_defect <= UNITALITY_TOL,
        unital_defect=unital_defect,
        is_unital=unital_defect <= UNITALITY_TOL,
    )


# ---------------------------------------------------------------------------
# Invariant hulls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HullReport:
    """Verdict on whether the channel maps K's states back into K.

    ``max_leakage`` is the largest operator norm of Phi(x) - P Phi(x) P over
    the d^2 probe operators |b_i><b_j| (Hilbert-Schmidt version alongside
    for diagnostics). The verdict is certified only relative to the
    truncated channel; ``channel_tp_defect`` records how trustworthy that
    truncation is.
    """

    is_invariant_hull: bool
    max_leakage: float
    max_leakage_hs: float
    probed_inputs: int
    is_unital_subchannel: bool
    unitality_defect: float
    trace_defect: float
    channel_tp_defect: float


def invariant_hull_check(ch: KrausChannel, subspace: Subspace) -> HullReport:
    """Probe all d^2 basis operators of K's operator span for leakage above HULL_TOL.

    Requires the channel's own trace-preservation defect to sit below
    HULL_TP_PRECONDITION; on a map that is not trace-preserving a verdict
    would be meaningless. The probe images build T_K, which gives both defects,
    and each image's block P Phi(x) P is read from its fold as V T_K[i, j] V^dag.
    """
    if not ch.tp_defect <= HULL_TP_PRECONDITION:  # NaN fails too
        raise ValueError(
            f"channel trace-preservation defect {ch.tp_defect:.3e} exceeds "
            f"{HULL_TP_PRECONDITION:.0e}; a hull verdict needs a trace-preserving channel"
        )
    basis = subspace.basis
    op_norms, hs_norms = [0.0], [0.0]

    def leakage(image, fold):
        leaked = image - basis.T @ fold @ basis.conj()
        op_norms.append(operator_norm(leaked))
        hs_norms.append(hs_norm(leaked))

    unit = _unitality(_restrict(ch, subspace, leakage).tensor)
    max_op = max(op_norms)
    return HullReport(
        is_invariant_hull=max_op <= HULL_TOL,
        max_leakage=max_op,
        max_leakage_hs=max(hs_norms),
        probed_inputs=subspace.d**2,
        is_unital_subchannel=unit.is_trace_preserving and unit.is_unital,
        unitality_defect=unit.unital_defect,
        trace_defect=unit.trace_defect,
        channel_tp_defect=ch.tp_defect,
    )


# ---------------------------------------------------------------------------
# Fixed points
# ---------------------------------------------------------------------------


def fixed_point_space(ch: KrausChannel, tol: float = FIXED_POINT_TOL) -> list[np.ndarray]:
    """Orthonormal (Hilbert-Schmidt) basis of {x : Phi(x) = x}.

    Extracted as the right null space of (superoperator - identity) by
    singular-value thresholding (sigma < tol); the superoperator is
    non-normal, so eigenvalue matching would be fragile where SVD is not.

    Each block of the superoperator gets its own SVD. A band channel
    (``ch.multipliers`` set, every built-in family) commutes with
    exp(i theta n), so its superoperator splits into 2*dim - 1
    coherence-order blocks of size dim - |q|, and each null vector lies on
    diagonal q of a member: O(dim^4) time and O(dim^2) memory per block.
    Any other channel is one block, the dense dim^2 x dim^2
    ``superoperator_of``. Before any block is built, the largest block, its U
    and its Vh (three blocks' worth of complex entries) go through the size
    guard, which limits the dense block to dim <= 48 and a band channel to
    dim <= 2364.
    Members come in block order (ascending q), then ascending singular
    value. Before they are allocated, their count * dim^2 complex entries
    go through the size guard.
    A cutoff that is not a positive finite number raises ValueError.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"fixed-point cutoff must be positive and finite, got {tol}")
    n = ch.dim
    largest = n if ch._stored is not None else n * n
    _check_bytes(3 * largest**2 * COMPLEX_BYTES,
                 f"the SVD of a {largest} x {largest} superoperator block")
    found = []
    for positions, block in _coherence_blocks(ch):
        size = block.shape[0]
        block.reshape(-1)[::size + 1] -= 1.0
        _, svals, vh = np.linalg.svd(block)
        found.append((positions, vh[svals < tol][::-1].conj()))
    count = sum(len(null) for _, null in found)
    _check_bytes(count * n * n * COMPLEX_BYTES, f"{count} fixed points at dim {n}")
    # Row k holds vec(x_k), so x_k is its reshape, transposed.
    members = np.zeros((count, n * n), dtype=complex)
    first = 0
    for positions, null in found:
        members[first:first + len(null), positions] = null
        first += len(null)
    return list(members.reshape(count, n, n).transpose(0, 2, 1))
