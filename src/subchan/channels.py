"""Completely positive maps in Kraus form on a truncated Fock space.

A channel is a finite list of operators {E_i} acting as
Phi(x) = sum_i E_i x E_i^dag. Its conjugate (adjoint under the trace
pairing) is Phi*(x) = sum_i E_i^dag x E_i, and Phi is trace-preserving on a
block exactly when sum_i E_i^dag E_i restricts to the identity there.

Vectorization convention, fixed once here and relied on by all fixed-point
code: vec(x) stacks COLUMNS (x.flatten(order="F")), so vec(A x B) equals
(B^T kron A) vec(x) and the superoperator of Phi is sum_i conj(E_i) kron E_i.

Storage. A Kraus operator whose nonzero entries all lie on one diagonal,
E[a, a+o] for a fixed offset o, is kept as that diagonal alone. Grouping
such operators by offset gives the band form

    Phi(x)[a, b] = sum_o M_o[a, b] x[a+o, b+o],  M_o = sum_{i on o} e_i e_i^dag,

so applying the channel is one elementwise product per offset, and
Phi*(I) = sum_i E_i^dag E_i is diagonal, which makes the trace-preservation
defect a maximum over column norms. Every built-in family is of this kind:
phase damping on offset 0, amplitude damping operator i on offset i,
depolarizing |k><s| on offset s-k. Families pass ``bands`` directly; a dense
stack passed as ``kraus_ops`` is inspected, and takes the band form when
each operator sits on one offset (a reloaded channel file of a built-in
family does). Only channels with an operator spanning several offsets keep
the dense path of batched matrix products.

The dense (terms, dim, dim) stack of a band channel is built only when asked
for (``kraus_ops``, used by ``save_channel``) and lists the operators the
bands came from in band order: ascending offset, then row. Its size is estimated first: above MAX_KRAUS_BYTES, the
byte size of the largest superoperator ``superoperator_of`` builds, it
raises ResourceLimitError without allocating.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, ResourceLimitError
from .fock import hermiticity_defect, operator_norm, random_density_matrix, random_hermitian
from .tolerances import SPECTRAL_TOL, STRUCTURAL_TOL

# N^4 superoperator entries get unwieldy past this point.
MAX_SUPEROPERATOR_DIM = 64
COMPLEX_BYTES = 16
MAX_KRAUS_BYTES = MAX_SUPEROPERATOR_DIM**4 * COMPLEX_BYTES

KNOWN_FAMILIES = ("phase-damping", "amplitude-damping", "depolarizing", "custom")


def _band_slices(offset: int, dim: int) -> tuple[slice, slice]:
    """Rows a of E[a, a+offset] that lie on the truncation, and the columns a+offset."""
    rows = slice(max(0, -offset), dim - max(0, offset))
    return rows, slice(rows.start + offset, rows.stop + offset)


class KrausChannel:
    """Immutable bundle of Kraus operators plus family metadata.

    Parameters
    ----------
    kraus_ops : array_like, optional
        Stack of shape (terms, dim, dim). Mutually exclusive with ``bands``.
    bands : dict, optional
        ``{offset: terms}`` with ``terms`` of shape (terms_o, dim - |offset|):
        row i holds the diagonal ``np.diagonal(E_i, offset)`` of an operator
        whose other entries are zero. Real terms stay real.
    family : str
        One of "phase-damping", "amplitude-damping", "depolarizing",
        "custom".
    eta : float, optional
        Damping (or mixing) parameter of the family; None for custom
        channels.

    Attributes
    ----------
    dim : int
    kraus_truncation : int
        Number of Kraus terms kept.
    bands : dict or None
        Band storage by ascending offset (read-only arrays); None when some
        operator spans several offsets.
    tp_defect : float
        Operator norm of (sum_i E_i^dag E_i - I) on the full truncated
        space, computed at construction. The honest error measure for
        families whose exact Kraus sum is infinite.
    """

    def __init__(
        self,
        kraus_ops=None,
        *,
        bands: dict[int, np.ndarray] | None = None,
        family: str = "custom",
        eta: float | None = None,
    ):
        if (kraus_ops is None) == (bands is None):
            raise ValueError("provide exactly one of kraus_ops or bands")
        if family not in KNOWN_FAMILIES:
            raise ValueError(f"unknown channel family {family!r}")
        self.family = family
        self.eta = eta

        if bands is not None:
            self.bands, self.dim = _checked_bands(bands)
            self._stack: np.ndarray | None = None
        else:
            stack = np.array(kraus_ops, dtype=complex, order="C")
            if stack.ndim == 2:
                stack = stack[np.newaxis]
            if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[0] < 1:
                raise ValueError(
                    f"kraus_ops must stack square matrices, got shape {stack.shape}"
                )
            stack.flags.writeable = False
            self._stack = stack
            self.dim = int(stack.shape[1])
            self.bands = _detect_bands(stack)
        self.kraus_truncation = (
            int(self._stack.shape[0]) if self._stack is not None
            else sum(e.shape[0] for e in self.bands.values())
        )
        # Offset-0 terms of a purely diagonal channel, else None; the
        # benchmark's tracing reads it to size the Kraus storage.
        self._diagonals = (
            self.bands[0] if self.bands is not None and list(self.bands) == [0] else None
        )
        self.tp_defect = tp_defect_on_block(self, self.dim)

    # -- storage ------------------------------------------------------------

    @cached_property
    def kraus_ops(self) -> np.ndarray:
        """Dense (terms, dim, dim) stack; read-only.

        A band channel lists its terms in band order: ascending offset, then
        row within the offset. Raises ResourceLimitError, before allocating,
        when a band channel's stack would exceed MAX_KRAUS_BYTES.
        """
        if self._stack is not None:
            return self._stack
        n, terms = self.dim, self.kraus_truncation
        nbytes = terms * n * n * COMPLEX_BYTES
        if nbytes > MAX_KRAUS_BYTES:
            raise ResourceLimitError(
                f"dense Kraus stack needs {terms} x {n}^2 complex entries "
                f"({nbytes / 1e9:.2f} GB); limit is {MAX_KRAUS_BYTES / 1e9:.2f} GB. "
                "Reduce the truncation."
            )
        stack = np.zeros((terms, n, n), dtype=complex)
        first = 0
        for offset, e in self.bands.items():
            rows, cols = _band_slices(offset, n)
            stack[first:first + e.shape[0], np.arange(rows.start, rows.stop),
                  np.arange(cols.start, cols.stop)] = e
            first += e.shape[0]
        stack.flags.writeable = False
        return stack

    @cached_property
    def _band_products(self) -> list[tuple[slice, slice, np.ndarray]]:
        """(rows, cols, M_o) per offset, so Phi(x)[rows, rows] += M_o * x[cols, cols].

        M_o[a, b] = sum_i e_i[a] conj(e_i[b]): the Kraus sum with the
        structural zeros skipped, one GEMM per offset (a real one for real
        terms). Offset 0 comes first and is always present (M_0 = 0 when
        no operator lies on it), so its full-size product can start the sum.
        """
        n = self.dim
        products = [] if 0 in self.bands else [(slice(0, n), slice(0, n), np.zeros((n, n)))]
        for offset in sorted(self.bands, key=abs):
            e = self.bands[offset]
            m = e.T @ e.conj()
            m.flags.writeable = False
            products.append((*_band_slices(offset, n), m))
        return products

    @cached_property
    def _adjoint_identity(self) -> np.ndarray:
        """Diagonal of Phi*(I) = sum_i E_i^dag E_i, which is diagonal for band channels."""
        col = np.zeros(self.dim)
        for offset, e in self.bands.items():
            col[_band_slices(offset, self.dim)[1]] += np.einsum("ij,ij->j", e.conj(), e).real
        return col

    def __repr__(self) -> str:
        eta = "" if self.eta is None else f", eta={self.eta}"
        return (
            f"KrausChannel({self.family}{eta}, dim={self.dim}, "
            f"terms={self.kraus_truncation}, tp_defect={self.tp_defect:.3e})"
        )


def _checked_bands(bands) -> tuple[dict[int, np.ndarray], int]:
    """Read-only copies of the band terms by ascending offset, and the dim they imply."""
    if not bands:
        raise ValueError("bands must hold at least one offset")
    out, dims = {}, set()
    for offset in sorted(bands):
        e = np.array(bands[offset], order="C")
        if e.dtype.kind not in "fc":
            e = e.astype(float)
        if e.ndim != 2 or e.shape[0] < 1 or e.shape[1] < 1:
            raise ValueError(
                f"band {offset} must have shape (terms, dim - |offset|), got {e.shape}"
            )
        e.flags.writeable = False
        out[int(offset)] = e
        dims.add(e.shape[1] + abs(int(offset)))
    if len(dims) != 1:
        raise ValueError(f"band lengths imply different dims {sorted(dims)}")
    return out, dims.pop()


def _detect_bands(stack: np.ndarray) -> dict[int, np.ndarray] | None:
    """Band form of a dense stack when each operator sits on one offset, else None.

    All-zero operators are placed on offset 0.
    """
    n = stack.shape[1]
    grid = np.arange(n, dtype=np.int16)
    offset = grid[np.newaxis, :] - grid[:, np.newaxis]  # column minus row
    nonzero = stack != 0
    lo = np.where(nonzero, offset, n).min(axis=(1, 2))
    hi = np.where(nonzero, offset, -n).max(axis=(1, 2))
    empty = lo == n
    if np.any((lo != hi) & ~empty):
        return None
    offsets = np.where(empty, 0, lo)
    bands = {}
    for o in np.unique(offsets):
        terms = np.diagonal(stack[offsets == o], offset=int(o), axis1=1, axis2=2)
        terms = np.ascontiguousarray(terms)
        terms.flags.writeable = False
        bands[int(o)] = terms
    return bands


def _check_dims(ch: KrausChannel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (ch.dim, ch.dim):
        raise DimensionMismatchError(
            f"operator shape {x.shape} does not match channel dim {ch.dim}"
        )
    return x


def apply_channel(ch: KrausChannel, x: np.ndarray) -> np.ndarray:
    """Phi(x) = sum_i E_i x E_i^dag."""
    x = _check_dims(ch, x)
    if ch.bands is None:
        e = ch.kraus_ops
        return ((e @ x) @ e.conj().transpose(0, 2, 1)).sum(axis=0)
    (_, _, m0), *shifted = ch._band_products
    out = m0 * x
    for rows, cols, m in shifted:
        out[rows, rows] += m * x[cols, cols]
    return out


def adjoint_apply(ch: KrausChannel, x: np.ndarray) -> np.ndarray:
    """Conjugate map Phi*(x) = sum_i E_i^dag x E_i.

    Satisfies tr(x1 Phi*(x2)) = tr(Phi(x1) x2); unital exactly when Phi is
    trace-preserving.
    """
    x = _check_dims(ch, x)
    if ch.bands is None:
        e = ch.kraus_ops
        return ((e.conj().transpose(0, 2, 1) @ x) @ e).sum(axis=0)
    (_, _, m0), *shifted = ch._band_products
    out = m0.conj() * x
    for rows, cols, m in shifted:
        out[cols, cols] += m.conj() * x[rows, rows]
    return out


def tp_defect_on_block(ch: KrausChannel, block: int) -> float:
    """Operator norm of (sum_i E_i^dag E_i - I) restricted to the leading block."""
    if not 1 <= block <= ch.dim:
        raise ValueError(f"block must be in [1, {ch.dim}], got {block}")
    if ch.bands is not None:
        return float(np.max(np.abs(ch._adjoint_identity[:block] - 1.0)))
    flat = ch.kraus_ops[:, :, :block].reshape(-1, block)
    gram = flat.conj().T @ flat
    return operator_norm(gram - np.eye(block))


@dataclass(frozen=True)
class ChannelVerification:
    """Outcome of the randomized channel self-checks.

    Defects above tolerance are reported here, never raised: the Kraus form
    already guarantees complete positivity, so this guards implementation
    bugs rather than proving anything.
    """

    block: int
    tp_defect: float
    hermiticity_defect: float
    min_eigenvalue: float
    samples: int
    seed: int
    tp_ok: bool
    hermiticity_ok: bool
    positivity_ok: bool


def verify_channel(
    ch: KrausChannel,
    block: int | None = None,
    *,
    samples: int = 20,
    seed: int = 1234,
    tp_tol: float = SPECTRAL_TOL,
    herm_tol: float = STRUCTURAL_TOL,
    eig_tol: float = SPECTRAL_TOL,
) -> ChannelVerification:
    """Check trace preservation on a block plus hermiticity/positivity on samples.

    Random inputs are density matrices (and hermitian operators) supported on
    the leading ``block`` levels, drawn from a generator seeded with ``seed``;
    the seed is recorded in the report.
    """
    block = ch.dim if block is None else block
    if not 1 <= block <= ch.dim:
        raise ValueError(f"block must be in [1, {ch.dim}], got {block}")
    rng = np.random.default_rng(seed)

    tp = tp_defect_on_block(ch, block)

    herm = 0.0
    min_eig = np.inf
    for _ in range(samples):
        h = np.zeros((ch.dim, ch.dim), dtype=complex)
        h[:block, :block] = random_hermitian(block, rng)
        herm = max(herm, hermiticity_defect(apply_channel(ch, h)))

        rho = np.zeros((ch.dim, ch.dim), dtype=complex)
        rho[:block, :block] = random_density_matrix(block, rng)
        out = apply_channel(ch, rho)
        min_eig = min(min_eig, float(np.linalg.eigvalsh((out + out.conj().T) / 2).min()))

    return ChannelVerification(
        block=block,
        tp_defect=tp,
        hermiticity_defect=herm,
        min_eigenvalue=float(min_eig),
        samples=samples,
        seed=seed,
        tp_ok=tp <= tp_tol,
        hermiticity_ok=herm <= herm_tol,
        positivity_ok=min_eig >= -eig_tol,
    )


# ---------------------------------------------------------------------------
# Superoperator (matrix) form
# ---------------------------------------------------------------------------


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(x).flatten(order="F")


def unvec(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v)
    if dim is None:
        dim = int(round(np.sqrt(v.size)))
    return v.reshape((dim, dim), order="F")


@dataclass(frozen=True)
class Superoperator:
    """dim^2 x dim^2 matrix acting on column-stacked operators."""

    dim: int
    matrix: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(x), self.dim)


def superoperator_of(ch: KrausChannel) -> Superoperator:
    """Matrix form sum_i conj(E_i) kron E_i under the column-stacking convention."""
    n = ch.dim
    if n > MAX_SUPEROPERATOR_DIM:
        raise ResourceLimitError(
            f"superoperator needs {n}^4 = {n**4} complex entries; "
            f"limit is dim <= {MAX_SUPEROPERATOR_DIM}. Reduce the truncation."
        )
    if ch.bands is not None:
        # Phi(x)[a, b] picks up M_o[a, b] x[a+o, b+o]; vec(x)[b n + a] = x[a, b].
        grid = np.arange(n)
        index = grid[np.newaxis, :] * n + grid[:, np.newaxis]
        s = np.zeros((n * n, n * n), dtype=complex)
        for rows, cols, m in ch._band_products:
            s[index[rows, rows], index[cols, cols]] = m
        return Superoperator(dim=n, matrix=s)
    flat = ch.kraus_ops.reshape(ch.kraus_truncation, n * n)
    # G[(a,b),(c,d)] = sum_i conj(E_i[a,b]) E_i[c,d]; regroup to kron layout.
    gram = flat.conj().T @ flat
    s = gram.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    return Superoperator(dim=n, matrix=s)
