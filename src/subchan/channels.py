"""Completely positive maps on a truncated Fock space.

A channel is a finite list of operators {E_i} acting as
Phi(x) = sum_i E_i x E_i^dag. Its conjugate (adjoint under the trace
pairing) is Phi*(x) = sum_i E_i^dag x E_i, and Phi is trace-preserving on a
block exactly when sum_i E_i^dag E_i restricts to the identity there.

Vectorization convention, fixed once here and relied on by all fixed-point
code: vec(x) stacks COLUMNS (x.flatten(order="F")), so vec(A x B) equals
(B^T kron A) vec(x) and the superoperator of Phi is sum_i conj(E_i) kron E_i.

Storage. A Kraus operator whose nonzero entries all lie on one diagonal,
E[a, a+o] for a fixed offset o, acts through that diagonal e alone. Summing
such operators by offset gives the band form

    Phi(x)[a, b] = sum_o M_o[a, b] x[a+o, b+o],  M_o = sum_{i on o} e_i e_i^dag,

and the positive semidefinite Schur multipliers M_o describe the channel
completely: a Schur multiplier is completely positive exactly when its
matrix is PSD (Paulsen, Completely Bounded Maps and Operator Algebras,
ch. 8), and a Kraus family is one factorization of the M_o. A band channel
stores the M_o, and every kernel reads them: applying it is one elementwise
product per offset, and Phi*(I) is diagonal, which makes the
trace-preservation defect a maximum over its entries.

Support window. An encoded state sits on a few low levels of a much larger
truncation, so most of each shifted product multiplies zeros. When a
channel stores a multiplier off offset 0, ``apply_channel`` first finds
[lo, hi), the smallest index range holding every nonzero row and column of
x (one O(dim^2) pass), the union over a stack. Each shifted product is then
cut to the rows a whose source a + o lies in that range, and offsets that
miss it are skipped. The offset-0 product and the transfer matvec stay full
size. Only exact zero terms are dropped, so the result equals the full-size
sum entry for entry.
``adjoint_apply`` sums its shifted products at full size: Phi* reads x at
the rows a themselves, so an input on a few levels still meets almost every
offset, and the window would save little. A caller that applies
a channel many times to inputs on one window, and reads the outputs only
there, can instead take the channel's compression onto it once
(``_compress``) and apply that at the window's size.

Stacks. ``apply_channel`` and ``adjoint_apply`` take one (dim, dim) operator
or a stack (..., dim, dim), and each matrix of the output equals the 2-D
call on that matrix, entry for entry. Each band product broadcasts over the
leading axes, under the stack's union window: a matrix whose own window is
smaller only gains added exact zeros. The transfer term is one matrix-vector
product per matrix, since one GEMM over the stack would round differently.
A dense channel makes two GEMMs per term and matrix, and their
(stack, terms, dim, dim) temporaries go through the size guard first. A
stack of one matrix is applied as that matrix: numpy rounds a complex
product of one element differently when it broadcasts. ``verify_channel``
draws and applies its samples in stacks of at most VERIFY_STACK_BYTES of
inputs.

A diagonal multiplier only moves populations, Phi(x)[a, a] picks up
M_o[a, a] x[a+o, a+o]. All of them, on every offset, are kept together as
one population-transfer matrix T[a, a+o] = M_o[a, a] (``transfer``) and
applied as one product T @ diag(x). It can be passed as ``transfer``, and
band terms that are all single matrix units are added onto it.

Every built-in family is a band channel: phase damping is the closed-form
M_0[a, b] = eta^((a-b)^2), amplitude damping has one rank-one multiplier
per offset, depolarizing is p J on offset 0 plus T = (1-p)/dim everywhere.
A dense stack passed as ``kraus_ops`` is inspected, and takes the band form
when each operator sits on one offset (a reloaded channel file of a
built-in family does). Only channels with an operator spanning several
offsets keep the dense path of batched matrix products.

The dense (terms, dim, dim) stack of a band channel is built only when asked
for (``kraus_ops``, used by ``save_channel``) by factoring the multipliers:
offset by offset, ascending, the rows of a pivoted Cholesky factor of M_o,
then one scaled matrix unit per nonzero entry of T on that offset, by row.
Its term count ``kraus_truncation`` is fixed at construction.

Size guard. Every allocation in the package that scales with terms * dim^2,
dim^3 or dim^4 is estimated first, as the bytes held at its peak, and passed
to ``_check_bytes``, the one reader of the one limit MAX_KRAUS_BYTES.

Coherence-order blocks. A band channel's superoperator is block diagonal,
one block per diagonal q of x (Holevo, Quantum Systems, Channels,
Information). ``_coherence_blocks`` yields them, or one whole block for a
channel with no band form; ``superoperator_of`` and ``fixed_point_space``
read them, and the Fock-pair tables read B_0. Diagonal o of an n x n array
is addressed as one strided slice of its flattening, ``_diagonal(o, n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, ResourceLimitError
from .fock import _hermitian_from, _state_from, hermiticity_defect, operator_norm
from .tolerances import SPECTRAL_TOL, STRUCTURAL_TOL

# N^4 superoperator entries get unwieldy past this point.
MAX_SUPEROPERATOR_DIM = 64
COMPLEX_BYTES = 16
MAX_KRAUS_BYTES = MAX_SUPEROPERATOR_DIM**4 * COMPLEX_BYTES

# Random inputs per verify_channel run, each of hermiticity and positivity, and their seed.
VERIFY_SAMPLES = 20
VERIFY_SEED = 1234
# Bytes of the (dim, dim) inputs that verify_channel applies in one stack.
VERIFY_STACK_BYTES = 2**18

KNOWN_FAMILIES = ("phase-damping", "amplitude-damping", "depolarizing", "custom")


def _diagonal(offset: int, n: int) -> slice:
    """Flat positions of diagonal ``offset`` of a C-ordered n x n array, by ascending row."""
    if offset >= 0:
        return slice(offset, n * (n - offset), n + 1)
    return slice(-offset * n, n * n, n + 1)


def _check_bytes(nbytes: int, what: str) -> None:
    """The size guard: ResourceLimitError, naming ``what``, when ``nbytes`` exceed
    MAX_KRAUS_BYTES, read at call time (patching ``channels.MAX_KRAUS_BYTES`` moves every guard)."""
    if nbytes > MAX_KRAUS_BYTES:
        raise ResourceLimitError(
            f"{what} needs {nbytes / 1e9:.2f} GB; limit is {MAX_KRAUS_BYTES / 1e9:.2f} GB."
        )


class KrausChannel:
    """Immutable channel with family metadata; a band channel keeps only its multipliers.

    Parameters
    ----------
    kraus_ops : array_like, optional
        Stack of shape (terms, dim, dim). Excludes ``bands``,
        ``multipliers`` and ``transfer``.
    bands : dict, optional
        ``{offset: terms}`` with ``terms`` of shape (terms_o, dim - |offset|):
        row i holds the diagonal ``np.diagonal(E_i, offset)`` of an operator
        whose other entries are zero. Real terms stay real.
    multipliers : dict, optional
        ``{offset: M_o}``: a positive semidefinite (dim - |offset|) square
        matrix, taken as it is (PSD is not checked).
    transfer : array_like, optional
        Real nonnegative (dim, dim) population-transfer matrix T, stored as
        ``transfer``. ``bands``, ``multipliers`` and ``transfer`` may be
        given together; the channel is then their sum.

        A NaN or inf entry in any of the four raises ValueError.
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
        Number of Kraus terms, the rows of ``kraus_ops``: the stack's
        length; else per square multiplier the band terms it was summed from
        (its size when passed as a matrix), plus the nonzero entries of
        ``transfer`` (unit terms on one entry merge).
    multipliers : dict or None
        Square multipliers M_o by ascending offset (read-only arrays); None
        when some operator spans several offsets.
    transfer : ndarray or None
        Real (dim, dim) population-transfer matrix T: the given ``transfer``
        plus the unit bands, read-only; None when it is zero.
    tp_defect : float
        Operator norm of (sum_i E_i^dag E_i - I) on the full truncated
        space, computed at construction: 0 for the exact built-in families
        up to roundoff, and how far a loaded or hand-built channel is from
        trace preservation.
    """

    def __init__(
        self,
        kraus_ops=None,
        *,
        bands: dict[int, np.ndarray] | None = None,
        multipliers: dict[int, np.ndarray] | None = None,
        transfer=None,
        family: str = "custom",
        eta: float | None = None,
    ):
        if (kraus_ops is None) == (bands is None and multipliers is None and transfer is None):
            raise ValueError("provide kraus_ops, or any of bands, multipliers and transfer")
        if family not in KNOWN_FAMILIES:
            raise ValueError(f"unknown channel family {family!r}")
        self.family = family
        self.eta = eta

        self._stack: np.ndarray | None = None
        if kraus_ops is not None:
            stack = np.array(kraus_ops, dtype=complex, order="C")
            if stack.ndim == 2:
                stack = stack[np.newaxis]
            if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[0] < 1:
                raise ValueError(
                    f"kraus_ops must stack square matrices, got shape {stack.shape}"
                )
            if not np.isfinite(stack).all():
                raise ValueError("kraus_ops holds a non-finite entry")
            stack.flags.writeable = False
            self._stack = stack
            bands = _detect_bands(stack)
        if bands is None and multipliers is None and transfer is None:
            self.dim = int(self._stack.shape[1])
            self.multipliers = self.transfer = None
        else:
            self.dim, self.multipliers, self._ranks, self.transfer = _fold(
                bands or {}, multipliers or {}, transfer)
        if self._stack is not None:
            self.kraus_truncation = int(self._stack.shape[0])
        else:
            units = 0 if self.transfer is None else int(np.count_nonzero(self.transfer))
            self.kraus_truncation = sum(self._ranks.values()) + units
        # The multiplier of a channel stored on offset 0 alone, else None;
        # the benchmark's tracing reads it to size the Kraus storage.
        self._diagonals = (self.multipliers[0] if self.transfer is None
                           and list(self.multipliers or ()) == [0] else None)
        self.tp_defect = tp_defect_on_block(self, self.dim)

    # -- storage ------------------------------------------------------------

    @cached_property
    def kraus_ops(self) -> np.ndarray:
        """Dense (terms, dim, dim) stack; read-only.

        A band channel factors its multipliers, offset by offset: the rows
        of a pivoted Cholesky factor of M_o, then the scaled matrix units of
        ``transfer`` by row. A band channel's stack goes through the size
        guard before it is allocated.
        """
        if self._stack is not None:
            return self._stack
        n, terms = self.dim, self.kraus_truncation
        _check_bytes(terms * n * n * COMPLEX_BYTES, f"the dense Kraus stack of {terms} terms")
        stack = np.zeros((terms, n, n), dtype=complex)
        flat = stack.reshape(terms, n * n)
        first = 0
        for offset in range(1 - n, n):
            diagonal = _diagonal(offset, n)
            if offset in self.multipliers:
                factor = _factor(self.multipliers[offset], self._ranks[offset])
                flat[first:first + len(factor), diagonal] = factor
                first += len(factor)
            if self.transfer is not None:
                weights = self.transfer.reshape(-1)[diagonal]
                (hit,) = np.nonzero(weights)
                units = flat[first:first + hit.size, diagonal]
                units[np.arange(hit.size), hit] = np.sqrt(weights[hit])
                first += hit.size
        stack.flags.writeable = False
        return stack

    @cached_property
    def _products(self) -> list[tuple[slice, slice, np.ndarray]]:
        """(rows, cols, M_o) per offset, so Phi(x)[rows, rows] += M_o * x[cols, cols].

        The rows a of E[a, a+o] on the truncation, and the columns a+o, by
        ascending |o|. Offset 0 comes first and is always present (M_0 = 0
        when no square multiplier lies on it), so its full-size product can
        start the sum.
        """
        n = self.dim
        zero = {} if 0 in self.multipliers else {0: np.zeros((n, n))}
        return [(slice(max(0, -o), n - max(0, o)), slice(max(0, o), n - max(0, -o)), m)
                for o, m in sorted({**zero, **self.multipliers}.items(), key=lambda i: abs(i[0]))]

    @cached_property
    def _complex_transfer(self) -> np.ndarray:
        """``transfer`` as complex, so the kernels' matrix-vector products cast nothing per call."""
        return _readonly(self.transfer.astype(complex))

    @cached_property
    def _adjoint_identity(self) -> np.ndarray:
        """Diagonal of Phi*(I) = sum_i E_i^dag E_i, which is diagonal for band channels."""
        col = np.zeros(self.dim)
        for _, cols, m in self._products:
            col[cols] += m.diagonal().real
        if self.transfer is not None:
            col += self.transfer.sum(axis=0)
        return col

    def __repr__(self) -> str:
        eta = "" if self.eta is None else f", eta={self.eta}"
        return (
            f"KrausChannel({self.family}{eta}, dim={self.dim}, "
            f"terms={self.kraus_truncation}, tp_defect={self.tp_defect:.3e})"
        )


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _fold(bands, multipliers, transfer):
    """(dim, square multipliers by ascending offset, their term counts, T or None).

    T starts as a float copy of ``transfer`` (checked real and nonnegative),
    or as zeros. A band whose terms each hold exactly one nonzero entry is
    added onto T, its squared entries summed per position; any other band
    becomes the square multiplier e^T conj(e) (one GEMM, a real one for real
    terms) and counts its terms. A square multiplier counts its size.
    """
    parts = [(f"band {o}", int(o), _float_or_complex(e)) for o, e in bands.items()]
    parts += [(f"multiplier {o}", int(o), _float_or_complex(m)) for o, m in multipliers.items()]
    parts += [] if transfer is None else [("transfer", 0, _float_or_complex(transfer))]
    for name, _, a in parts:
        if 0 in a.shape or a.ndim != 2 or not (name[:4] == "band" or a.shape[0] == a.shape[1]):
            raise ValueError(f"{name} has shape {a.shape}")
    dims = {a.shape[-1] + abs(offset) for _, offset, a in parts}
    if not dims:
        raise ValueError("band storage needs at least one offset")
    if len(dims) != 1:
        raise ValueError(f"band lengths imply different dims {sorted(dims)}")
    n = dims.pop()
    # One check over all parts: per part, its fixed cost would exceed the fold.
    if not np.isfinite(np.concatenate([a.ravel() for _, _, a in parts])).all():
        name = next(name for name, _, a in parts if not np.isfinite(a).all())
        raise ValueError(f"{name} holds a non-finite entry")
    if transfer is not None:
        transfer = parts.pop()[2]
        if transfer.dtype.kind == "c" or transfer.min() < 0:
            raise ValueError("transfer must be real and nonnegative")
    t = np.zeros((n, n)) if transfer is None else np.array(transfer, dtype=float)
    full, ranks = {}, {}
    for name, offset, a in parts:
        band = name[:4] == "band"
        if band and np.all(np.count_nonzero(a, axis=1) == 1):
            t.reshape(-1)[_diagonal(offset, n)] += (np.abs(a) ** 2).sum(axis=0)
        else:
            m = a.T @ a.conj() if band else a.copy()
            full[offset] = full[offset] + m if offset in full else m
            ranks[offset] = ranks.get(offset, 0) + a.shape[0]
    full = {o: _readonly(full[o]) for o in sorted(full)}
    return n, full, ranks, _readonly(t) if np.any(t) else None


def _float_or_complex(a) -> np.ndarray:
    a = np.asarray(a)
    return a if a.dtype.kind in "fc" else a.astype(float)


def _factor(m: np.ndarray, terms: int) -> np.ndarray:
    """``terms`` rows e_i with sum_i e_i[a] conj(e_i[b]) = m[a, b]: a pivoted Cholesky factor.

    Each step pivots on the largest remaining diagonal entry; once all of
    them are at most size * eps times the largest diagonal entry of ``m``
    the rest of the rows stay zero. Pivoting is what lets the exact phase
    damping multiplier through: it is positive definite but numerically
    singular for eta near 1, where a plain Cholesky fails. A row is scaled
    as (column / pivot) * sqrt(pivot), so a multiplier c J, J all ones,
    yields sqrt(c) exactly.
    """
    size = m.shape[0]
    rows = np.zeros((terms, size), dtype=m.dtype)
    residual = np.array(m)
    floor = size * np.finfo(float).eps * max(float(residual.diagonal().real.max()), 0.0)
    for row in rows[:size]:
        diag = residual.diagonal().real
        pivot = int(np.argmax(diag))
        if diag[pivot] <= floor:
            break
        row[:] = residual[:, pivot] / diag[pivot] * np.sqrt(diag[pivot])
        residual -= np.outer(row, row.conj())
    return rows


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
    return {int(o): np.diagonal(stack[offsets == o], offset=int(o), axis1=1, axis2=2)
            for o in np.unique(offsets)}


def _check_dims(ch: KrausChannel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    n = ch.dim
    if x.shape != (n, n) and (x.ndim < 2 or x.shape[-2:] != (n, n)):
        raise DimensionMismatchError(f"operator shape {x.shape} does not match channel dim {n}")
    return x


def _dense_sum(e: np.ndarray, x: np.ndarray, adjoint: bool) -> np.ndarray:
    """sum_i E_i x E_i^dag, or sum_i E_i^dag x E_i, for each matrix of x: two GEMMs per term
    and matrix, and each matrix's terms summed in order. The conjugate stack and the two
    (stack, terms, dim, dim) temporaries go through the size guard first."""
    _check_bytes((2 * x.size + x.shape[-1] ** 2) * len(e) * COMPLEX_BYTES,
                 "a dense channel's products")
    left, right = e, e.conj().transpose(0, 2, 1)
    if adjoint:
        left, right = right, left
    if x.ndim > 2:
        x = x[..., np.newaxis, :, :]  # the terms axis
    return ((left @ x) @ right).sum(axis=-3)


def _add_moved_populations(out: np.ndarray, ch: KrausChannel, x: np.ndarray, adjoint: bool):
    """out[..., a, a] += (T @ diag(x))[a], or (diag(x) @ T)[a] for the adjoint: one
    matrix-vector product per matrix, since one GEMM over a stack would round differently."""
    t, n = ch._complex_transfer, ch.dim
    d = x.diagonal(0, -2, -1)
    if x.ndim == 2:
        out.reshape(-1)[::n + 1] += d @ t if adjoint else t @ d
    elif adjoint:
        out.reshape(*x.shape[:-2], n * n)[..., ::n + 1] += (d[..., np.newaxis, :] @ t)[..., 0, :]
    else:
        out.reshape(*x.shape[:-2], n * n)[..., ::n + 1] += (t @ d[..., np.newaxis])[..., 0]


def apply_channel(ch: KrausChannel, x: np.ndarray) -> np.ndarray:
    """Phi(x) = sum_i E_i x E_i^dag, for one (dim, dim) operator or a stack (..., dim, dim).

    Each matrix of a stack comes out as the 2-D call on it returns it. A band
    channel with multipliers off offset 0 cuts its shifted products to the
    support window of x, the union over a stack; the terms dropped are exact
    zeros. A dense channel's (stack, terms, dim, dim) products go through the
    size guard first.
    """
    x = _check_dims(ch, x)
    if x.ndim > 2 and x.size == ch.dim**2:  # a stack of one matrix: see "Stacks" above
        return apply_channel(ch, x.reshape(x.shape[-2:])).reshape(x.shape)
    if ch.multipliers is None:
        return _dense_sum(ch.kraus_ops, x, adjoint=False)
    out = ch._products[0][2] * x
    if len(ch._products) > 1:
        used = x.any(axis=-1) | x.any(axis=-2)
        if used.ndim > 1:
            used = used.reshape(-1, ch.dim).any(axis=0)
        (used,) = np.nonzero(used)
        lo, hi = (int(used[0]), int(used[-1]) + 1) if used.size else (0, 0)
        for rows, cols, m in ch._products[1:]:
            start, stop = max(lo, cols.start), min(hi, cols.stop)
            if start < stop:
                first, last = start - cols.start, stop - cols.start
                target = slice(rows.start + first, rows.start + last)
                view = out[..., target, target]  # adding in place skips a second indexing
                view += m[first:last, first:last] * x[..., start:stop, start:stop]
    if ch.transfer is not None:
        _add_moved_populations(out, ch, x, adjoint=False)
    return out


def adjoint_apply(ch: KrausChannel, x: np.ndarray) -> np.ndarray:
    """Conjugate map Phi*(x) = sum_i E_i^dag x E_i, for one operator or a stack (..., dim, dim).

    Satisfies tr(x1 Phi*(x2)) = tr(Phi(x1) x2); unital exactly when Phi is
    trace-preserving. Each matrix of a stack comes out as the 2-D call on it
    returns it.
    """
    x = _check_dims(ch, x)
    if x.ndim > 2 and x.size == ch.dim**2:
        return adjoint_apply(ch, x.reshape(x.shape[-2:])).reshape(x.shape)
    if ch.multipliers is None:
        return _dense_sum(ch.kraus_ops, x, adjoint=True)
    out = ch._products[0][2].conj() * x
    for rows, cols, m in ch._products[1:]:
        view = out[..., cols, cols]
        view += m.conj() * x[..., rows, rows]
    if ch.transfer is not None:
        _add_moved_populations(out, ch, x, adjoint=True)
    return out


def _compress(ch: KrausChannel, lo: int, hi: int) -> KrausChannel:
    """The compression x -> P Phi(P x P) P onto the levels [lo, hi), as a channel of dim hi - lo.

    A band channel keeps the blocks M_o[lo:hi-|o|, lo:hi-|o|] of its
    multipliers with |o| < hi - lo and the block T[lo:hi, lo:hi] of its
    transfer matrix (all zeros when it has none). A dense channel keeps the
    blocks E_i[lo:hi, lo:hi]. The full range is the channel itself.
    """
    if (lo, hi) == (0, ch.dim):
        return ch
    meta = {"family": ch.family, "eta": ch.eta}
    if ch.multipliers is None:
        return KrausChannel(ch.kraus_ops[:, lo:hi, lo:hi], **meta)
    w = hi - lo
    multipliers = {o: m[lo:hi - abs(o), lo:hi - abs(o)]
                   for o, m in ch.multipliers.items() if abs(o) < w}
    transfer = np.zeros((w, w)) if ch.transfer is None else ch.transfer[lo:hi, lo:hi]
    return KrausChannel(multipliers=multipliers, transfer=transfer, **meta)


def tp_defect_on_block(ch: KrausChannel, block: int) -> float:
    """Operator norm of (sum_i E_i^dag E_i - I) restricted to the leading block."""
    if not 1 <= block <= ch.dim:
        raise ValueError(f"block must be in [1, {ch.dim}], got {block}")
    if ch.multipliers is not None:
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


def verify_channel(ch: KrausChannel, block: int | None = None) -> ChannelVerification:
    """Check trace preservation on a block plus hermiticity/positivity on samples.

    VERIFY_SAMPLES random hermitian operators and as many density matrices,
    supported on the leading ``block`` levels, are drawn from a generator
    seeded with VERIFY_SEED (recorded in the report), in the order of one
    ``random_hermitian`` and one ``random_density_matrix`` call per sample.
    They go through ``apply_channel`` in stacks of at most VERIFY_STACK_BYTES
    of (dim, dim) inputs, one stack of each kind at a time, and the report
    is the one that applying each sample on its own gives. Trace
    preservation and positivity are judged at SPECTRAL_TOL, hermiticity at
    STRUCTURAL_TOL.
    """
    block = ch.dim if block is None else block
    tp = tp_defect_on_block(ch, block)  # checks the block
    rng = np.random.default_rng(VERIFY_SEED)
    stack = max(1, VERIFY_STACK_BYTES // (ch.dim**2 * COMPLEX_BYTES))
    herms, eigs = [], []
    for first in range(0, VERIFY_SAMPLES, stack):
        # Per sample: a hermitian operator's real and imaginary parts, then a state's.
        g = rng.normal(size=(min(stack, VERIFY_SAMPLES - first), 2, 2, block, block))
        x = np.zeros((len(g), ch.dim, ch.dim), dtype=complex)
        x[:, :block, :block] = _hermitian_from(g[:, 0])
        herms.append(hermiticity_defect(apply_channel(ch, x)))
        x[:, :block, :block] = _state_from(g[:, 1])
        del g
        out = apply_channel(ch, x)
        # (out + out^dag) / 2, written over the inputs.
        np.add(out, out.conj().swapaxes(-1, -2), out=x)
        x /= 2
        eigs.append(np.linalg.eigvalsh(x).min())
    # np.max and np.min propagate NaN, which Python's max and min would drop.
    herm, min_eig = float(np.max(herms)), float(np.min(eigs))

    return ChannelVerification(
        block=block,
        tp_defect=tp,
        hermiticity_defect=herm,
        min_eigenvalue=min_eig,
        samples=VERIFY_SAMPLES,
        seed=VERIFY_SEED,
        tp_ok=tp <= SPECTRAL_TOL,
        hermiticity_ok=herm <= STRUCTURAL_TOL,
        positivity_ok=min_eig >= -SPECTRAL_TOL,
    )


# ---------------------------------------------------------------------------
# Superoperator (matrix) form
# ---------------------------------------------------------------------------


def superoperator_of(ch: KrausChannel) -> np.ndarray:
    """dim^2 x dim^2 sum_i conj(E_i) kron E_i on column-stacked vec(x) = x.flatten(order="F").

    A band channel's is its coherence-order blocks written into place.
    """
    n = ch.dim
    _check_bytes(n**4 * COMPLEX_BYTES, f"the superoperator at dim {n}")
    if ch.multipliers is not None:
        s = np.zeros((n * n, n * n), dtype=complex)
        for positions, block in _coherence_blocks(ch):
            s[positions, positions] = block
        return s
    e = ch.kraus_ops
    # S[(a,c),(b,d)] = sum_i conj(E_i[a,b]) E_i[c,d], written one row block a at
    # a time so that nothing of S's size is allocated beside it.
    s = np.empty((n, n, n, n), dtype=complex)
    for a in range(n):
        s[a] = (e[:, a].conj().T @ e.reshape(-1, n * n)).reshape(n, n, n).transpose(1, 0, 2)
    return s.reshape(n * n, n * n)


def _coherence_blocks(ch: KrausChannel):
    """Yield (positions, block) per coherence order q, built when reached, at the vec positions
    of diagonal -q (vec flattens x^T); a channel with no band form is one whole block."""
    if ch.multipliers is None:
        yield slice(None), superoperator_of(ch)
        return
    for q in range(1 - ch.dim, ch.dim):
        yield _diagonal(-q, ch.dim), _coherence_block(ch, q)


def _coherence_block(ch: KrausChannel, q: int) -> np.ndarray:
    """A band channel's superoperator B_q on diagonal q of x: x[a, a+q] reads x[a+o, a+q+o]
    times M_o[a, a+q], and T adds to B_0, so B_0[c, a] is what |a><a| puts on |c><c|."""
    size = ch.dim - abs(q)
    block = np.zeros((size, size), dtype=np.result_type(float, *ch.multipliers.values()))
    for offset, m in ch.multipliers.items():
        if abs(offset) < size:
            block.reshape(-1)[_diagonal(offset, size)] = np.diagonal(m, q)
    if q == 0 and ch.transfer is not None:
        block += ch.transfer
    return block
