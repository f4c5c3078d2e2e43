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

One map of bands. A band channel keeps {offset: band} by ascending
offset (see :mod:`subchan.bands`, which folds it), and a band is a vector
or a square, told apart by shape (``m.ndim``). A rank-one M_o = e^T e with
a nonnegative float64 factor whose products e[a] e[b] are finite is the
vector e, even when e holds a single nonzero: amplitude damping holds
O(dim^2) floats, one vector per offset, where its square multipliers took
sum_o (dim - o)^2. Any other band is its square M_o. Readers form the
entries of M_o they need from a vector as e[a] e[b] (``_outer`` for a
block): the kernels on their window, ``multipliers`` whole on each read. A
channel whose vectors fit in FORMED_BYTES once formed forms them at
construction and runs its kernels on the squares: at small dim, forming a
block on each call costs more than holding it. So does a channel holding a
dense T whose formed multipliers fit in as many bytes (depolarizing at
every dim): it holds O(dim^2) floats either way, and with M_0 alone one
full-size product beats the window pass and the block formed on it.

Support window. An encoded state sits on a few low levels of a much larger
truncation, so most of each band product multiplies zeros. Both kernels
take one loop over every band but a square M_0: when a channel holds any
such band, they first find [lo, hi), the smallest index range holding
every nonzero row and column of x (one O(dim^2) pass), the union over a
stack. ``apply_channel`` reads x at the sources a + o and writes the
targets a; ``adjoint_apply`` reads the targets and writes the sources, by
conj(M_o). Only the offsets whose read rows meet the range are visited (a
prefix of each side, found by bisection): for Phi, 0 <= o < hi and
-o < dim - lo below 0; for Phi*, 0 <= o < dim - lo and -o < hi below 0.
Each product is cut to the rows read inside the range and added onto
0.0 * x, or onto M_0 * x for a square M_0, given or formed: the one band
term at full size, beside the transfer term. For finite inputs and
multipliers only exact zero terms are dropped, so the result equals the
full-size sum entry for entry, up to the sign of a zero. Non-finite
outputs sit where the full-size sum has them, though an inf read on
offset 0 by an unformed vector comes out NaN (from 0.0 * inf). A square
M_o (o != 0) holding inf, as finite bands whose product overflows give,
loses its inf * 0 = NaN terms outside the window, which the full-size sum
keeps. A caller applying a channel many times to inputs on one window, and
reading the outputs only there, can take its compression onto it once
(``_compress``) and apply that at the window's size.

Stacks. ``apply_channel`` and ``adjoint_apply`` take one (dim, dim) operator
or a stack (..., dim, dim), and each matrix of the output equals the 2-D
call on that matrix, entry for entry. Each band product broadcasts over the
leading axes, under the stack's union window: a matrix whose own window is
smaller only gains added exact zeros. The transfer term is one product of T
by a column per matrix, a 2-D x's too, since one GEMM over the stack would
round differently. A dense channel makes two GEMMs per term and matrix, and
their (stack, terms, dim, dim) temporaries go through the size guard first.
A stack of one matrix is applied as that matrix: numpy rounds a complex
product of one element differently when it broadcasts. ``verify_channel``
applies its samples in stacks of at most VERIFY_STACK_BYTES of inputs. They
depend on the truncation alone, dim and block, not on the channel, so
``_verify_inputs`` draws them once and keeps them read-only, under the
VERIFY_ constants they were drawn with, while the inputs of every kept
truncation fit VERIFY_CACHE_BYTES together (least recently used dropped
first). A truncation whose inputs alone exceed it draws them stack by
stack on each call.

A diagonal multiplier only moves populations, Phi(x)[a, a] picks up
M_o[a, a] x[a+o, a+o]. All of them, on every offset, are kept together as
one population-transfer matrix T[a, a+o] = M_o[a, a] (``transfer``) and
applied as one product T @ diag(x). It can be passed as ``transfer``, and
band terms that are all single matrix units, unless stored as a vector, are
added onto it. T is held dense, or not at all when it is zero.

Every built-in family is a band channel: phase damping is the closed-form
M_0[a, b] = eta^((a-b)^2); amplitude damping has one rank-one multiplier
per offset, each stored as its vector, and no T, except at eta = 0, where
it is T[0, :] = 1 alone; depolarizing is p J on offset 0, stored as the
vector of sqrt(p), plus the dense T = (1-p)/dim. A dense stack passed as
``kraus_ops`` is inspected, and takes the band form when each operator sits
on one offset (a reloaded channel file of a built-in family does, with
complex bands). Only channels with an operator spanning several offsets
keep the dense path of batched matrix products.

The dense (terms, dim, dim) stack of a band channel is built only when asked
for (``kraus_ops``, used by ``save_channel``) by factoring the multipliers:
offset by offset, ascending, the rows of a pivoted Cholesky factor of M_o
(formed from its vector as ``multipliers`` forms it), then one scaled
matrix unit per nonzero entry of T on that offset, by row. Its term count
``kraus_truncation`` is fixed at construction.

Size guard. Every allocation in the package that scales with terms * dim^2,
dim^3 or dim^4 is estimated first, as the bytes held at its peak, and passed
to ``_check_bytes``, the one reader of the one limit MAX_KRAUS_BYTES.

Coherence-order blocks. A band channel's superoperator is block diagonal,
one block per diagonal q of x (Holevo, Quantum Systems, Channels,
Information). ``_coherence_blocks`` yields them, or one whole block for a
channel with no band form; ``superoperator_of`` and ``fixed_point_space``
read them, and the Fock-pair tables read B_0.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bands import (
    _detect_bands, _diagonal, _factor, _fold, _Multipliers, _outer, _readonly,
)
from .errors import DimensionMismatchError, ResourceLimitError
from .fock import _hermitian_from, _state_from, hermiticity_defect, operator_norm
from .tolerances import SPECTRAL_TOL, STRUCTURAL_TOL

# N^4 superoperator entries get unwieldy past this point.
MAX_SUPEROPERATOR_DIM = 64
COMPLEX_BYTES = 16
REAL_BYTES = 8
# A band channel whose vectors' multipliers, formed, fit in this many bytes forms them at
# construction and runs its kernels on them (see "Factored multipliers"): amplitude
# damping up to dim 72. Measured on one BLAS thread, forming made apply_channel on a
# matrix unit 1.58x faster at dim 16, 1.27x at 64, 1.11x at 96, 1.04x at 112 and 0.87x
# at 128; 1 MiB keeps the formed copy, which grows as dim^3 (2.5 MB at 96), small.
FORMED_BYTES = 2**20
MAX_KRAUS_BYTES = MAX_SUPEROPERATOR_DIM**4 * COMPLEX_BYTES

# Random inputs per verify_channel run, each of hermiticity and positivity, and their seed.
VERIFY_SAMPLES = 20
VERIFY_SEED = 1234
# Bytes of the (dim, dim) inputs that verify_channel applies in one stack.
VERIFY_STACK_BYTES = 2**18
# Bytes of verify_channel's inputs kept between calls, all truncations together (see
# "Stacks"). They hold 2 * 20 * dim^2 * 16 bytes. Measured on one BLAS thread, drawing them
# took 0.7 of a 1.9 ms call on amplitude damping at dim 16, 3.5 of 8.1 ms at 32, 9.2 of
# 36 ms at 64 and 16 of 85 ms at 80. 4 MiB keeps one truncation up to dim 80 (4.1 MB), or
# 16, 32 and 64 together (3.4 MB, against a 45 MB peak RSS for a process verifying them).
VERIFY_CACHE_BYTES = 2**22

KNOWN_FAMILIES = ("phase-damping", "amplitude-damping", "depolarizing", "custom")


def _check_bytes(nbytes: int, what: str) -> None:
    """The size guard: ResourceLimitError, naming ``what``, when ``nbytes`` exceed
    MAX_KRAUS_BYTES, read at call time (patching ``channels.MAX_KRAUS_BYTES`` moves every guard)."""
    if nbytes > MAX_KRAUS_BYTES:
        raise ResourceLimitError(
            f"{what} needs {nbytes / 1e9:.2f} GB; limit is {MAX_KRAUS_BYTES / 1e9:.2f} GB."
        )


class KrausChannel:
    """Immutable channel with family metadata; a band channel keeps only its map of bands.

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
        ``{offset: M_o}``: a (dim - |offset|) square matrix, taken as it is.
        Construction does not check that it is PSD; ``kraus_ops`` and
        ``save_channel`` raise ConstraintError on one that is not, and the
        kernels apply it as given, a map that is not completely positive.
    transfer : array_like, optional
        Real nonnegative (dim, dim) population-transfer matrix T, kept
        dense. ``bands``, ``multipliers`` and ``transfer`` may be given
        together; the channel is then their sum.

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
    multipliers : Mapping or None
        Read-only view {offset: M_o} by ascending offset; None when some
        operator spans several offsets. A band held as its vector e (see
        :mod:`subchan.bands`) is formed as e^T e on each read, after the size
        guard, so each read allocates (dim - |o|)^2 floats; no kernel reads it.
    transfer : ndarray or None
        Real (dim, dim) population-transfer matrix T: the given ``transfer``
        plus the unit bands, read-only; None when it is zero.
    stored_bytes : int
        Bytes of the arrays the channel holds from construction on: its
        vectors, square and formed multipliers, T, and a given stack.
        Arrays built on first use (``kraus_ops``, the complex T of the
        kernels) are not counted.
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

        stack = None
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
            bands = _detect_bands(stack)
        if bands is None and multipliers is None and transfer is None:
            storage = (int(stack.shape[1]), None, {}, None)
        else:
            storage = _fold(bands or {}, multipliers or {}, transfer)
        self._assemble(*storage, stack=stack, family=family, eta=eta)

    def _assemble(self, dim, stored, ranks, transfer, *, stack, family, eta):
        """Set the storage: ``stored`` {offset: vector e for M_o = e^T e, or square M_o} by
        ascending offset (None for a dense channel), ``ranks`` {offset: terms} and the dense
        T or None; then the term count and tp_defect."""
        self.family, self.eta, self.dim = family, eta, dim
        self._stack, self._stored, self._ranks, self._transfer = stack, stored, ranks, transfer
        # The bands by ascending |o|, below 0 first on ties (the order the kernels sum
        # in), as (o, e or M_o). A channel whose vectors' multipliers, formed, fit in
        # FORMED_BYTES, or in the bytes of a dense T it holds anyway, forms them here:
        # e[a] e[b] for each M_o.
        stored = stored or {}
        budget = max(FORMED_BYTES, 0 if transfer is None else transfer.nbytes)
        formed = sum(m.size**2 for m in stored.values() if m.ndim == 1) * REAL_BYTES <= budget
        self._bands = sorted([(o, _readonly(_outer(m)) if formed and m.ndim == 1 else m)
                              for o, m in stored.items()], key=_magnitude)
        # The kernels' plan: a square M_0, the one full-size band term, or None; the other
        # bands on o >= 0 and o < 0, as (o, e or M_o, source, target) with sources a + o
        # and targets a from max(0, o) and max(0, -o) on, and the |o| of each. A window of
        # sources [lo, hi) meets o >= 0 when o < hi and o < 0 when -o < dim - lo: a prefix
        # of each.
        self._zero = next((m for o, m in self._bands if o == 0 and m.ndim == 2), None)
        looped = [(o, m, max(0, o), max(0, -o)) for o, m in self._bands if o or m.ndim == 1]
        self._ahead = [t for t in looped if t[0] >= 0]
        self._behind = [t for t in looped if t[0] < 0]
        self._reach = [t[0] for t in self._ahead], [-t[0] for t in self._behind]
        if stack is not None:
            self.kraus_truncation = int(stack.shape[0])
        else:
            moved = 0 if transfer is None else int(np.count_nonzero(transfer))
            self.kraus_truncation = sum(ranks.values()) + moved
        # What a channel stored on offset 0 alone keeps there (its vector or M_0), else
        # None; the benchmark's tracing reads it to size the Kraus storage.
        alone = transfer is None and list(stored) == [0]
        self._diagonals = stored[0] if alone else None
        self.tp_defect = tp_defect_on_block(self, self.dim)

    # -- storage ------------------------------------------------------------

    @property
    def multipliers(self) -> _Multipliers | None:
        return None if self._stored is None else _Multipliers(self)

    @property
    def transfer(self) -> np.ndarray | None:
        return self._transfer

    @property
    def stored_bytes(self) -> int:
        arrays = [self._stack, self._transfer, *(self._stored or {}).values()]
        arrays += [m for _, m in self._bands]  # the formed multipliers
        return sum(a.nbytes for a in {id(a): a for a in arrays if a is not None}.values())

    def _multiplier(self, offset: int) -> np.ndarray:
        """M_o, formed from its vector e as the kernels form it, after the size guard."""
        m = self._stored[offset]
        if m.ndim == 2:
            return m
        _check_bytes(m.size**2 * REAL_BYTES, f"multiplier {offset} at dim {self.dim}")
        return _readonly(_outer(m))

    def _entries(self, offset: int, rows, cols) -> np.ndarray:
        """M_o[rows, cols] for broadcast index arrays; e[rows] e[cols] from a vector."""
        m = self._stored[offset]
        return m[rows] * m[cols] if m.ndim == 1 else m[rows, cols]

    @cached_property
    def kraus_ops(self) -> np.ndarray:
        """Dense (terms, dim, dim) stack; read-only.

        A band channel factors its multipliers, offset by offset: the rows
        of a pivoted Cholesky factor of M_o (formed from its vector when it
        is stored as one), then the scaled matrix units of ``transfer`` by
        row. A band channel's stack goes through the size guard before it is
        allocated.
        """
        if self._stack is not None:
            return self._stack
        n, terms = self.dim, self.kraus_truncation
        _check_bytes(terms * n * n * COMPLEX_BYTES, f"the dense Kraus stack of {terms} terms")
        transfer = self.transfer
        stack = np.zeros((terms, n, n), dtype=complex)
        flat = stack.reshape(terms, n * n)
        first = 0
        for offset in range(1 - n, n):
            diagonal = _diagonal(offset, n)
            if offset in self._ranks:
                factor = _factor(self._multiplier(offset), self._ranks[offset])
                flat[first:first + len(factor), diagonal] = factor
                first += len(factor)
            if transfer is not None:
                weights = transfer.reshape(-1)[diagonal]
                (hit,) = np.nonzero(weights)
                units = flat[first:first + hit.size, diagonal]
                units[np.arange(hit.size), hit] = np.sqrt(weights[hit])
                first += hit.size
        stack.flags.writeable = False
        return stack

    @cached_property
    def _complex_transfer(self) -> np.ndarray:
        """T as complex, so the kernels' matrix-vector products cast nothing per call."""
        return _readonly(self._transfer.astype(complex))

    @cached_property
    def _adjoint_identity(self) -> np.ndarray:
        """Diagonal of Phi*(I) = sum_i E_i^dag E_i, which is diagonal for band channels."""
        n = self.dim
        col = np.zeros(n)
        for o, m in self._bands:  # a formed block's diagonal is e * e
            col[max(0, o):n - max(0, -o)] += m * m if m.ndim == 1 else m.diagonal().real
        if self._transfer is not None:
            col += self._transfer.sum(axis=0)
        return col

    def __repr__(self) -> str:
        eta = "" if self.eta is None else f", eta={self.eta}"
        return (
            f"KrausChannel({self.family}{eta}, dim={self.dim}, "
            f"terms={self.kraus_truncation}, tp_defect={self.tp_defect:.3e})"
        )


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
    """out[..., a, a] += (T @ diag(x))[a], or (diag(x) @ T)[a] for the adjoint: T by one
    column, or one row by T, per matrix, since one GEMM over a stack would round differently."""
    n, t, d = ch.dim, ch._complex_transfer, x.diagonal(0, -2, -1)
    diagonal = out.reshape(*x.shape[:-2], n * n)[..., ::n + 1]
    if adjoint:
        diagonal += (d[..., np.newaxis, :] @ t)[..., 0, :]
    else:
        diagonal += (t @ d[..., np.newaxis])[..., 0]


def _window(x: np.ndarray) -> tuple[int, int]:
    """[lo, hi): the smallest index range holding every nonzero row and column of x, the union
    over a stack; (0, 0) when x is zero."""
    used = x.astype(bool)
    used = used.any(axis=-1) | used.any(axis=-2)
    if used.ndim > 1:
        used = used.reshape(-1, x.shape[-1]).any(axis=0)
    (used,) = np.nonzero(used)
    return (int(used[0]), int(used[-1]) + 1) if used.size else (0, 0)


def _apply(ch: KrausChannel, x: np.ndarray, adjoint: bool) -> np.ndarray:
    """Phi(x), or Phi*(x) for ``adjoint``: the one kernel behind ``apply_channel`` and
    ``adjoint_apply`` (see "Support window" and "Stacks" above).

    Phi reads x at the sources a + o and writes the targets a; Phi* reads the
    targets, writes the sources and multiplies by conj(M_o). Either way only the
    offsets whose read rows meet the window of x are visited, cut to those rows."""
    x, n = np.asarray(x, dtype=complex), ch.dim
    if x.ndim < 2 or x.shape[-2:] != (n, n):
        raise DimensionMismatchError(f"operator shape {x.shape} does not match channel dim {n}")
    if x.ndim > 2 and x.size == n**2:  # a stack of one matrix: see "Stacks" above
        return _apply(ch, x.reshape(x.shape[-2:]), adjoint).reshape(x.shape)
    if ch._stored is None:
        return _dense_sum(ch.kraus_ops, x, adjoint)
    # Unwindowed (at most a square M_0): the many small calls of a quadrature.
    lo, hi = _window(x) if ch._ahead or ch._behind else (0, 0)
    if ch._zero is None:  # in C order: T's kernel writes through a reshape
        out = np.multiply(x, 0.0, order="C")
    else:  # the one full-size band term; M_0 is C-ordered, and so is its product
        out = (ch._zero.conj() if adjoint else ch._zero) * x
    if lo < hi:
        ahead, behind = ch._reach
        reached = ch._ahead[:bisect_left(ahead, n - lo if adjoint else hi)]
        if behind:
            reached += ch._behind[:bisect_left(behind, hi if adjoint else n - lo)]
            reached.sort(key=_magnitude)
        for _, m, source, target in reached:
            read, write = (target, source) if adjoint else (source, target)
            start, stop = max(lo, read), min(hi, n - write)
            first, last = start - read, stop - read
            block = _outer(m[first:last]) if m.ndim == 1 else m[first:last, first:last]
            # Added in place through a view: one indexing.
            view = out[..., write + first:write + last, write + first:write + last]
            view += (block.conj() if adjoint else block) * x[..., start:stop, start:stop]
    if ch._transfer is not None:
        _add_moved_populations(out, ch, x, adjoint)
    return out


def _magnitude(term) -> tuple[int, int]:
    return abs(term[0]), term[0]


def apply_channel(ch: KrausChannel, x: np.ndarray) -> np.ndarray:
    """Phi(x) = sum_i E_i x E_i^dag, for one (dim, dim) operator or a stack (..., dim, dim).

    Each matrix of a stack comes out as the 2-D call on it returns it. A band
    channel holding a vector unformed or a multiplier off offset 0 cuts those
    products to the support window of x, the union over a stack, and visits
    only the offsets whose sources meet it; for finite inputs and multipliers
    the terms dropped are exact zeros (see the module docstring). A dense
    channel's (stack, terms, dim, dim) products go through the size guard first.
    """
    return _apply(ch, x, adjoint=False)


def adjoint_apply(ch: KrausChannel, x: np.ndarray) -> np.ndarray:
    """Conjugate map Phi*(x) = sum_i E_i^dag x E_i, for one operator or a stack (..., dim, dim).

    Satisfies tr(x1 Phi*(x2)) = tr(Phi(x1) x2); unital exactly when Phi is
    trace-preserving. Each matrix of a stack comes out as the 2-D call on it
    returns it. It takes the support window as ``apply_channel`` does, and
    visits only the offsets whose targets meet it.
    """
    return _apply(ch, x, adjoint=True)


def _compress(ch: KrausChannel, lo: int, hi: int) -> KrausChannel:
    """The compression x -> P Phi(P x P) P onto the levels [lo, hi), as a channel of dim hi - lo.

    A band channel keeps, for |o| < hi - lo, the entries [lo, hi - |o|) of
    its vectors and the blocks M_o[lo:hi-|o|, lo:hi-|o|] of its square
    multipliers (each counting its size in terms), and T[lo:hi, lo:hi]. A
    dense channel keeps the blocks E_i[lo:hi, lo:hi]. The full range is the
    channel itself.
    """
    if (lo, hi) == (0, ch.dim):
        return ch
    meta = {"family": ch.family, "eta": ch.eta}
    if ch._stored is None:
        return KrausChannel(ch.kraus_ops[:, lo:hi, lo:hi], **meta)
    w = hi - lo
    stored = {o: m[lo:hi - abs(o)] if m.ndim == 1
              else _readonly(m[lo:hi - abs(o), lo:hi - abs(o)].copy())
              for o, m in ch._stored.items() if abs(o) < w}
    ranks = {o: 1 if m.ndim == 1 else w - abs(o) for o, m in stored.items()}
    transfer = None
    if ch._transfer is not None:
        transfer = ch._transfer[lo:hi, lo:hi]
        transfer = transfer if transfer.any() else None
    window = KrausChannel.__new__(KrausChannel)
    window._assemble(w, stored, ranks, transfer, stack=None, **meta)
    return window


def tp_defect_on_block(ch: KrausChannel, block: int) -> float:
    """Operator norm of (sum_i E_i^dag E_i - I) restricted to the leading block."""
    if not 1 <= block <= ch.dim:
        raise ValueError(f"block must be in [1, {ch.dim}], got {block}")
    if ch._stored is not None:
        return float(np.max(np.abs(ch._adjoint_identity[:block] - 1.0)))
    flat = ch.kraus_ops[:, :, :block].reshape(-1, block)
    gram = flat.conj().T @ flat
    return operator_norm(gram - np.eye(block))


@dataclass(frozen=True)
class ChannelVerification:
    """Outcome of the randomized channel self-checks.

    Defects above tolerance are reported here, never raised. A Kraus stack,
    or PSD multipliers, make the channel completely positive, so for them
    this guards implementation bugs. A multiplier that is not PSD, such as
    ``multipliers={0: [[1, 2], [2, 1]]}``, is applied as a map that is not
    CP, and nothing here checks complete positivity.
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
    seeded with VERIFY_SEED (recorded in the report), in the order of the
    tests' reference ``kraus_reference.verify_one_sample_at_a_time``,
    once per truncation while they fit VERIFY_CACHE_BYTES (see "Stacks").
    They go through ``apply_channel`` in stacks of at most VERIFY_STACK_BYTES
    of (dim, dim) inputs, one stack of each kind at a time, and the report
    is the one that applying each sample on its own gives. Trace
    preservation and positivity are judged at SPECTRAL_TOL, hermiticity at
    STRUCTURAL_TOL. An output holding NaN or inf reports a NaN minimum
    eigenvalue, which fails positivity.
    """
    block = ch.dim if block is None else block
    tp = tp_defect_on_block(ch, block)  # checks the block
    herms, eigs = [], []
    inputs = _verify_inputs(ch.dim, block)
    for hermitians in inputs:  # each stack followed by one of as many states
        herms.append(hermiticity_defect(apply_channel(ch, hermitians)))
        out = apply_channel(ch, next(inputs))
        # (out + out^dag) / 2, written over the output.
        out += out.conj().swapaxes(-1, -2)
        out /= 2
        # LAPACK may fail to converge on a NaN or inf entry: the output is then reported NaN.
        eigs.append(np.linalg.eigvalsh(out).min() if np.isfinite(out).all() else np.nan)
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


# verify_channel's inputs by key, least recently used first.
_VERIFY_INPUTS: dict[tuple[int, ...], np.ndarray] = {}


def _verify_inputs(dim: int, block: int):
    """Yield verify_channel's inputs stack by stack, (n, dim, dim) arrays on the leading
    ``block`` levels taking at most VERIFY_STACK_BYTES: n hermitian operators, then n states.

    The inputs depend on the truncation alone. When all 2 * VERIFY_SAMPLES of them fit
    VERIFY_CACHE_BYTES they are kept, read-only, under the values of the four VERIFY_
    constants read at this call, and the least recently used are dropped until everything
    kept fits it together. Larger ones are drawn on each call, each state stack written
    over the hermitian stack before it, as verify_channel has applied that one."""
    key = (dim, block, VERIFY_SEED, VERIFY_SAMPLES, VERIFY_STACK_BYTES)
    stack = max(1, VERIFY_STACK_BYTES // (dim**2 * COMPLEX_BYTES))
    spans = [(a, min(a + stack, VERIFY_SAMPLES)) for a in range(0, VERIFY_SAMPLES, stack)]
    held = _VERIFY_INPUTS.pop(key, None)
    if held is not None:
        _VERIFY_INPUTS[key] = held  # now the most recently used
        for a, b in spans:
            yield held[0, a:b]
            yield held[1, a:b]
        return
    kept = 2 * VERIFY_SAMPLES * dim**2 * COMPLEX_BYTES <= VERIFY_CACHE_BYTES
    if kept:
        held = np.zeros((2, VERIFY_SAMPLES, dim, dim), dtype=complex)
    rng = np.random.default_rng(VERIFY_SEED)
    for a, b in spans:
        # Per sample: a hermitian operator's real and imaginary parts, then a state's.
        g = rng.normal(size=(b - a, 2, 2, block, block))
        x = held[0, a:b] if kept else np.zeros((b - a, dim, dim), dtype=complex)
        x[:, :block, :block] = _hermitian_from(g[:, 0])
        yield x
        if kept:
            x = held[1, a:b]
        x[:, :block, :block] = _state_from(g[:, 1])
        del g
        yield x
    if kept:
        _VERIFY_INPUTS[key] = _readonly(held)
        while sum(h.nbytes for h in _VERIFY_INPUTS.values()) > VERIFY_CACHE_BYTES:
            del _VERIFY_INPUTS[next(iter(_VERIFY_INPUTS))]


# ---------------------------------------------------------------------------
# Superoperator (matrix) form
# ---------------------------------------------------------------------------


def superoperator_of(ch: KrausChannel) -> np.ndarray:
    """dim^2 x dim^2 sum_i conj(E_i) kron E_i on column-stacked vec(x) = x.flatten(order="F").

    A band channel's is its coherence-order blocks written into place.
    """
    n = ch.dim
    _check_bytes(n**4 * COMPLEX_BYTES, f"the superoperator at dim {n}")
    if ch._stored is not None:
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
    if ch._stored is None:
        yield slice(None), superoperator_of(ch)
        return
    for q in range(1 - ch.dim, ch.dim):
        yield _diagonal(-q, ch.dim), _coherence_block(ch, q)


def _coherence_block(ch: KrausChannel, q: int) -> np.ndarray:
    """A band channel's superoperator B_q on diagonal q of x: x[a, a+q] reads x[a+o, a+q+o]
    times M_o[a, a+q], and T adds to B_0, so B_0[c, a] is what |a><a| puts on |c><c|.

    Diagonal q of a vector's M_o is e[a] e[a+|q|] (a formed M_o is read as a square one)."""
    size = ch.dim - abs(q)
    block = np.zeros((size, size), dtype=np.result_type(float, *ch._stored.values()))
    for offset, m in ch._bands:
        if abs(offset) < size:
            length = size - abs(offset)
            block.reshape(-1)[_diagonal(offset, size)] = (
                m[:length] * m[abs(q):] if m.ndim == 1 else np.diagonal(m, q))
    if q == 0 and ch._transfer is not None:
        block += ch._transfer
    return block
