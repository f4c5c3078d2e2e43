"""Band storage of a channel: what ``KrausChannel`` folds its bands, multipliers and
transfer matrix into, and how a dense stack is read back as bands or a multiplier as
Kraus rows. The kernels that read the storage are in :mod:`subchan.channels`.

One map. The storage is {offset: band} by ascending offset, a band being
its vector e for M_o = e^T e or its square M_o, told apart by ``m.ndim``.
A lone one-row band of float64 entries with no sign bit set, none so large
that its square overflows, is kept as its vector: dim - |o| floats instead
of (dim - |o|)^2. Its entries e[a] e[b] carry the value and the sign of the
one-row GEMM that would form M_o, and every reader forms what it needs from
e as those products: ``multipliers`` and a kernel a block (``_outer``),
whole or on the window, the coherence blocks and Fock-level tables their
entries. Amplitude damping is such a band on every offset, O(dim^2) floats
in all; its one-entry band on offset dim - 1 is a vector of length 1.
Complex, signed or multi-row bands, and square multipliers passed in, stay
square. A channel's vectors view one array.

The transfer matrix. Other bands whose terms are single matrix units go into
the population-transfer matrix T, which is always dense: the ``transfer``
passed in, or zeros, with the unit bands added on.

Diagonal o of an n x n array is addressed as one strided slice of its
flattening, ``_diagonal(o, n)``.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import accumulate

import numpy as np

from .errors import ConstraintError


# The largest float whose square is finite: a vector of entries at most this has finite
# products e[a] e[b], so a kernel that skips its zero terms skips no inf * 0 = NaN.
_FINITE_SQUARE = np.sqrt(np.finfo(float).max)


def _diagonal(offset: int, n: int) -> slice:
    """Flat positions of diagonal ``offset`` of a C-ordered n x n array, by ascending row."""
    if offset >= 0:
        return slice(offset, n * (n - offset), n + 1)
    return slice(-offset * n, n * n, n + 1)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _outer(e: np.ndarray) -> np.ndarray:
    """e[a] e[b]: the block of M_o = e^T e on the levels of e."""
    return e[:, np.newaxis] * e[np.newaxis, :]


def _float_or_complex(a) -> np.ndarray:
    a = np.asarray(a)
    return a if a.dtype.kind in "fc" else a.astype(float)


def _fold(bands, multipliers, transfer):
    """(dim, {offset: vector or square M_o} by ascending offset, term counts, dense T or None).

    On each offset, a lone one-row band of float64 entries with no sign bit
    set is kept as its vector e, even with a single nonzero: M_o = e^T e is
    then e[a] e[b] entry for entry, the value and sign of the one-row GEMM
    that would form it. A band with an entry past _FINITE_SQUARE, whose M_o
    overflows, stays square. Any other band whose terms each hold exactly
    one nonzero entry goes into T, its squared entries summed per position.
    The rest become e^T conj(e) (one GEMM, a real one for real terms),
    summed per offset with the square multipliers given there; a band
    counts its terms and a square multiplier its size.

    T starts as a float copy of ``transfer`` (checked real and nonnegative),
    or as zeros, and the unit bands are added on their diagonals.
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
    flat = np.concatenate([a.ravel() for _, _, a in parts])
    if not np.isfinite(flat).all():
        name = next(name for name, _, a in parts if not np.isfinite(a).all())
        raise ValueError(f"{name} holds a non-finite entry")
    if transfer is not None:
        transfer = parts.pop()[2]
        if transfer.dtype.kind == "c" or transfer.min() < 0:
            raise ValueError("transfer must be real and nonnegative")
    # Per band, from one pass each over all of them (they lead ``parts`` and ``flat``):
    # its nonzero entries, and whether any entry has its sign bit set or is past
    # _FINITE_SQUARE: either keeps it square.
    sizes = [a.size for name, _, a in parts if name[:4] == "band"]
    counts = unfit = []
    if sizes:
        starts, flat = list(accumulate(sizes[:-1], initial=0)), flat[:sum(sizes)]
        counts = np.add.reduceat(flat != 0, starts, dtype=np.intp).tolist()
        unfit = np.signbit(flat.real) | (flat.real > _FINITE_SQUARE)
        unfit = np.logical_or.reduceat(unfit, starts).tolist()
    del flat  # a copy of every part: not held while the multipliers are built
    grouped = {}
    for i, (_, offset, a) in enumerate(parts):
        grouped.setdefault(offset, []).append((i, a))
    stored, ranks, moved = {}, {}, []
    for offset in sorted(grouped):
        (i, a), *others = grouped[offset]
        if not others and i < len(sizes) and len(a) == 1 and a.dtype == np.float64 and not unfit[i]:
            stored[offset], ranks[offset] = a[0], 1
            continue
        square, terms = [], 0
        for i, a in grouped[offset]:
            band = i < len(sizes)
            if band and counts[i] == len(a) and (
                    len(a) == 1 or np.all(np.count_nonzero(a, axis=1) == 1)):
                moved.append((offset, (np.abs(a) ** 2).sum(axis=0)))
            else:
                square.append(a.T @ a.conj() if band else a.copy())
                terms += len(a)
        if square:
            stored[offset], ranks[offset] = _readonly(sum(square[1:], square[0])), terms
    vectors = [offset for offset, m in stored.items() if m.ndim == 1]
    if vectors:  # copied into one array, whose views take their places in the map
        held = _readonly(np.concatenate([stored[offset] for offset in vectors]))
        start = 0
        for offset in vectors:
            end = start + len(stored[offset])
            stored[offset], start = held[start:end], end
    t = None
    if transfer is not None or moved:
        t = np.zeros((n, n)) if transfer is None else np.array(transfer, dtype=float)
        for offset, weights in moved:
            t.reshape(-1)[_diagonal(offset, n)] += weights
    return n, stored, ranks, _readonly(t) if t is not None and t.any() else None


def _factor(m: np.ndarray, terms: int) -> np.ndarray:
    """``terms`` rows e_i with sum_i e_i[a] conj(e_i[b]) = m[a, b]: a pivoted Cholesky factor.

    Each step pivots on the largest remaining diagonal entry; once all of
    them are at most size * eps times the largest diagonal entry of ``m``
    the rest of the rows stay zero. Pivoting is what lets the exact phase
    damping multiplier through: it is positive definite but numerically
    singular for eta near 1, where a plain Cholesky fails. A row is scaled
    as (column / pivot) * sqrt(pivot), so a multiplier c J, J all ones,
    yields sqrt(c) exactly. A PSD ``m`` leaves a residual of about 0; one whose largest
    |entry| exceeds 1e-12 times m's plus the smallest normal float is no such m, and
    raises ConstraintError rather than factor a different multiplier.
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
    left = float(np.abs(residual).max())
    if left > 1e-12 * float(np.abs(m).max()) + np.finfo(float).tiny:
        raise ConstraintError(f"multiplier is not positive semidefinite: its factor leaves "
                              f"a residual entry of {left:.3e}", residual=left)
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


class _Multipliers(Mapping):
    """Read-only {offset: M_o} of a band channel by ascending offset, each formed by the
    channel's ``_multiplier`` on each read; ``KrausChannel.multipliers``."""

    def __init__(self, ch):
        self._channel = ch

    def __getitem__(self, offset: int) -> np.ndarray:
        return self._channel._multiplier(offset)  # KeyError for an offset it does not hold

    def __iter__(self):
        return iter(self._channel._stored)

    def __len__(self) -> int:
        return len(self._channel._stored)
