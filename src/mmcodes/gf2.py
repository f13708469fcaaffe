"""Dense GF(2) linear algebra on matrices held as Python-int rows.

A ``BitMatrix`` is a tuple of ints, one per row, with bit j holding column
j, plus its row and column counts.  A matrix is an immutable value.  Its
RREF and its transpose are computed on first use and kept on the matrix,
so every later ``rref``, ``rank``, ``kernel_basis``, ``transpose`` or
``col_ints`` of it reuses them.  Filling a cache is idempotent (it stores
a value determined by the rows), so matrices stay safe to share across
threads and forked workers.  A row XOR is a
single big-int operation however many columns the row spans, which beats
per-column numpy calls on the matrix sizes the distance engines see (tens
to a few hundred rows).  Row reduction costs, per pivot column, one scan
for the first row at or below the current rank with that bit set, and one
list comprehension that XORs the pivot row into every other row holding
the bit.

numpy touches matrices only here, at the array edge (``from_dense``,
``to_dense``) and in ``transpose`` and ``kernel_basis`` (up to 3.6x and 8x
slower on int rows); elsewhere it only draws random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GF2Error(Exception):
    pass


class DimensionMismatch(GF2Error):
    """Raised when two operands have incompatible shapes."""

    def __init__(self, op: str, shape_a, shape_b):
        self.op = op
        self.shape_a = tuple(shape_a)
        self.shape_b = tuple(shape_b)
        super().__init__(f"{op}: incompatible shapes {self.shape_a} and {self.shape_b}")

    def __reduce__(self):
        return type(self), (self.op, self.shape_a, self.shape_b)


class BitMatrix:
    """An immutable rows x cols matrix over GF(2).  ``ints[i]`` is row i as
    an int in [0, 2**cols), bit j = column j.

    ``_rref`` and ``_t`` hold the matrix's RREF and transpose once ``rref``
    and ``transpose`` have computed them.  They are derived from the rows,
    so they take no part in ``==``, ``hash``, ``repr`` or pickling."""

    __slots__ = ("rows", "cols", "ints", "_rref", "_t")

    def __init__(self, row_ints, cols: int):
        ints = tuple(row_ints)
        if cols < 0:
            raise GF2Error(f"negative column count {cols}")
        if ints and (min(ints) < 0 or max(ints) >> cols):
            raise GF2Error(f"a row does not fit in {cols} columns")
        self.rows = len(ints)
        self.cols = cols
        self.ints = ints
        self._rref = None
        self._t = None

    # ---- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        if rows < 0:
            raise GF2Error(f"negative dimensions {rows}x{cols}")
        return cls((0,) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls((1 << i for i in range(n)), n)

    @classmethod
    def from_dense(cls, dense) -> "BitMatrix":
        arr = np.asarray(dense, dtype=np.uint8) % 2
        if arr.ndim != 2:
            raise GF2Error("from_dense expects a 2-D array")
        packed = np.packbits(arr, axis=1, bitorder="little")
        buf, nbytes = packed.tobytes(), packed.shape[1]
        return cls(
            (int.from_bytes(buf[i * nbytes : (i + 1) * nbytes], "little")
             for i in range(len(packed))),
            arr.shape[1],
        )

    # ---- accessors ----------------------------------------------------

    def _row_bytes(self) -> bytes:
        """Each row as ceil(cols / 8) little-endian bytes, concatenated."""
        nbytes = (self.cols + 7) // 8
        return b"".join(x.to_bytes(nbytes, "little") for x in self.ints)

    def to_dense(self) -> np.ndarray:
        packed = np.frombuffer(self._row_bytes(), dtype=np.uint8)
        return np.unpackbits(
            packed.reshape(self.rows, (self.cols + 7) // 8),
            axis=1, count=self.cols, bitorder="little",
        )

    def row_ints(self) -> list[int]:
        return list(self.ints)

    def col_ints(self) -> list[int]:
        return transpose(self).row_ints()

    def row_weights(self) -> list[int]:
        return [x.bit_count() for x in self.ints]

    def is_zero(self) -> bool:
        return not any(self.ints)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def tobytes(self) -> bytes:
        """Canonical byte serialization: dims header plus packed row bytes."""
        return f"{self.rows}x{self.cols}:".encode() + self._row_bytes()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.cols == other.cols
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.cols, self.ints))

    def __repr__(self):
        return f"BitMatrix({self.rows}x{self.cols})"

    def __reduce__(self):
        return type(self), (self.ints, self.cols)


@dataclass(frozen=True)
class RrefCache:
    """Reduced row-echelon form of a matrix plus pivot bookkeeping.

    Membership queries reduce a vector against the pivot rows, costing
    O(rank) row XORs.
    """

    rref: BitMatrix
    pivot_cols: tuple[int, ...]
    rank: int

    @property
    def pivot_rows(self) -> tuple[int, ...]:
        """The first ``rank`` rows of ``rref``, as ints."""
        return self.rref.ints[: self.rank]


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Product over GF(2): output row i is the XOR of the rows of ``b``
    selected by the set bits of row i of ``a``."""
    if a.cols != b.rows:
        raise DimensionMismatch("mat_mul", a.shape, b.shape)
    out = []
    for x in a.ints:
        acc = 0
        while x:
            low = x & -x
            acc ^= b.ints[low.bit_length() - 1]
            x ^= low
        out.append(acc)
    return BitMatrix(out, b.cols)


def transpose(a: BitMatrix) -> BitMatrix:
    """The transpose of ``a``, computed once per matrix."""
    if a._t is None:
        a._t = BitMatrix.from_dense(a.to_dense().T)
    return a._t


def rref(a: BitMatrix) -> RrefCache:
    """The reduced row-echelon form of ``a``, computed once per matrix."""
    if a._rref is None:
        a._rref = _eliminate(a)
    return a._rref


def _eliminate(a: BitMatrix, order=None) -> RrefCache:
    """Gauss-Jordan elimination over GF(2) on int rows (see the module
    docstring), pivoting on the columns in ``order`` (default ascending):
    row for row the RREF of ``a`` with its columns so permuted, left in the
    original columns.  The reduced form is unique, whatever the pivot rows."""
    rows = a.row_ints()
    m = a.rows
    pivots: list[int] = []
    r = 0
    for c in range(a.cols) if order is None else order:
        if r == m:
            break
        bit = 1 << c
        for p in range(r, m):
            if rows[p] & bit:
                break
        else:
            continue
        pivot = rows[p]
        rows[p] = rows[r]
        rows = [x ^ pivot if x & bit else x for x in rows]
        rows[r] = pivot
        pivots.append(c)
        r += 1
    return RrefCache(rref=BitMatrix(rows, a.cols), pivot_cols=tuple(pivots), rank=r)


def rank(a: BitMatrix) -> int:
    return rref(a).rank


def kernel_basis(a: BitMatrix) -> BitMatrix:
    """Rows form a basis of the right null space {v : a v^T = 0}."""
    cache = rref(a)
    pivots = np.array(cache.pivot_cols, dtype=np.intp)
    free = np.setdiff1d(np.arange(a.cols), pivots)
    basis = np.zeros((len(free), a.cols), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = cache.rref.to_dense()[: cache.rank, free].T
    return BitMatrix.from_dense(basis)


def in_rowspace(cache: RrefCache, v: int) -> bool:
    """True iff the int bitset ``v`` (bit j = column j) is a GF(2)
    combination of the cached rows."""
    if v.bit_length() > cache.rref.cols:
        raise DimensionMismatch("in_rowspace", (cache.rref.cols,), (v.bit_length(),))
    for c, row in zip(cache.pivot_cols, cache.pivot_rows):
        if (v >> c) & 1:
            v ^= row
    return v == 0


def vstack(mats: list[BitMatrix]) -> BitMatrix:
    cols = mats[0].cols
    for m in mats:
        if m.cols != cols:
            raise DimensionMismatch("vstack", (cols,), m.shape)
    return BitMatrix((x for m in mats for x in m.ints), cols)
