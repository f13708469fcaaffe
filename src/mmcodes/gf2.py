"""Dense GF(2) linear algebra on bit-packed matrices.

Rows are packed into uint64 words, LSB-first within each word; padding bits
beyond ``cols`` are always zero.  Matrices are immutable after construction
and safe to share across threads read-only.

Row reduction runs on Python ints, one int per row with bit j holding column
j.  The packed words are converted once with ``int.from_bytes``; each pivot
column then costs one scan for the first row at or below the current rank
with that bit set, and one list comprehension that XORs the pivot row into
every other row holding the bit.  A row XOR is a single big-int operation
however many words the row spans, so this beats per-column numpy calls on
the matrix sizes the distance engines see (tens to a few hundred rows).
The reduced rows are packed back once with ``int.to_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORD = 64
# Most packed words of ``b`` that ``mat_mul`` gathers at once.
MAT_MUL_BLOCK_BYTES = 32 * 2**20


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


def _nwords(cols: int) -> int:
    return max(1, (cols + WORD - 1) // WORD)


def _popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words)


def _words_to_ints(words: np.ndarray) -> list[int]:
    """Each row of packed words as one int, bit j = column j."""
    step = words.shape[1] * 8
    buf = words.astype("<u8", copy=False).tobytes()
    return [
        int.from_bytes(buf[i : i + step], "little")
        for i in range(0, len(buf), step)
    ]


def _ints_to_words(row_ints, cols: int) -> np.ndarray:
    """Inverse of ``_words_to_ints``: a fresh, writeable (rows, nwords)
    uint64 array."""
    nw = _nwords(cols)
    buf = bytearray(b"".join(r.to_bytes(nw * 8, "little") for r in row_ints))
    words = np.frombuffer(buf, dtype="<u8").reshape(len(row_ints), nw)
    return words.astype(np.uint64, copy=False)


class BitMatrix:
    """An immutable rows x cols matrix over GF(2), rows bit-packed in uint64."""

    __slots__ = ("rows", "cols", "words")

    def __init__(self, rows: int, cols: int, words: np.ndarray):
        if rows < 0 or cols < 0:
            raise GF2Error(f"negative dimensions {rows}x{cols}")
        assert words.shape == (rows, _nwords(cols))
        self.rows = rows
        self.cols = cols
        self.words = words
        self._mask_padding()
        self.words.flags.writeable = False

    def _mask_padding(self):
        rem = self.cols % WORD
        if rem and self.rows:
            self.words[:, -1] &= np.uint64((1 << rem) - 1)
        if self.cols == 0:
            self.words[:] = 0

    # ---- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, np.zeros((rows, _nwords(cols)), dtype=np.uint64))

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        w = np.zeros((n, _nwords(n)), dtype=np.uint64)
        for i in range(n):
            w[i, i // WORD] = np.uint64(1) << np.uint64(i % WORD)
        return cls(n, n, w)

    @classmethod
    def from_dense(cls, dense) -> "BitMatrix":
        arr = np.asarray(dense, dtype=np.uint8) % 2
        if arr.ndim != 2:
            raise GF2Error("from_dense expects a 2-D array")
        rows, cols = arr.shape
        nw = _nwords(cols)
        padded = np.zeros((rows, nw * 8), dtype=np.uint8)
        if cols:
            padded[:, : (cols + 7) // 8] = np.packbits(arr, axis=1, bitorder="little")
        words = padded.view(np.uint64).reshape(rows, nw).copy()
        return cls(rows, cols, words)

    @classmethod
    def from_row_ints(cls, row_ints, cols: int) -> "BitMatrix":
        return cls(len(row_ints), cols, _ints_to_words(row_ints, cols))

    # ---- accessors ----------------------------------------------------

    def get(self, i: int, j: int) -> int:
        return int((self.words[i, j // WORD] >> np.uint64(j % WORD)) & np.uint64(1))

    def to_dense(self) -> np.ndarray:
        if self.cols == 0 or self.rows == 0:
            return np.zeros((self.rows, self.cols), dtype=np.uint8)
        bits = np.unpackbits(
            self.words.view(np.uint8).reshape(self.rows, -1), axis=1, bitorder="little"
        )
        return bits[:, : self.cols]

    def row_ints(self) -> list[int]:
        return _words_to_ints(self.words)

    def col_ints(self) -> list[int]:
        return transpose(self).row_ints()

    def row_weights(self) -> np.ndarray:
        if self.rows == 0:
            return np.zeros(0, dtype=np.int64)
        return _popcount(self.words).sum(axis=1).astype(np.int64)

    def is_zero(self) -> bool:
        return not self.words.any()

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def tobytes(self) -> bytes:
        """Canonical byte serialization: dims header plus packed row bytes."""
        nbytes = (self.cols + 7) // 8
        body = self.words.view(np.uint8).reshape(self.rows, -1)[:, :nbytes].tobytes()
        return f"{self.rows}x{self.cols}:".encode() + body

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.shape == other.shape
            and bool(np.array_equal(self.words, other.words))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.words.tobytes()))

    def __repr__(self):
        return f"BitMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class RrefCache:
    """Reduced row-echelon form of a matrix plus pivot bookkeeping.

    Membership queries reduce a vector against the pivot rows, costing
    O(rank) row XORs.  ``pivot_rows`` holds the first ``rank`` rows of
    ``rref`` as ints.
    """

    rref: BitMatrix
    pivot_cols: tuple[int, ...]
    rank: int
    pivot_rows: tuple[int, ...] = field(repr=False, compare=False)


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Product over GF(2).  Each output row is the XOR of the rows of ``b``
    selected by the bits of the corresponding row of ``a``: the selected
    packed rows of ``b`` are gathered in row-of-``a`` order and each
    output row's run is XOR-reduced by one ``reduceat``.  The set bits of
    ``a`` go in blocks that keep the gathered words under
    ``MAT_MUL_BLOCK_BYTES``; a row split between blocks XORs in twice."""
    if a.cols != b.rows:
        raise DimensionMismatch("mat_mul", a.shape, b.shape)
    out = np.zeros((a.rows, _nwords(b.cols)), dtype=np.uint64)
    rows, cols = np.nonzero(a.to_dense())
    step = max(1, MAT_MUL_BLOCK_BYTES // out.shape[1] // 8)
    for lo in range(0, rows.size, step):
        r = rows[lo : lo + step]
        starts = np.flatnonzero(np.diff(r, prepend=-1))
        out[r[starts]] ^= np.bitwise_xor.reduceat(
            b.words[cols[lo : lo + step]], starts, axis=0
        )
    return BitMatrix(a.rows, b.cols, out)


def transpose(a: BitMatrix) -> BitMatrix:
    return BitMatrix.from_dense(a.to_dense().T)


def rref(a: BitMatrix) -> RrefCache:
    """Gauss-Jordan elimination over GF(2) on int rows (see the module
    docstring).  The reduced form is unique, so the result does not depend
    on the pivot-row choice."""
    rows = a.row_ints()
    m = a.rows
    pivots: list[int] = []
    r = 0
    for c in range(a.cols):
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
    reduced = BitMatrix(m, a.cols, _ints_to_words(rows, a.cols))
    return RrefCache(
        rref=reduced, pivot_cols=tuple(pivots), rank=r, pivot_rows=tuple(rows[:r])
    )


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


def in_rowspace(cache: RrefCache, v) -> bool:
    """True iff ``v`` is a GF(2) combination of the cached rows.

    ``v`` may be a Python-int bitset or any 0/1 sequence of length cols.
    """
    if isinstance(v, int):
        x = v
        if x.bit_length() > cache.rref.cols:
            raise DimensionMismatch(
                "in_rowspace", (cache.rref.cols,), (x.bit_length(),)
            )
    else:
        vv = np.asarray(v, dtype=np.uint8) % 2
        if vv.shape != (cache.rref.cols,):
            raise DimensionMismatch("in_rowspace", (cache.rref.cols,), vv.shape)
        x = int.from_bytes(
            np.packbits(vv, bitorder="little").tobytes(), "little"
        )
    rows = cache.pivot_rows
    for i, c in enumerate(cache.pivot_cols):
        if (x >> c) & 1:
            x ^= rows[i]
    return x == 0


def vstack(mats: list[BitMatrix]) -> BitMatrix:
    cols = mats[0].cols
    for m in mats:
        if m.cols != cols:
            raise DimensionMismatch("vstack", (cols,), m.shape)
    words = np.vstack([m.words for m in mats])
    return BitMatrix(sum(m.rows for m in mats), cols, words.copy())
