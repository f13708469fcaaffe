"""Sparse text formats for check matrices: MacKay alist and MatrixMarket
coordinate pattern.  Both round-trip bit-exactly."""

from __future__ import annotations

from .gf2 import BitMatrix


class FormatError(Exception):
    pass


# Largest row or column count ``read_mtx`` accepts (the bundled codes have
# at most 1,024), so a size line alone cannot make it allocate gigabytes.
MTX_MAX_DIM = 1 << 20


def _ones(x: int) -> list[int]:
    """The 1-based positions of the set bits of ``x``, ascending."""
    return [j + 1 for j in range(x.bit_length()) if x >> j & 1]


def write_alist(m: BitMatrix) -> str:
    """MacKay alist: header "cols rows", max column/row weights, per-column
    weights, per-row weights, then 1-indexed per-column and per-row index
    lists (unpadded)."""
    col_lists = [_ones(c) for c in m.col_ints()]
    row_lists = [_ones(r) for r in m.ints]
    col_w = [len(c) for c in col_lists]
    row_w = [len(r) for r in row_lists]
    lines = [
        f"{m.cols} {m.rows}",
        f"{max(col_w, default=0)} {max(row_w, default=0)}",
        " ".join(map(str, col_w)),
        " ".join(map(str, row_w)),
    ]
    lines += [" ".join(map(str, c)) for c in col_lists]
    lines += [" ".join(map(str, r)) for r in row_lists]
    return "\n".join(lines) + "\n"


def read_alist(text: str) -> BitMatrix:
    lines = text.splitlines()
    if len(lines) < 4:
        raise FormatError("alist: truncated header")
    try:
        cols, rows = map(int, lines[0].split())
        max_w, col_w, row_w = (list(map(int, lines[k].split())) for k in (1, 2, 3))
        lists = [[i for i in map(int, ln.split()) if i]
                 for ln in lines[4:4 + cols + rows]]
    except ValueError as exc:
        raise FormatError(f"alist: bad integer: {exc}") from exc
    if len(col_w) != cols or len(row_w) != rows:
        raise FormatError("alist: weight list lengths do not match header")
    if max_w != [max(col_w, default=0), max(row_w, default=0)]:
        raise FormatError(f"alist: line 2 {max_w} is not the largest column "
                          "and row weights")
    if len(lists) != cols + rows:
        raise FormatError("alist: missing index lists")
    ints = [0] * rows
    for j, idx in enumerate(lists[:cols]):
        if len({i for i in idx if 0 < i <= rows}) != len(idx) or len(idx) != col_w[j]:
            raise FormatError(f"alist: column {j + 1} does not list {col_w[j]} "
                              f"distinct rows in 1..{rows}")
        for i in idx:
            ints[i - 1] |= 1 << j
    for i, idx in enumerate(lists[cols:]):
        if sorted(idx) != _ones(ints[i]) or len(idx) != row_w[i]:
            raise FormatError(f"alist: row {i + 1} inconsistent with columns")
    return BitMatrix(ints, cols)


MTX_HEADER = "%%MatrixMarket matrix coordinate pattern general"


def write_mtx(m: BitMatrix) -> str:
    entries = [f"{i + 1} {j}" for i, x in enumerate(m.ints) for j in _ones(x)]
    lines = [MTX_HEADER, f"{m.rows} {m.cols} {len(entries)}", *entries]
    return "\n".join(lines) + "\n"


def read_mtx(text: str) -> BitMatrix:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("%")]
    if not lines:
        raise FormatError("mtx: empty input")
    if not text.lstrip().startswith("%%MatrixMarket"):
        raise FormatError("mtx: missing MatrixMarket banner")
    try:
        rows, cols, nnz = map(int, lines[0].split())
        if not (0 <= rows <= MTX_MAX_DIM and 0 <= cols <= MTX_MAX_DIM):
            raise FormatError(f"mtx: size {rows}x{cols} outside 0..{MTX_MAX_DIM}")
        entries = [(int(i), int(j)) for i, j, *_ in map(str.split, lines[1:])]
    except ValueError as exc:
        raise FormatError(f"mtx: bad size line or entry: {exc}") from exc
    if len(entries) != nnz:
        raise FormatError(f"mtx: expected {nnz} entries, got {len(entries)}")
    ints = [0] * rows
    for i, j in entries:
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise FormatError(f"mtx: entry ({i},{j}) out of range")
        if ints[i - 1] >> (j - 1) & 1:
            raise FormatError(f"mtx: entry ({i},{j}) repeated")
        ints[i - 1] |= 1 << (j - 1)
    return BitMatrix(ints, cols)
