"""Shared test oracles, implemented independently of the library internals.

The oracles deliberately use different data structures (dense uint8 arrays,
Python sets of column indices) than the bit-packed implementation they
check.
"""

import numpy as np
import pytest
from hypothesis import settings

from mmcodes.gf2 import BitMatrix

# Every run draws the same examples, so the suite's outcome and time do not
# depend on the run; each test's own ``max_examples`` still applies.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def naive_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop product mod 2."""
    n, m = a.shape
    m2, p = b.shape
    assert m == m2
    out = np.zeros((n, p), dtype=np.uint8)
    for i in range(n):
        for k in range(m):
            if a[i, k]:
                for j in range(p):
                    out[i, j] ^= b[k, j]
    return out


def oracle_rank(dense: np.ndarray) -> int:
    """Row elimination on sets of column indices."""
    rows = [set(np.nonzero(r)[0].tolist()) for r in dense]
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        pivot_row = min(rows, key=min)
        rows.remove(pivot_row)
        pc = min(pivot_row)
        rows = [r ^ pivot_row if pc in r else r for r in rows]
        rows = [r for r in rows if r]
        rank += 1
    return rank


def oracle_rref(dense: np.ndarray):
    """Gauss-Jordan elimination on a dense uint8 array, one column and one
    row at a time: (reduced matrix, pivot columns, rank)."""
    a = np.array(dense, dtype=np.uint8) % 2
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = [i for i in range(r, rows) if a[i, c]]
        if not hits:
            continue
        a[[r, hits[0]]] = a[[hits[0], r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        pivots.append(c)
        r += 1
    return a, tuple(pivots), r


def oracle_in_rowspace(dense: np.ndarray, v: np.ndarray) -> bool:
    stacked = np.vstack([dense, v[None, :]])
    return oracle_rank(stacked) == oracle_rank(dense)


def random_dense(rng: np.random.Generator, rows: int, cols: int, p=0.4):
    return (rng.random((rows, cols)) < p).astype(np.uint8)


def random_bitmatrix(rng: np.random.Generator, rows: int, cols: int, p=0.4):
    return BitMatrix.from_dense(random_dense(rng, rows, cols, p))


def shift_matrix(order: int, power: int) -> np.ndarray:
    s = np.zeros((order, order), dtype=np.uint8)
    s[(np.arange(order) + power) % order, np.arange(order)] = 1
    return s


def kron_circulant(orders, monomials) -> np.ndarray:
    """Kronecker-product construction of a multivariate circulant."""
    n = int(np.prod(orders))
    out = np.zeros((n, n), dtype=np.uint8)
    for exps in monomials:
        m = np.ones((1, 1), dtype=np.uint8)
        for o, e in zip(orders, exps):
            m = np.kron(m, shift_matrix(o, e))
        out ^= m
    return out


def reference_translation_roots(code, h, stab) -> range:
    """Block origins if shifting every block of |G| columns by one unit of
    each cyclic factor permutes the rows of ``h`` and of ``stab`` (compared
    as sorted packed dense rows, the columns permuted by index arrays);
    otherwise every column."""
    size, n = code.spec.size, h.cols
    if n % size:
        return range(n)

    def rows(d: np.ndarray) -> list[bytes]:
        return sorted(map(bytes, np.packbits(d, axis=1)))

    col = np.arange(n)
    dense = [m.to_dense() for m in (h, stab)]
    want = [rows(d) for d in dense]
    stride = 1
    for order in reversed(code.spec.orders):
        digit = col % size // stride % order
        shift = col + stride * ((digit + 1) % order - digit)
        stride *= order
        if [rows(d[:, shift]) for d in dense] != want:
            return range(n)
    return range(0, n, size)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
