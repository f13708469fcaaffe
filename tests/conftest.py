"""Shared test oracles, implemented independently of the library internals.

The oracles deliberately use different data structures (dense uint8 arrays,
Python sets of column indices) than the bit-packed implementation they
check.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from mmcodes.gf2 import BitMatrix
from mmcodes.ring import GroupSpec, RingElem
from mmcodes.search import SearchConfig

# Every run draws the same examples, so the suite's outcome and time do not
# depend on the run; each test's own ``max_examples`` still applies.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# The benchmark's search workload configuration (``bench/workloads.py``), at
# seed 0.
BENCH_SEARCH = SearchConfig(
    t=4,
    orders=((2, 2, 2, 2), (2, 2, 2, 3)),
    structured_families=("(1+v_a)(1+v_b v_c)", "1+v_a v_b"),
    distance_budget=(3, 30),
    require_k_min=2,
    require_d_min=3,
    max_candidates=50,
    seed=0,
    workers=2,
)


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


def to_int(v) -> int:
    """A 0/1 vector as the int bitset ``in_rowspace`` takes (bit j = v[j])."""
    return BitMatrix.from_dense([v]).ints[0]


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


@st.composite
def spec_and_elems(draw, count: int):
    """A group of 1-4 cyclic factors (orders of 1 allowed, |G| <= 64) and
    ``count`` ring elements of 0-5 monomials, exponents drawn past the
    orders so that they wrap."""
    orders = []
    for _ in range(draw(st.integers(1, 4))):
        orders.append(draw(st.integers(1, min(16, 64 // int(np.prod(orders))))))
    spec = GroupSpec(tuple(orders))
    exps = st.tuples(*(st.integers(0, 2 * o) for o in orders))
    return spec, [RingElem(spec, tuple(draw(st.lists(exps, max_size=5))))
                  for _ in range(count)]


# ---- dense references of the int-row builders and formats --------------


def dense_poly_to_circulant(f, spec) -> BitMatrix:
    """The circulant of ``f`` filled into a dense array column by column:
    column j holds a one at the index each monomial shifts j to."""
    n, orders = spec.size, spec.orders
    dense = np.zeros((n, n), dtype=np.uint8)
    for j in range(n):
        idxs = spec.index_to_exponents(j)
        for mono in f.monomials:
            row = 0
            for k in range(spec.dim):
                row = row * orders[k] + (idxs[k] + mono[k]) % orders[k]
            dense[row, j] ^= 1
    return BitMatrix.from_dense(dense)


def dense_instantiate(sym, gens, spec) -> list[BitMatrix]:
    """The Koszul maps with each circulant block copied into a dense
    array at its grid cell."""
    circs = [dense_poly_to_circulant(g, spec).to_dense() for g in gens]
    n = spec.size
    out = []
    for k in range(1, sym.t + 1):
        br, bc = sym.block_shape(k)
        dense = np.zeros((br * n, bc * n), dtype=np.uint8)
        for (i, j), s in sym.maps[k - 1].items():
            dense[i * n : (i + 1) * n, j * n : (j + 1) * n] = circs[s - 1]
        out.append(BitMatrix.from_dense(dense))
    return out


def dense_write_alist(m: BitMatrix) -> str:
    """MacKay alist from the dense array's nonzero positions."""
    dense = m.to_dense()
    col_lists = [list(np.nonzero(dense[:, j])[0] + 1) for j in range(m.cols)]
    row_lists = [list(np.nonzero(dense[i, :])[0] + 1) for i in range(m.rows)]
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


def dense_read_alist(text: str) -> BitMatrix:
    """A well-formed alist read into a dense array from its column lists."""
    lines = text.splitlines()
    cols, rows = map(int, lines[0].split())
    dense = np.zeros((rows, cols), dtype=np.uint8)
    for j in range(cols):
        for i in (int(v) for v in lines[4 + j].split() if int(v) != 0):
            dense[i - 1, j] = 1
    return BitMatrix.from_dense(dense)


def dense_write_mtx(m: BitMatrix) -> str:
    """MatrixMarket coordinates from the dense array's nonzero positions,
    in row-major order."""
    rr, cc = np.nonzero(m.to_dense())
    lines = ["%%MatrixMarket matrix coordinate pattern general",
             f"{m.rows} {m.cols} {len(rr)}"]
    lines += [f"{i + 1} {j + 1}" for i, j in zip(rr, cc)]
    return "\n".join(lines) + "\n"


def dense_read_mtx(text: str) -> BitMatrix:
    """A well-formed MatrixMarket pattern read into a dense array."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("%")]
    rows, cols, _ = map(int, lines[0].split())
    dense = np.zeros((rows, cols), dtype=np.uint8)
    for ln in lines[1:]:
        i, j = map(int, ln.split()[:2])
        dense[i - 1, j - 1] = 1
    return BitMatrix.from_dense(dense)


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
