import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcodes import gf2
from mmcodes.gf2 import (
    BitMatrix,
    DimensionMismatch,
    GF2Error,
    in_rowspace,
    kernel_basis,
    mat_mul,
    rank,
    rref,
    transpose,
    vstack,
)

from conftest import (
    dense,
    naive_mul,
    oracle_in_rowspace,
    oracle_rank,
    oracle_rref,
    packed,
    random_dense,
    to_int,
)


@st.composite
def dense_matrices(draw, max_dim=64):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_dense(np.random.default_rng(seed), rows, cols)


@st.composite
def shaped_matrices(draw):
    """Matrices around the word boundaries, including empty, rank-deficient
    and duplicate-row ones."""
    rows = draw(st.integers(0, 24))
    cols = draw(st.sampled_from([0, 1, 7, 63, 64, 65, 129]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "sparse", "low_rank", "duplicate"]))
    if kind == "random":
        return random_dense(rng, rows, cols, p=0.5)
    if kind == "sparse":
        return random_dense(rng, rows, cols, p=0.05)
    if kind == "low_rank":
        inner = draw(st.integers(0, 4))
        left = random_dense(rng, rows, inner)
        right = random_dense(rng, inner, cols)
        return (left.astype(np.int64) @ right % 2).astype(np.uint8)
    base = random_dense(rng, max(1, rows // 3), cols)
    return base[rng.integers(len(base), size=rows)]


class TestBitMatrix:
    def test_dense_round_trip(self, rng):
        d = random_dense(rng, 13, 70)
        assert BitMatrix.from_dense(d).to_dense() == d.tolist()

    def test_padding_is_zero(self, rng):
        """No row holds a bit at or above ``cols``: ``from_dense`` never
        makes one, and the constructor rejects one, as it does a negative
        row (whose two's-complement bits run on forever)."""
        m = BitMatrix.from_dense(random_dense(rng, 5, 65, p=1.0))
        assert all(0 <= x < 2**65 for x in m.row_ints())
        for row_ints, cols in [([1 << 65], 65), ([0, 1 << 70], 65), ([1], 0),
                               ([-1], 65), ([3, -(1 << 64)], 65)]:
            with pytest.raises(GF2Error):
                BitMatrix(row_ints, cols)

    def test_empty_shapes(self):
        assert BitMatrix.zeros(0, 5).shape == (0, 5)
        assert BitMatrix.zeros(5, 0).shape == (5, 0)
        assert BitMatrix.zeros(0, 5).is_zero()

    def test_row_int_round_trip(self, rng):
        d = random_dense(rng, 4, 130)
        m = BitMatrix.from_dense(d)
        m2 = BitMatrix(m.row_ints(), 130)
        assert m == m2

    def test_col_ints_match_transpose(self, rng):
        m = BitMatrix.from_dense(random_dense(rng, 9, 17))
        assert m.col_ints() == transpose(m).row_ints()

    def test_row_weights(self, rng):
        d = random_dense(rng, 8, 100)
        m = BitMatrix.from_dense(d)
        assert np.array_equal(m.row_weights(), d.sum(axis=1))

    def test_tobytes_header_and_stability(self, rng):
        d = random_dense(rng, 3, 10)
        m = BitMatrix.from_dense(d)
        assert m.tobytes().startswith(b"3x10:")
        assert m.tobytes() == BitMatrix.from_dense(d).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(m=shaped_matrices())
    def test_tobytes_is_header_plus_packed_rows(self, m):
        """The canonical bytes hashed into manifests: ``RxC:`` and then each
        row as ceil(cols / 8) bytes, column j at bit j % 8 of byte j // 8."""
        rows, cols = m.shape
        body = np.packbits(m, axis=1, bitorder="little").tobytes()
        want = f"{rows}x{cols}:".encode() + body
        assert packed(m).tobytes() == want

    def test_immutable(self, rng):
        m = BitMatrix.from_dense(random_dense(rng, 3, 3))
        with pytest.raises(TypeError):
            m.ints[0] = 1


class TestMatMul:
    def test_identity(self, rng):
        m = BitMatrix.from_dense(random_dense(rng, 3, 20))
        assert mat_mul(BitMatrix.identity(3), m) == m

    def test_swap_involution(self):
        s = BitMatrix.from_dense([[0, 1], [1, 0]])
        assert mat_mul(s, s) == BitMatrix.identity(2)

    def test_against_naive_oracle(self, rng):
        a = random_dense(rng, 64, 64)
        b = random_dense(rng, 64, 64)
        got = mat_mul(BitMatrix.from_dense(a), BitMatrix.from_dense(b))
        assert np.array_equal(dense(got), naive_mul(a, b))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch) as ei:
            mat_mul(BitMatrix.zeros(2, 3), BitMatrix.zeros(4, 2))
        assert ei.value.shape_a == (2, 3)
        assert ei.value.shape_b == (4, 2)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(0, 24),
        inner=st.sampled_from([0, 1, 7, 63, 64, 65, 129]),
        cols=st.sampled_from([0, 1, 7, 63, 64, 65, 129]),
        density=st.sampled_from([0.05, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_product(self, rows, inner, cols, density, seed):
        r = np.random.default_rng(seed)
        a = random_dense(r, rows, inner, p=density)
        b = random_dense(r, inner, cols, p=0.5)
        got = mat_mul(packed(a), packed(b))
        assert got.shape == (rows, cols)
        want = (a.astype(np.int64) @ b.astype(np.int64)) % 2
        assert np.array_equal(dense(got), want)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_associativity(self, seed):
        r = np.random.default_rng(seed)
        a = BitMatrix.from_dense(random_dense(r, 10, 12))
        b = BitMatrix.from_dense(random_dense(r, 12, 9))
        c = BitMatrix.from_dense(random_dense(r, 9, 11))
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


class TestRref:
    def test_zero_matrix(self):
        cache = rref(BitMatrix.zeros(4, 6))
        assert cache.rank == 0
        assert cache.pivot_cols == ()

    def test_identity(self):
        cache = rref(BitMatrix.identity(5))
        assert cache.rank == 5
        assert cache.pivot_cols == (0, 1, 2, 3, 4)

    def test_equal_rows(self):
        m = BitMatrix.from_dense([[1, 1, 1, 0], [1, 1, 1, 0]])
        assert rank(m) == 1

    @settings(max_examples=50, deadline=None)
    @given(m=dense_matrices(40))
    def test_rank_matches_oracle(self, m):
        assert rank(BitMatrix.from_dense(m)) == oracle_rank(m)

    @settings(max_examples=25, deadline=None)
    @given(m=dense_matrices(32))
    def test_rank_of_transpose(self, m):
        bm = BitMatrix.from_dense(m)
        assert rank(bm) == rank(transpose(bm))

    def test_pivot_cols_strictly_increasing(self, rng):
        cache = rref(BitMatrix.from_dense(random_dense(rng, 20, 30)))
        assert list(cache.pivot_cols) == sorted(set(cache.pivot_cols))
        assert cache.rank == len(cache.pivot_cols)


    @settings(max_examples=150, deadline=None)
    @given(m=shaped_matrices())
    def test_matches_dense_gauss_jordan(self, m):
        reduced, pivots, r = oracle_rref(m)
        cache = rref(packed(m))
        assert np.array_equal(dense(cache.rref), reduced)
        assert cache.pivot_cols == pivots
        assert cache.rank == r
        assert list(cache.pivot_rows) == cache.rref.row_ints()[:r]
        kb = kernel_basis(packed(m))
        assert kb.shape == (m.shape[1] - r, m.shape[1])
        assert not (m.astype(np.int64) @ dense(kb).T % 2).any()

    @settings(max_examples=150, deadline=None)
    @given(m=shaped_matrices(), data=st.data())
    def test_pivot_order_is_a_column_permutation(self, m, data):
        """Pivoting in ``order`` gives the RREF of the matrix with its
        columns permuted into ``order``, row for row, in the original
        columns.  About 0.6 s."""
        order = data.draw(st.permutations(range(m.shape[1])))
        reduced, pivots, r = oracle_rref(m[:, order])
        back = np.zeros_like(reduced)
        back[:, order] = reduced
        got = gf2._eliminate(packed(m), order)
        assert np.array_equal(dense(got.rref), back)
        assert got.pivot_cols == tuple(order[c] for c in pivots)
        assert got.rank == r


class TestKernel:
    def test_identity_empty_kernel(self):
        kb = kernel_basis(BitMatrix.identity(4))
        assert kb.shape == (0, 4)

    def test_parity_vector(self):
        kb = kernel_basis(BitMatrix.from_dense([[1, 1]]))
        assert kb.to_dense() == [[1, 1]]

    @settings(max_examples=40, deadline=None)
    @given(m=dense_matrices(32))
    def test_rank_nullity_and_annihilation(self, m):
        bm = BitMatrix.from_dense(m)
        kb = kernel_basis(bm)
        assert kb.rows == bm.cols - rank(bm)
        if kb.rows:
            assert mat_mul(bm, transpose(kb)).is_zero()
        assert rank(kb) == kb.rows

    @settings(max_examples=150, deadline=None)
    @given(m=shaped_matrices())
    def test_rows_match_reduced_form(self, m):
        """The basis itself is pinned, not only its span, because ISD's
        output depends on its exact rows: row i is 1 on the i-th free column
        and, on each pivot column, the reduced row's entry there."""
        reduced, pivots, _ = oracle_rref(m)
        free = [c for c in range(m.shape[1]) if c not in pivots]
        want = np.zeros((len(free), m.shape[1]), dtype=np.uint8)
        for i, f in enumerate(free):
            want[i, f] = 1
            for r, c in enumerate(pivots):
                want[i, c] = reduced[r, f]
        kb = kernel_basis(packed(m))
        assert kb.shape == want.shape
        assert np.array_equal(dense(kb), want)


class TestInRowspace:
    def test_zero_vector(self, rng):
        cache = rref(BitMatrix.from_dense(random_dense(rng, 4, 9)))
        assert in_rowspace(cache, to_int([0] * 9))
        assert in_rowspace(cache, 0)

    def test_own_rows(self, rng):
        d = random_dense(rng, 6, 15)
        cache = rref(BitMatrix.from_dense(d))
        for row in d:
            assert in_rowspace(cache, to_int(row))

    def test_outside(self):
        cache = rref(BitMatrix.from_dense([[1, 1, 0]]))
        assert not in_rowspace(cache, to_int([0, 1, 1]))

    def test_length_mismatch(self):
        cache = rref(BitMatrix.identity(3))
        with pytest.raises(DimensionMismatch):
            in_rowspace(cache, 1 << 10)

    @settings(max_examples=40, deadline=None)
    @given(m=dense_matrices(24), seed=st.integers(0, 2**32 - 1))
    def test_matches_rank_oracle(self, m, seed):
        v = random_dense(np.random.default_rng(seed), 1, m.shape[1])[0]
        cache = rref(BitMatrix.from_dense(m))
        assert in_rowspace(cache, to_int(v)) == oracle_in_rowspace(m, v)


class TestTranspose:
    def test_involution(self, rng):
        """The transpose links back to its matrix: transposing twice returns
        the matrix itself, and its columns are the transpose's rows."""
        m = BitMatrix.from_dense(random_dense(rng, 11, 67))
        assert transpose(transpose(m)) is m
        assert transpose(m).col_ints() == m.row_ints()

    @settings(max_examples=150, deadline=None)
    @given(m=shaped_matrices())
    def test_matches_dense_transpose(self, m):
        t = transpose(packed(m))
        assert t.shape == m.T.shape
        assert np.array_equal(dense(t), m.T)

    def test_row_vector(self):
        t = transpose(BitMatrix.from_dense([[1, 0, 1]]))
        assert t.to_dense() == [[1], [0], [1]]


class TestDerivedCaches:
    """A matrix keeps its RREF and transpose once computed; they are not
    part of its value."""

    @settings(max_examples=60, deadline=None)
    @given(m=shaped_matrices())
    def test_rref_is_computed_once(self, m):
        """About 0.1 s."""
        bm = packed(m)
        first = rref(bm)
        assert rref(bm) is first
        reduced, pivots, r = oracle_rref(m)
        assert np.array_equal(dense(first.rref), reduced)
        assert (first.pivot_cols, first.rank) == (pivots, r)

    @settings(max_examples=60, deadline=None)
    @given(m=shaped_matrices())
    def test_caches_leave_the_value_alone(self, m):
        """``==``, ``hash``, ``repr`` and the pickled bytes are the same
        before and after the caches fill; about 0.1 s."""
        bm, twin = packed(m), packed(m)
        before = (hash(bm), repr(bm), pickle.dumps(bm))
        t = transpose(bm)
        assert transpose(bm) is t and transpose(t) == bm
        assert bm.col_ints() == t.row_ints()
        kernel_basis(bm)
        assert bm == twin and twin == bm
        assert (hash(bm), repr(bm), pickle.dumps(bm)) == before
        copy = pickle.loads(pickle.dumps(bm))
        assert copy == bm and rref(copy).rref == rref(bm).rref


def test_vstack(rng):
    a = random_dense(rng, 3, 7)
    b = random_dense(rng, 2, 7)
    stacked = vstack([BitMatrix.from_dense(a), BitMatrix.from_dense(b)])
    assert np.array_equal(dense(stacked), np.vstack([a, b]))
    with pytest.raises(DimensionMismatch):
        vstack([BitMatrix.zeros(1, 3), BitMatrix.zeros(1, 4)])
