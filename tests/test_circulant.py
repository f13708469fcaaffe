import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcodes.circulant import (
    SizeBudgetExceeded,
    circulant_commute_check,
    poly_to_circulant,
)
from mmcodes.gf2 import BitMatrix, DimensionMismatch, mat_mul
from mmcodes.ring import GroupSpec, RingElem, SpecMismatch, parse_poly, ring_add, ring_mul

from conftest import dense_poly_to_circulant, kron_circulant, shift_matrix, spec_and_elems


@st.composite
def spec_and_polys(draw, count=2):
    dim = draw(st.integers(1, 3))
    orders = tuple(draw(st.integers(1, 4)) for _ in range(dim))
    spec = GroupSpec(orders)
    out = []
    for _ in range(count):
        monos = tuple(
            tuple(draw(st.integers(0, 8)) for _ in range(dim))
            for _ in range(draw(st.integers(0, 4)))
        )
        out.append(RingElem(spec, monos))
    return spec, out


@settings(max_examples=200, deadline=None)
@given(case=spec_and_elems(1))
def test_matches_dense_reference(case):
    """The int-row construction against the dense one; about 0.6 s."""
    spec, (f,) = case
    assert poly_to_circulant(f, spec) == dense_poly_to_circulant(f, spec)


def test_identity_polynomial():
    s = GroupSpec((3, 2))
    assert poly_to_circulant(RingElem.one(s), s) == BitMatrix.identity(6)


def test_single_variable_shift():
    s = GroupSpec((3,))
    m = poly_to_circulant(parse_poly("x", s), s).to_dense()
    expect = np.zeros((3, 3), dtype=np.uint8)
    for j in range(3):
        expect[(j + 1) % 3, j] = 1
    assert np.array_equal(m, expect)
    assert np.array_equal(m, shift_matrix(3, 1))


def test_bivariate_kronecker_example():
    # x^3 + y^10 + y^17 over [21, 18] equals
    # S21^3 (x) I18 + I21 (x) S18^10 + I21 (x) S18^17
    s = GroupSpec((21, 18))
    f = parse_poly("x^3+y^10+y^17", s)
    got = poly_to_circulant(f, s).to_dense()
    want = kron_circulant((21, 18), [(3, 0), (0, 10), (0, 17)])
    assert got.shape == (378, 378)
    assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(sp=spec_and_polys())
def test_kronecker_oracle_random(sp):
    spec, (f, _) = sp
    got = poly_to_circulant(f, spec).to_dense()
    assert np.array_equal(got, kron_circulant(spec.orders, f.monomials))


@settings(max_examples=40, deadline=None)
@given(sp=spec_and_polys())
def test_ring_homomorphism(sp):
    spec, (f, g) = sp
    mf = poly_to_circulant(f, spec)
    mg = poly_to_circulant(g, spec)
    assert mat_mul(mf, mg) == poly_to_circulant(ring_mul(f, g), spec)
    summed = BitMatrix.from_dense(mf.to_dense() ^ mg.to_dense())
    assert summed == poly_to_circulant(ring_add(f, g), spec)


@settings(max_examples=30, deadline=None)
@given(sp=spec_and_polys())
def test_constant_row_and_column_weight(sp):
    spec, (f, _) = sp
    dense = poly_to_circulant(f, spec).to_dense()
    w = len(f.monomials)
    assert (dense.sum(axis=0) == w).all()
    assert (dense.sum(axis=1) == w).all()


@settings(max_examples=20, deadline=None)
@given(sp=spec_and_polys(count=3))
def test_same_spec_circulants_commute(sp):
    spec, polys = sp
    mats = [poly_to_circulant(f, spec) for f in polys]
    assert circulant_commute_check(mats)


def test_variable_power_is_identity():
    s = GroupSpec((2, 5))
    m = poly_to_circulant(parse_poly("y", s), s)
    acc = BitMatrix.identity(10)
    for _ in range(5):
        acc = mat_mul(acc, m)
    assert acc == BitMatrix.identity(10)


def test_spec_mismatch():
    with pytest.raises(SpecMismatch):
        poly_to_circulant(RingElem.one(GroupSpec((2,))), GroupSpec((3,)))


def test_size_budget():
    s = GroupSpec((100, 100))
    with pytest.raises(SizeBudgetExceeded):
        poly_to_circulant(RingElem.one(s), s)


def test_commute_check_counterexample():
    s = GroupSpec((4,))
    m = poly_to_circulant(parse_poly("1+x", s), s)
    perturbed = m.to_dense().copy()
    perturbed[0, 2] ^= 1
    bad = BitMatrix.from_dense(perturbed)
    shift = poly_to_circulant(parse_poly("x", s), s)
    assert not circulant_commute_check([shift, bad])


def test_commute_check_size_mismatch():
    with pytest.raises(DimensionMismatch):
        circulant_commute_check([BitMatrix.identity(2), BitMatrix.identity(3)])
