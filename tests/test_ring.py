import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcodes.ring import (
    GroupSpec,
    ParseError,
    RingElem,
    RingError,
    SpecMismatch,
    parse_poly,
    render,
    ring_add,
    ring_mul,
    weight,
)


@st.composite
def specs(draw, max_dim=4, max_order=6):
    dim = draw(st.integers(1, max_dim))
    orders = tuple(draw(st.integers(1, max_order)) for _ in range(dim))
    return GroupSpec(orders)


@st.composite
def elems(draw, spec=None):
    spec = spec or draw(specs())
    count = draw(st.integers(0, 5))
    monos = tuple(
        tuple(draw(st.integers(0, 12)) for _ in range(spec.dim))
        for _ in range(count)
    )
    return RingElem(spec, monos)


class TestGroupSpec:
    def test_size_and_dim(self):
        s = GroupSpec((3, 3, 3, 4))
        assert s.dim == 4
        assert s.size == 108

    def test_index_round_trip(self):
        s = GroupSpec((2, 3, 5))
        for i in range(s.size):
            assert s.monomial_index(s.index_to_exponents(i)) == i

    def test_last_variable_least_significant(self):
        s = GroupSpec((4, 3))
        assert s.monomial_index((0, 1)) == 1
        assert s.monomial_index((1, 0)) == 3

    def test_invalid(self):
        with pytest.raises(RingError):
            GroupSpec(())
        with pytest.raises(RingError):
            GroupSpec((3, 0))


class TestRingElem:
    def test_duplicate_cancellation(self):
        s = GroupSpec((4,))
        assert RingElem(s, ((1,), (1,))).is_zero()

    def test_exponent_reduction(self):
        s = GroupSpec((4,))
        assert RingElem(s, ((5,),)) == RingElem(s, ((1,),))

    def test_canonical_sort(self):
        s = GroupSpec((3, 3))
        e = RingElem(s, ((2, 0), (0, 1), (1, 1)))
        assert e.monomials == ((0, 1), (1, 1), (2, 0))

    def test_arity_check(self):
        with pytest.raises(RingError):
            RingElem(GroupSpec((2, 2)), ((1,),))


class TestParse:
    def test_zero(self):
        assert parse_poly("0", GroupSpec((5,))).is_zero()

    def test_product_form(self):
        # (1+x)(1+yz) over w,x,y,z expands to {1, x, yz, xyz}
        s = GroupSpec((3, 3, 3, 4))
        e = parse_poly("(1+x)*(1+y*z)", s)
        assert e.monomials == (
            (0, 0, 0, 0),
            (0, 0, 1, 1),
            (0, 1, 0, 0),
            (0, 1, 1, 1),
        )
        assert parse_poly("(1+x)(1+yz)", s) == e

    def test_power_wraps_to_identity(self):
        assert parse_poly("x^4", GroupSpec((4, 2))) == RingElem.one(
            GroupSpec((4, 2))
        )

    def test_char2_square(self):
        # (1+x)^2 = 1 + x^2; it collapses to zero exactly when x^2 = 1
        assert parse_poly("(1+x)*(1+x)", GroupSpec((2,))).is_zero()
        assert parse_poly("(1+x)*(1+x)", GroupSpec((5,))) == parse_poly(
            "1+x^2", GroupSpec((5,))
        )

    def test_juxtaposition_and_whitespace(self):
        s = GroupSpec((2, 2, 2, 2))
        assert parse_poly(" 1 + w x ", s) == parse_poly("1+w*x", s)

    def test_indexed_variables(self):
        s = GroupSpec((2, 3, 4, 5, 6))
        assert parse_poly("x2^2", s) == RingElem.variable(s, 2, 2)
        assert parse_poly("x5", s) == RingElem.variable(s, 5)

    def test_variable_override(self):
        s = GroupSpec((4, 2))
        e = parse_poly("1+x+s+x^2", s, names=("x", "s"))
        assert e == RingElem(s, ((0, 0), (1, 0), (0, 1), (2, 0)))

    @pytest.mark.parametrize("names", [("x", "x"), ("1", "y"), ("xy", "z"), ("", "z")])
    def test_names_must_be_distinct_letters(self, names):
        """Otherwise some variable has no name a generator could use."""
        with pytest.raises(RingError, match="distinct single letters"):
            parse_poly("1", GroupSpec((3, 3)), names=names)

    def test_unknown_variable_offset(self):
        with pytest.raises(ParseError) as ei:
            parse_poly("1+q", GroupSpec((2, 2)))
        assert ei.value.offset == 2

    def test_coefficient_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("2+x", GroupSpec((3,)))

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_poly("x3", GroupSpec((2, 2)))

    @pytest.mark.parametrize("text, offset", [
        ("1+x^" + "9" * 5000, 4), ("x" + "1" * 5000, 1), ("x^\u00b2", 2),
    ])
    def test_number_int_refuses(self, text, offset):
        """A number past int()'s 4,300-digit limit, or a superscript digit,
        used to end in a ValueError; the offset is where the number starts."""
        with pytest.raises(ParseError) as ei:
            parse_poly(text, GroupSpec((3, 3)))
        assert ei.value.offset == offset

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_poly("x+", GroupSpec((3,)))
        with pytest.raises(ParseError):
            parse_poly("(1+x", GroupSpec((3,)))


class TestArithmetic:
    def test_add_self_is_zero(self):
        s = GroupSpec((3, 2))
        e = parse_poly("1+x*y", s)
        assert ring_add(e, e).is_zero()

    def test_add_zero(self):
        s = GroupSpec((3,))
        e = parse_poly("1+x", s)
        assert ring_add(e, RingElem.zero(s)) == e

    def test_symmetric_difference(self):
        s = GroupSpec((3, 3))
        a = parse_poly("1+x", s)
        b = parse_poly("x+y", s)
        assert ring_add(a, b) == parse_poly("1+y", s)

    def test_mul_identity(self):
        s = GroupSpec((4, 3))
        e = parse_poly("x+y^2", s)
        assert ring_mul(e, RingElem.one(s)) == e

    def test_cyclic_inverse(self):
        s = GroupSpec((6,))
        assert ring_mul(parse_poly("x", s), parse_poly("x^5", s)) == RingElem.one(s)

    def test_spec_mismatch(self):
        with pytest.raises(SpecMismatch):
            ring_add(RingElem.one(GroupSpec((2,))), RingElem.one(GroupSpec((3,))))
        with pytest.raises(SpecMismatch):
            ring_mul(RingElem.one(GroupSpec((2,))), RingElem.one(GroupSpec((3,))))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_commutative_associative_distributive(self, data):
        spec = data.draw(specs())
        a = data.draw(elems(spec))
        b = data.draw(elems(spec))
        c = data.draw(elems(spec))
        assert ring_mul(a, b) == ring_mul(b, a)
        assert ring_mul(ring_mul(a, b), c) == ring_mul(a, ring_mul(b, c))
        assert ring_mul(a, ring_add(b, c)) == ring_add(
            ring_mul(a, b), ring_mul(a, c)
        )

    @settings(max_examples=30, deadline=None)
    @given(spec=specs())
    def test_generator_order(self, spec):
        for i in range(1, spec.dim + 1):
            x = RingElem.variable(spec, i)
            acc = RingElem.one(spec)
            for _ in range(spec.orders[i - 1]):
                acc = ring_mul(acc, x)
            assert acc == RingElem.one(spec)


class TestWeightAndRender:
    def test_weight_examples(self):
        s4 = GroupSpec((2, 2, 2, 2))
        assert weight(RingElem.zero(s4)) == 0
        assert weight(parse_poly("1+wx", s4)) == 2
        assert weight(parse_poly("(1+x)(1+yz)", s4)) == 4

    def test_render_zero(self):
        assert render(RingElem.zero(GroupSpec((3,)))) == "0"

    @settings(max_examples=60, deadline=None)
    @given(e=elems())
    def test_render_round_trip(self, e):
        assert parse_poly(render(e), e.spec) == e

    def test_render_round_trip_custom_names(self):
        s = GroupSpec((4, 2))
        e = parse_poly("1+x+s*x^3", s, names=("x", "s"))
        assert parse_poly(render(e, ("x", "s")), s, names=("x", "s")) == e
