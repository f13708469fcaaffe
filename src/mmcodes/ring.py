"""Arithmetic in F2[x1..xD]/<x1^l1-1, ..., xD^lD-1> and polynomial parsing.

Elements are sets of exponent vectors (coefficients live in F2, so duplicate
monomials cancel).  The canonical monomial order is the mixed-radix index
with the last variable least significant; the same indexing is used by the
circulant construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

# Default variable letters, matching the conventional notation for each
# dimension count (single-variable codes use x, bivariate x/y, etc.).
DEFAULT_NAMES = {
    1: ("x",),
    2: ("x", "y"),
    3: ("x", "y", "z"),
    4: ("w", "x", "y", "z"),
}


class RingError(Exception):
    pass


class SpecMismatch(RingError):
    pass


class ParseError(RingError):
    def __init__(self, message: str, offset: int):
        self.message = message
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")

    def __reduce__(self):
        return type(self), (self.message, self.offset)


@dataclass(frozen=True)
class GroupSpec:
    """The abelian group Z_l1 x ... x Z_lD defining the quotient ring."""

    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(int(o) for o in self.orders))
        if len(self.orders) < 1:
            raise RingError("GroupSpec needs at least one cyclic factor")
        if any(o < 1 for o in self.orders):
            raise RingError(f"cyclic orders must be >= 1, got {self.orders}")

    @property
    def dim(self) -> int:
        return len(self.orders)

    @property
    def size(self) -> int:
        return reduce(lambda a, b: a * b, self.orders, 1)

    def monomial_index(self, exps: tuple[int, ...]) -> int:
        """Mixed-radix index, last variable least significant."""
        idx = 0
        for o, e in zip(self.orders, exps):
            idx = idx * o + (e % o)
        return idx

    def index_to_exponents(self, idx: int) -> tuple[int, ...]:
        exps = [0] * self.dim
        tmp = idx
        for k in range(self.dim - 1, -1, -1):
            exps[k] = tmp % self.orders[k]
            tmp //= self.orders[k]
        return tuple(exps)


@dataclass(frozen=True)
class RingElem:
    """A quotient-ring element as a canonically sorted set of monomials."""

    spec: GroupSpec
    monomials: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self):
        reduced = set()
        for m in self.monomials:
            if len(m) != self.spec.dim:
                raise RingError(f"exponent vector {m} has wrong arity")
            r = tuple(e % o for e, o in zip(m, self.spec.orders))
            if r in reduced:
                reduced.discard(r)
            else:
                reduced.add(r)
        ordered = tuple(sorted(reduced, key=self.spec.monomial_index))
        object.__setattr__(self, "monomials", ordered)

    @classmethod
    def zero(cls, spec: GroupSpec) -> "RingElem":
        return cls(spec, ())

    @classmethod
    def one(cls, spec: GroupSpec) -> "RingElem":
        return cls(spec, ((0,) * spec.dim,))

    @classmethod
    def variable(cls, spec: GroupSpec, index: int, power: int = 1) -> "RingElem":
        """x_index ** power, 1-based index."""
        if not 1 <= index <= spec.dim:
            raise RingError(f"variable index {index} out of range 1..{spec.dim}")
        e = [0] * spec.dim
        e[index - 1] = power
        return cls(spec, (tuple(e),))

    def is_zero(self) -> bool:
        return not self.monomials


def weight(a: RingElem) -> int:
    return len(a.monomials)


def ring_add(a: RingElem, b: RingElem) -> RingElem:
    if a.spec != b.spec:
        raise SpecMismatch(f"cannot add over {a.spec} and {b.spec}")
    return RingElem(a.spec, tuple(set(a.monomials) ^ set(b.monomials)))


def ring_mul(a: RingElem, b: RingElem) -> RingElem:
    if a.spec != b.spec:
        raise SpecMismatch(f"cannot multiply over {a.spec} and {b.spec}")
    acc: set[tuple[int, ...]] = set()
    orders = a.spec.orders
    for ma in a.monomials:
        for mb in b.monomials:
            m = tuple((ea + eb) % o for ea, eb, o in zip(ma, mb, orders))
            if m in acc:
                acc.discard(m)
            else:
                acc.add(m)
    return RingElem(a.spec, tuple(acc))


def render(a: RingElem, names: tuple[str, ...] | None = None) -> str:
    """Canonical text form; parse_poly(render(e)) == e."""
    if a.is_zero():
        return "0"
    names = names or _names_for(a.spec, None)
    terms = []
    for m in a.monomials:
        factors = []
        for k, e in enumerate(m):
            if e == 1:
                factors.append(names[k])
            elif e > 1:
                factors.append(f"{names[k]}^{e}")
        terms.append("*".join(factors) if factors else "1")
    return "+".join(terms)


def _names_for(spec: GroupSpec, names) -> tuple[str, ...]:
    if names is not None:
        names = tuple(names)
        if not (len(set(names)) == len(names) == spec.dim
                and all(len(v) == 1 and v.isalpha() for v in names)):
            raise RingError(f"need {spec.dim} variable names, distinct single "
                            f"letters, got {list(names)}")
        return names
    if spec.dim in DEFAULT_NAMES:
        return DEFAULT_NAMES[spec.dim]
    return tuple(f"x{i + 1}" for i in range(spec.dim))


class _Parser:
    """Recursive descent over:

        expr   := term ('+' term)*
        term   := factor (('*')? factor)*
        factor := '0' | '1' | var ('^' uint)? | '(' expr ')'
        var    := single letter from the name table | 'x' uint
    """

    def __init__(self, text: str, spec: GroupSpec, names: tuple[str, ...]):
        self.text = text
        self.spec = spec
        self.names = names
        self.pos = 0

    def error(self, msg: str):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_uint(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past the interpreter's limit on int() digits
            raise ParseError(f"integer of {self.pos - start} digits is too long",
                             start) from None

    def parse(self) -> RingElem:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return e

    def expr(self) -> RingElem:
        acc = self.term()
        while self.peek() == "+":
            self.pos += 1
            acc = ring_add(acc, self.term())
        return acc

    def term(self) -> RingElem:
        acc = self.factor()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                acc = ring_mul(acc, self.factor())
            elif c == "(" or c.isalpha() or c in ("0", "1"):
                acc = ring_mul(acc, self.factor())
            else:
                return acc

    def factor(self) -> RingElem:
        c = self.peek()
        if c == "(":
            self.pos += 1
            e = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return e
        if c == "0":
            self.pos += 1
            return RingElem.zero(self.spec)
        if c == "1":
            self.pos += 1
            return RingElem.one(self.spec)
        if c.isdigit():
            self.error(f"coefficient {c!r} not allowed over F2")
        if c.isalpha():
            return self.var_factor()
        self.error("expected a factor")

    def var_factor(self) -> RingElem:
        c = self.text[self.pos]
        self.pos += 1
        nxt = self.text[self.pos] if self.pos < len(self.text) else ""
        if nxt.isdigit():
            # indexed variable: 'x' followed by digits
            if c != "x":
                self.pos -= 1
                self.error(f"only 'x' takes a numeric index, got {c!r}")
            index = self.take_uint()
            if not 1 <= index <= self.spec.dim:
                self.error(f"variable index {index} exceeds dimension {self.spec.dim}")
        else:
            if c not in self.names:
                self.pos -= 1
                self.error(f"unknown variable {c!r} (expected one of {self.names})")
            index = self.names.index(c) + 1
        power = 1
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            power = self.take_uint()
        return RingElem.variable(self.spec, index, power)


def parse_poly(text: str, spec: GroupSpec, names=None) -> RingElem:
    """Parse a polynomial expression into a fully expanded, reduced element.

    ``names`` optionally overrides the default per-dimension variable
    letters; the indexed forms x1..xD are always accepted.
    """
    return _Parser(text, spec, _names_for(spec, names)).parse()
