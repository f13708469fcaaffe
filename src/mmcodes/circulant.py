"""Regular-representation (circulant) matrices of quotient-ring elements.

A polynomial over Z_l1 x ... x Z_lD maps to an n x n matrix over GF(2),
n = prod(l_i).  Column j is decoded in mixed radix (last variable least
significant); each monomial shifts the decoded index componentwise.
"""

from __future__ import annotations

import math
import sys

from .gf2 import BitMatrix, DimensionMismatch, mat_mul
from .ring import GroupSpec, RingElem, SpecMismatch

# Refuse to materialize circulants beyond this group size.
DEFAULT_SIZE_BUDGET = 4096


def _count_text(n: int, spec: str = "", mark: str = "") -> str:
    """A count in a refusal message: ``mark`` ("~" for a rounded count) and
    ``n`` formatted by ``spec`` while ``n`` is in float range; past it, where
    a float format overflows and ``str`` may pass its digit limit, the
    nearest power of two, "~2^k"."""
    if n <= sys.float_info.max:
        return mark + format(n, spec)
    return f"~2^{round(math.log2(n))}"


class SizeBudgetExceeded(Exception):
    def __init__(self, n: int, budget: int):
        self.n = n
        self.budget = budget
        super().__init__(f"group size {_count_text(n)} exceeds the size budget {budget}")

    def __reduce__(self):
        return type(self), (self.n, self.budget)


def poly_to_circulant(f: RingElem, spec: GroupSpec) -> BitMatrix:
    """Column-by-column construction: column j sets bit j of each row a
    monomial shifts it to; exponents are already reduced into [0, l_k)."""
    if f.spec != spec:
        raise SpecMismatch(f"element spec {f.spec} does not match {spec}")
    n = spec.size
    if n > DEFAULT_SIZE_BUDGET:
        raise SizeBudgetExceeded(n, DEFAULT_SIZE_BUDGET)
    orders = spec.orders
    rows = [0] * n
    for j in range(n):
        idxs = spec.index_to_exponents(j)
        for mono in f.monomials:
            row = 0
            for k in range(spec.dim):
                row = row * orders[k] + (idxs[k] + mono[k]) % orders[k]
            rows[row] ^= 1 << j
    return BitMatrix(rows, n)


def circulant_commute_check(mats: list[BitMatrix]) -> bool:
    """True iff all pairs commute mod 2."""
    for m in mats:
        if m.rows != m.cols or m.shape != mats[0].shape:
            raise DimensionMismatch("commute_check", mats[0].shape, m.shape)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mat_mul(mats[i], mats[j]) != mat_mul(mats[j], mats[i]):
                return False
    return True
