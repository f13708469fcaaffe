"""Koszul boundary maps on t generators and mCSS code extraction.

Degree-k chains are indexed by the k-subsets of {1..t} in lexicographic
order.  The differential sends a subset U to the sum over j in U of
generator j times the basis element of U \\ {j}; all signs vanish in
characteristic 2.  Matrices act on column vectors, so the degree-k map has
shape C(t,k-1)*n x C(t,k)*n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import combinations
from math import comb

from .circulant import (
    DEFAULT_SIZE_BUDGET, SizeBudgetExceeded, _count_text, poly_to_circulant,
)
from .gf2 import BitMatrix, DimensionMismatch, mat_mul, transpose
from .ring import GroupSpec, RingElem


# Cap on 2^t * |G|, the sum of ``chain_dims``; the bundled codes reach 2,048.
CHAIN_DIM_CAP = 2**16


class KoszulError(Exception):
    pass


class ChainTooLarge(SizeBudgetExceeded):
    """The chain complex would pass ``CHAIN_DIM_CAP``."""

    def __str__(self):
        return (f"the chain complex has {_count_text(self.n)} basis elements, "
                f"over the cap {self.budget}")


@dataclass(frozen=True)
class SymbolicBoundary:
    """Subset-incidence patterns of the t boundary maps.

    maps[k-1] is the degree-k map as a dict {(row, col): generator_index}
    (1-based) over the C(t,k-1) x C(t,k) block grid; absent keys are zero
    blocks.
    """

    t: int
    maps: tuple[dict[tuple[int, int], int], ...]
    subsets: tuple[tuple[tuple[int, ...], ...], ...]  # per degree 0..t

    def block_shape(self, k: int) -> tuple[int, int]:
        return (comb(self.t, k - 1), comb(self.t, k))


def symbolic_boundaries(t: int) -> SymbolicBoundary:
    if t < 1:
        raise KoszulError(f"need at least one generator, got t={t}")
    subsets = tuple(
        tuple(combinations(range(1, t + 1), k)) for k in range(t + 1)
    )
    maps = []
    for k in range(1, t + 1):
        row_index = {s: i for i, s in enumerate(subsets[k - 1])}
        grid: dict[tuple[int, int], int] = {}
        for col, u in enumerate(subsets[k]):
            for j in u:
                tt = tuple(x for x in u if x != j)
                grid[(row_index[tt], col)] = j
        maps.append(grid)
    return SymbolicBoundary(t=t, maps=tuple(maps), subsets=subsets)


@cache
def _chain_grid(t: int) -> SymbolicBoundary:
    """``symbolic_boundaries(t)``, whose chain condition is checked once per
    t on the grid: every instantiation over a group ring then satisfies it.
    Cell (T, V) of d_k d_{k+1} sums, over the k-subsets U with T < U < V,
    the product of the generators of cells (T, U) and (U, V).  Such a U
    exists only when V = T + {a, b}, and then there are two, U = T + {a}
    and T + {b}, giving g_a g_b + g_b g_a: zero in a commutative ring of
    characteristic 2.  So the check asks that each cell reach each
    unordered pair {a, b} an even number of times."""
    sym = symbolic_boundaries(t)
    for left, right in zip(sym.maps, sym.maps[1:]):
        by_row: dict[int, list[tuple[int, int]]] = {}
        for (u, v), b in right.items():
            by_row.setdefault(u, []).append((v, b))
        odd: set[tuple[int, int, int, int]] = set()
        for (i, u), a in left.items():
            for v, b in by_row.get(u, ()):
                odd ^= {(i, v, min(a, b), max(a, b))}
        if odd:
            raise KoszulError(f"chain condition failed on the t={t} grid")
    return sym


def instantiate(
    sym: SymbolicBoundary, gens: list[RingElem], spec: GroupSpec
) -> list[BitMatrix]:
    """Substitute each generator index with its circulant block, ORing the
    rows of the block in grid cell (i, j), shifted by j*|G|, into block row
    i.  Commutation needs no check: the circulants of a commutative group
    ring commute, which is all the chain condition asks of them (see
    ``_chain_grid``)."""
    if len(gens) != sym.t:
        raise KoszulError(f"expected {sym.t} generators, got {len(gens)}")
    for g in gens:
        if g.spec != spec:
            raise KoszulError("generator spec mismatch")
    circs = [poly_to_circulant(g, spec).ints for g in gens]
    n = spec.size
    out = []
    for k in range(1, sym.t + 1):
        br, bc = sym.block_shape(k)
        rows = [0] * (br * n)
        for (i, j), s in sym.maps[k - 1].items():
            for r, x in enumerate(circs[s - 1], i * n):
                rows[r] |= x << (j * n)
        out.append(BitMatrix(rows, bc * n))
    return out


def chain_dims(t: int, n: int) -> list[int]:
    """Dimensions of the degree-0..t chain spaces."""
    return [comb(t, k) * n for k in range(t + 1)]


def verify_complex(maps: list[BitMatrix]) -> bool:
    """True iff consecutive maps compose to zero."""
    for k in range(len(maps) - 1):
        if maps[k].cols != maps[k + 1].rows:
            raise DimensionMismatch(
                "verify_complex", maps[k].shape, maps[k + 1].shape
            )
        if not mat_mul(maps[k], maps[k + 1]).is_zero():
            return False
    return True


@dataclass(frozen=True)
class MCssCode:
    """CSS code with optional metachecks extracted from a chain complex.

    ``circulant`` marks the codes of ``build_code``, whose four matrices
    every translation by G maps onto themselves, and ``self_dual`` those of
    them with even t and q = t/2, whose X problems ``_relabelling`` maps
    onto their Z problems.  Neither is an init field, so ``extract_mcss``
    alone and ``dataclasses.replace`` leave them False."""

    n: int
    p_x: BitMatrix
    p_z: BitMatrix
    m_x: BitMatrix | None
    m_z: BitMatrix | None
    spec: GroupSpec
    t: int
    q: int
    circulant: bool = field(default=False, init=False, compare=False)
    self_dual: bool = field(default=False, init=False, compare=False)


def extract_mcss(
    maps: list[BitMatrix],
    t: int,
    spec: GroupSpec,
    q_override: int | None = None,
) -> MCssCode:
    """Pick qubits in degree q and read the check/metacheck matrices off the
    surrounding maps.  P_Z and M_Z are transposed maps, which ``transpose``
    links back to the maps, so their columns are the maps' rows.

    ``maps`` must form a chain complex, as the maps of ``build_code`` do
    (see ``_chain_grid``): the orthogonality conditions P_X P_Z^T =
    d_q d_{q+1}, M_X P_X = d_{q-1} d_q and M_Z P_Z = (d_{q+1} d_{q+2})^T are
    then zero and are not checked again here."""
    q = q_override if q_override is not None else t // 2
    if not 1 <= q <= t - 1:
        raise KoszulError(f"qubit degree q={q} out of range 1..{t - 1}")
    p_x = maps[q - 1]
    p_z = transpose(maps[q])
    m_x = maps[q - 2] if q >= 2 else None
    m_z = transpose(maps[q + 1]) if q + 2 <= t else None

    return MCssCode(
        n=p_x.cols,
        p_x=p_x,
        p_z=p_z,
        m_x=m_x,
        m_z=m_z,
        spec=spec,
        t=t,
        q=q,
    )


def _check_size(t: int, size: int):
    """Refuse a group of ``size`` elements past ``DEFAULT_SIZE_BUDGET``, then
    a chain complex on t generators over it, of 2^t * size basis elements,
    past ``CHAIN_DIM_CAP``: the sizes ``build_code`` will not build."""
    if size > DEFAULT_SIZE_BUDGET:
        raise SizeBudgetExceeded(size, DEFAULT_SIZE_BUDGET)
    if (dim := size << t) > CHAIN_DIM_CAP:
        raise ChainTooLarge(dim, CHAIN_DIM_CAP)


# Keyed by group: a search over many orders keeps the last 64.
@lru_cache(maxsize=64)
def _relabelling(t: int, k: int, spec: GroupSpec) -> tuple[int, ...]:
    """Per basis element (S, g) of degree k, at index i*|G| + g for S the
    i-th k-subset, the index of (complement of S, -g) in degree t - k.

    Cell (T, U) of d_k holds g_j for U = T + {j}, and its circulant has
    entry (r, c) iff r - c is a monomial of g_j.  The complements reverse
    inclusion, U' = T' + {j} for U' and T' the complements of T and U, and
    -c - (-r) = r - c, so entry ((T, r), (U, c)) of d_k is entry
    ((U', -c), (T', -r)) of d_{t-k+1}: d_k is d_{t-k+1} transposed, with
    degree k - 1 relabelled to t - k + 1 and degree k to t - k.  With
    t = 2q this maps P_X = d_q onto P_Z = d_{q+1}^T (qubits at k = q, X
    checks at q - 1 to Z checks at q + 1), and M_X = d_{q-1} onto
    M_Z = d_{q+2}^T.  The map is an involution, so it also maps P_Z onto
    P_X and M_Z onto M_X."""
    n = spec.size
    neg = [spec.monomial_index(tuple(-e for e in spec.index_to_exponents(g)))
           for g in range(n)]
    everything = set(range(1, t + 1))
    dual = {s: i for i, s in enumerate(combinations(range(1, t + 1), t - k))}
    return tuple(dual[tuple(sorted(everything.difference(s)))] * n + x
                 for s in combinations(range(1, t + 1), k) for x in neg)


def build_code(
    gens: list[RingElem],
    spec: GroupSpec,
    q_override: int | None = None,
) -> tuple[MCssCode, list[BitMatrix]]:
    """Full pipeline: symbolic maps, their chain condition checked once per
    t (``_chain_grid``), circulant instantiation, mCSS extraction.  Returns
    the code and the instantiated maps.

    The code is marked ``circulant``: every block of every map is the
    circulant of a ring element, whose entry (r, c) depends on c - r in G
    alone.  So translating every block of |G| rows and every block of |G|
    columns by the same g leaves each map as it is: a translation of the
    columns alone permutes the rows, and one of the rows alone permutes
    the columns.  P_X, P_Z, M_X, M_Z and their transposes are maps or
    transposed maps, so a translation of the columns of any of them maps
    its rows onto themselves.

    It is marked ``self_dual`` when t = 2q: ``_relabelling`` then maps
    P_X and M_X onto P_Z and M_Z, so the X and Z problems of the code are
    one problem up to a permutation of its qubits (and of its checks)."""
    t = len(gens)
    _check_size(t, spec.size)
    maps = instantiate(_chain_grid(t), gens, spec)
    code = extract_mcss(maps, t, spec, q_override)
    object.__setattr__(code, "circulant", True)
    object.__setattr__(code, "self_dual", 2 * code.q == t)
    return code, maps
