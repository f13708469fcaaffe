"""Code-parameter computation: logical count, distances, single-shot
distances, confinement profiles, and check-weight statistics.

Distance search works in two regimes:

* exhaustive: a depth-first search that follows the syndrome
  (``low_weight_kernel_vectors``), rooted at the block origins on the
  codes of ``koszul.build_code``, finds every minimal kernel vector of
  weight <= w_max up to translation, and so the lightest logical up to it;
* randomized: information-set style sampling over the kernel basis, giving
  upper bounds only; each pass (``_isd_pass``) returns its best hit outside
  the stabilizer row space, the one membership test of the passes.

Escalating from the first to the second (``_escalate``) deepens the
exhaustive search one weight at a time while the budget allows
(``_deepen``), so the passes run only past the budget.

On a ``self_dual`` code (even t, q = t/2) the reports search only the Z
side, Z and ssZ, and mirror X's and ssX's bounds from it (``_mirror``):
the same lower and upper bounds, and as witness the least, in support
order, of the translates of the relabelled Z-side supports.  For a bound
of the exhaustive search those supports are every rooted logical of its
weight, so the witness is the one X's own search returns; for one of the
information-set passes it is Z's one witness, relabelled and translated.
"""

from __future__ import annotations

import random
from contextlib import suppress
from dataclasses import dataclass, field, fields, is_dataclass, replace
from math import comb, inf

from .circulant import _count_text
from .gf2 import BitMatrix, _eliminate, kernel_basis, in_rowspace, rank, rref, transpose
from .koszul import MCssCode, _relabelling

# The version of the reports' and manifests' JSON layout.
SCHEMA_VERSION = 1
DEFAULT_ENUM_BUDGET = 10**9
# Entries the coset table of ``confinement_profile`` may hold, in either
# mode.  A table takes 90-115 bytes per entry, so this is 1.8-2.3 GB.
CONFINEMENT_TABLE_CAP = 2 * 10**7


class BudgetExceeded(Exception):
    def __init__(self, needed: int, budget: int):
        self.needed = needed
        self.budget = budget
        super().__init__(f"enumeration needs {_count_text(needed, '.3g', '~')} steps, "
                         f"over the budget {_count_text(budget, '.3g')}")

    def __reduce__(self):
        return type(self), (self.needed, self.budget)


class TableTooLarge(BudgetExceeded):
    """The coset table of ``confinement_profile`` would pass the cap."""

    def __str__(self):
        return (f"the confinement table needs {_count_text(self.needed, '.3g', '~')} "
                f"entries, over the cap {_count_text(self.budget, '.3g')}")


class MetacheckAbsent(Exception):
    pass


@dataclass(frozen=True)
class DistanceBound:
    """lower is certified (no nontrivial logical strictly below it); upper
    carries a witness when known."""

    lower: int
    upper: int | None
    witness: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        return _plain(self)


# A bound and its supports, the logicals its witness is the least of: each
# one of its weight rooted at a block origin for the exhaustive search, the
# one witness for the information-set passes (``_lightest``, ``_escalate``).
_Found = tuple[DistanceBound, list[tuple[int, ...]]]


@dataclass(frozen=True)
class ConfinementProfile:
    """Per-weight minimum nonzero syndrome weights, 1-indexed by reduced
    error weight.  entries[w-1] is None when no qualifying error exists."""

    entries: tuple[int | None, ...]
    exact: tuple[bool, ...]
    mode: str

    def to_dict(self) -> dict:
        return _plain(self)


def _plain(x):
    """``x`` as JSON-ready data: each dataclass a dict of its fields and each
    tuple a list, recursively.  The report dataclasses are thus the only
    statement of the report schema."""
    if is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, tuple):
        return [_plain(v) for v in x]
    return x


def _support_key(sup: int) -> tuple[int, ...]:
    """The set bits of ``sup``, ascending, lowest first by ``x & -x``."""
    out = []
    while sup:
        low = sup & -sup
        out.append(low.bit_length() - 1)
        sup ^= low
    return tuple(out)


def _enum_cost(n: int, w_max: int) -> int:
    """Steps charged for enumerating all nonempty supports of weight <= w_max."""
    return sum(comb(n, j) for j in range(1, min(w_max, n) + 1))


def _syndrome_layers(cols: list[int], max_w: int):
    """Yield, for w = 0..max_w, the syndromes and supports of all weight-w
    supports over ``cols`` as two parallel iterables (bit i of a support
    selects column i).  Each support appears exactly once: it is reached
    only from itself minus its highest column.  The last layer is two
    generators, so a caller reading only syndromes never builds its supports."""
    bits = [1 << i for i in range(len(cols))]
    syns, sups = [0], [0]
    for w in range(max_w + 1):
        yield syns, sups
        if w < max_w:
            syns = (s ^ c for s, sup in zip(syns, sups)
                    for c in cols[sup.bit_length():])
            sups = (sup | b for sup in sups for b in bits[sup.bit_length():])
            if w + 1 < max_w:
                syns, sups = list(syns), list(sups)


def low_weight_kernel_vectors(
    p: BitMatrix, w_max: int, roots, budget: int = DEFAULT_ENUM_BUDGET
) -> dict[int, list[int]]:
    """Every minimal v != 0 (containing no other) with p v^T = 0, |v| <=
    w_max and least column in ``roots``, and maybe some non-minimal ones,
    as weight -> supports in lexicographic support order.

    A depth-first search that follows the syndrome (Dumer, Kovalev &
    Pryadko, IEEE TIT 63(7), 2017).  From each root r, S = {r} and s = p S^T;
    S is recorded if s = 0, else, if |S|*gamma + |s| <= w_max*gamma (gamma
    the largest column weight), it branches on each column >= r outside S
    of the unsatisfied check with the fewest of them.  Complete: for S a
    proper subset of a minimal v, s != 0 and each check S leaves
    unsatisfied holds a column of v - S, so a branch stays inside v; a
    column moves |s| by at most gamma, so |s| <= |v - S|*gamma.  A lightest
    logical is minimal: a kernel vector inside it, or the rest, would be a
    lighter one.  The budget is still charged C(n, 1) + ... + C(n, w_max)."""
    needed = _enum_cost(p.cols, w_max)
    if needed > budget:
        raise BudgetExceeded(needed, budget)
    cols, checks = p.col_ints(), p.row_ints()
    gamma = max((c.bit_count() for c in cols), default=0)
    found: set[int] = set()
    todo = [(1 << r, cols[r], -1 << r) for r in roots] if w_max > 0 else []
    while todo:
        sup, s, above = todo.pop()
        if not s:
            found.add(sup)
        elif sup.bit_count() * gamma + s.bit_count() <= w_max * gamma:
            free = above & ~sup
            step = min((checks[i] & free for i in _support_key(s)), key=int.bit_count)
            todo += ((sup | 1 << u, s ^ cols[u], above) for u in _support_key(step))
    out: dict[int, list[int]] = {}
    for v in sorted(found, key=_support_key):
        out.setdefault(v.bit_count(), []).append(v)
    return out


def _select_check_pair(code: MCssCode, kind: str) -> tuple[BitMatrix, BitMatrix]:
    """The pair (h, stab) of a distance problem: the lightest v with h v^T =
    0 outside the row space of ``stab``.  For an error of Pauli type "X" or
    "Z", h detects it and stab holds the same-type stabilizers; for the
    single-shot kinds "ssX" and "ssZ", h is the metacheck M and stab the
    transposed check matrix P^T (Campbell, QST 4, 025006, 2019)."""
    if kind == "Z":
        return code.p_x, code.p_z
    if kind == "X":
        return code.p_z, code.p_x
    if kind in ("ssX", "ssZ"):
        m, p = (code.m_x, code.p_x) if kind == "ssX" else (code.m_z, code.p_z)
        if m is None:
            raise MetacheckAbsent(f"no {kind[2]}-metacheck for t={code.t}, q={code.q}")
        return m, transpose(p)
    raise ValueError(f"kind must be 'X', 'Z', 'ssX' or 'ssZ', got {kind!r}")


def logical_count(code: MCssCode) -> int:
    return code.n - rank(code.p_x) - rank(code.p_z)


def _translation_roots(code: MCssCode, h: BitMatrix) -> range:
    """Columns at which every set of columns of ``h`` has a translate
    rooted: the block origins b*|G| on a ``circulant`` code (see
    ``koszul.build_code``), else every column."""
    return range(0, h.cols, code.spec.size) if code.circulant else range(h.cols)


def _lightest(
    code: MCssCode, kind: str, w_max: int, budget: int = DEFAULT_ENUM_BUDGET,
) -> _Found:
    """``distance_exhaustive``'s bound and its supports: every logical of
    the bound's weight that the search found, in support order, the first
    of which is the witness; none if it found no logical.  The search finds
    every such logical rooted at ``_translation_roots``: a lightest logical
    is minimal (see ``low_weight_kernel_vectors``)."""
    h, stab = _select_check_pair(code, kind)
    if w_max < 1:
        raise ValueError("w_max must be >= 1")
    kv = low_weight_kernel_vectors(h, w_max, _translation_roots(code, h), budget)
    trivial = rref(stab)
    for w in sorted(kv):
        if hits := [_support_key(v) for v in kv[w] if not in_rowspace(trivial, v)]:
            return DistanceBound(lower=w, upper=w, witness=hits[0]), hits
    return DistanceBound(lower=w_max + 1, upper=None, witness=None), []


def distance_exhaustive(
    code: MCssCode,
    kind: str,
    w_max: int,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> DistanceBound:
    """Certified search over all errors (or, for the single-shot kinds,
    syndromes) of weight <= w_max: of the pair (h, stab) of ``kind`` (see
    ``_select_check_pair``), the lightest v != 0 with h v^T = 0 outside the
    row space of stab, the first in lexicographic support order among equal
    weights; its lower bound is certified, found or not.  Rooted at
    ``_translation_roots``: on a ``circulant`` code translations map h and
    stab onto themselves, so that v's least column is a root, else its
    translate to the block origin, also a logical, would precede it."""
    return _lightest(code, kind, w_max, budget)[0]


def _isd_pass(gen: BitMatrix, rng: random.Random, best_w: int,
              trivial) -> tuple[int, int] | None:
    """One information-set iteration (Prange): row-reduce with the pivot
    columns in random order (``gf2._eliminate``), and return the lightest
    row or row pair of the result below ``best_w`` and outside the row
    space cached by ``trivial`` as (weight, support), the first in
    lexicographic support order among equal weights; None if there is
    none.  The one place an information-set pass tests membership.

    An unbounded ``best_w`` (past the column count) first falls to one more
    than the lightest row outside that row space, which the hit cannot
    outweigh: this caps the candidates a first pass keeps.  The rows of an
    RREF are nonzero and independent, so no candidate is 0 and none
    repeats.  Draws exactly one ``rng.shuffle`` of ``range(gen.cols)``.
    """
    order = list(range(gen.cols))
    rng.shuffle(order)
    rows = _eliminate(gen, order).pivot_rows
    if best_w > gen.cols:
        best_w = next((a.bit_count() + 1 for a in sorted(rows, key=int.bit_count)
                       if not in_rowspace(trivial, a)), best_w)
    groups: dict[int, list[int]] = {}
    for i, a in enumerate(rows):
        for b in (0, *rows[i + 1:]):
            x = a ^ b
            if (w := x.bit_count()) < best_w:
                groups.setdefault(w, []).append(x)
    for w in sorted(groups):
        if hits := [x for x in groups[w] if not in_rowspace(trivial, x)]:
            return w, min(hits, key=_support_key)
    return None


def distance_randomized(
    code: MCssCode,
    kind: str,
    iterations: int,
    seed: int,
    stop_at: int | None = None,
) -> DistanceBound:
    """Randomized upper bound on the lightest v != 0 in ker h outside the
    row space of stab, (h, stab) the pair of ``kind`` (see
    ``_select_check_pair``), via information-set sampling: random column
    permutation, row reduction of the kernel generators, then single rows
    and row pairs as codeword candidates (``_isd_pass``).  A pass hits only
    below the best weight so far, so the witness is the first in
    lexicographic support order among the lightest hits of the first pass
    to reach its weight.  The passes stop after one whose hit weighs <=
    ``stop_at``.  Without a kernel no pass hits.  The passes draw in turn
    from one ``random.Random(seed)``, so the bound is fixed by ``seed`` on
    a given Python.
    """
    h, stab = _select_check_pair(code, kind)
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    gen, trivial = kernel_basis(h), rref(stab)
    best_w, best_sup = h.cols + 1, None
    rng = random.Random(seed)
    for _ in range(iterations):
        if hit := _isd_pass(gen, rng, best_w, trivial):
            best_w, best_sup = hit
            if stop_at is not None and best_w <= stop_at:
                break
    if best_sup is None:
        return DistanceBound(lower=1, upper=None, witness=None)
    return DistanceBound(lower=1, upper=best_w, witness=_support_key(best_sup))


def _deepen(code: MCssCode, kind: str, found: _Found,
            budget: int = DEFAULT_ENUM_BUDGET) -> _Found:
    """``found``, a bound and its supports (see ``_lightest``), if the bound
    has a witness or the pair (h, stab) of ``kind`` has no logicals (dim
    ker h <= rank stab; for X and Z, k = 0), where no level would end; else
    ``_lightest`` rerun at w = lower, lower + 1, ... until a level finds a
    logical, returned as exact, or ``low_weight_kernel_vectors`` refuses a
    level's charge.  Each level certifies its weight: the lower bound is
    certified, so a level that finds nothing rules out every logical of
    weight <= w, one that finds one finds it at weight w, and a refused
    level's w is the lower bound.  With logicals a level ends it: none
    weighs more than h.cols."""
    if found[0].upper is not None:
        return found
    h, stab = _select_check_pair(code, kind)
    if h.cols - rank(h) > rank(stab):
        with suppress(BudgetExceeded):
            while found[0].upper is None:
                found = _lightest(code, kind, found[0].lower, budget)
    return found


def _escalate(
    code: MCssCode, kind: str, found: _Found, iterations: int,
    seed: int, stop_at: int | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> _Found:
    """``found``, a bound and its supports (see ``_lightest``), if
    ``iterations < 1``; else ``found`` deepened (``_deepen``) and, if no
    logical turns up, given the upper bound and witness of
    ``distance_randomized``, if any, with that witness as its one support.
    The one place that decides between the two, for every ``kind`` of
    ``_select_check_pair``."""
    if iterations < 1:
        return found
    found = _deepen(code, kind, found, budget)
    if found[0].upper is not None:
        return found
    r = distance_randomized(code, kind, iterations, seed, stop_at)
    return replace(r, lower=found[0].lower), [r.witness] if r.witness else []


def _searched(code: MCssCode, kinds) -> list[str]:
    """The kinds among ``kinds`` to search: on a ``self_dual`` code the
    Z-side ones alone, whose X-side twins ``_mirrored`` fills in."""
    return [k for k in kinds if not (code.self_dual and k.endswith("X"))]


def _mirrored(code: MCssCode, found: dict[str, _Found]) -> dict[str, DistanceBound]:
    """The bound of each kind of ``found`` (kind -> a bound and its
    supports) and, on a ``self_dual`` code, of each one's X-side twin
    (``_mirror``)."""
    out = {kind: bound for kind, (bound, _) in found.items()}
    if code.self_dual:
        out |= {kind.replace("Z", "X"): _mirror(code, kind, f)
                for kind, f in found.items()}
    return out


def _mirror(code: MCssCode, kind: str, found: _Found) -> DistanceBound:
    """On a ``self_dual`` code, the bound of the X-side twin of ``kind``
    ("X" of "Z", "ssX" of "ssZ") from ``found``, kind's bound and supports
    (see ``_lightest`` and ``_escalate``): the same lower and upper bounds,
    and as witness the least, in support order, of the translates of the
    supports' images under ``koszul._relabelling`` (of the qubits, degree
    q, for Z; of the checks, degree q + 1, for ssZ).

    The relabelling maps the rows of kind's h onto those of the twin's h,
    and the rows of kind's stab onto those of the twin's stab, so it maps
    the one stab's row space onto the other's and kind's logicals of each
    weight onto the twin's: the bounds hold for both.  A bound of the
    exhaustive search has every logical of its weight rooted at a block
    origin as supports: a lightest logical is minimal, so the search finds
    each one so rooted, and each translate class has one (see
    ``distance_exhaustive``).  The relabelling sends a
    translate by g to a translate by -g, so the translates of the images
    are every lightest logical of the twin, and their least is the twin's
    own witness: the twin's search returns the least of its rooted
    lightest logicals, and the least of all of them is rooted.  A bound of
    the information-set passes has its one witness as support, whose least
    translated image is a twin logical of the same weight.  The least
    translate of a set has its least element at the lowest block's origin,
    so only the images reaching that block are translated, each by the
    shifts taking one of its elements in that block there."""
    bound, supports = found
    if not supports:
        return bound
    spec, n = code.spec, code.spec.size
    perm = _relabelling(code.t, code.q + (kind == "ssZ"), spec)
    images = [[perm[i] for i in support] for support in supports]
    origin = min(map(min, images)) // n * n
    exps = [spec.index_to_exponents(g) for g in range(n)]

    def translates(image):
        for j in image:
            if j < origin + n:
                shift = exps[j - origin]
                yield tuple(sorted(
                    i - i % n + spec.monomial_index(
                        tuple(a - b for a, b in zip(exps[i % n], shift)))
                    for i in image))

    return replace(bound, witness=min(t for image in images for t in translates(image)))


def single_shot_distance(
    code: MCssCode,
    check_type: str,
    w_max: int,
    iterations: int = 0,
    seed: int = 0,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> DistanceBound:
    """Minimum weight of a syndrome passing the metachecks yet not realizable
    by any error: s in ker(M) minus the column space of the check matrix.
    That is the distance problem of the pair (M, P^T), kind "ss" +
    ``check_type``, searched up to w_max and escalated like any other."""
    kind = "ss" + check_type
    found = _lightest(code, kind, w_max, budget)
    return _escalate(code, kind, found, iterations, seed, budget=budget)[0]


# ---- confinement ------------------------------------------------------


def _tanner_neighbors(h: BitMatrix) -> list[int]:
    """Per qubit, the mask of the other qubits that share a check of h."""
    nbr = [0] * h.cols
    for r in h.row_ints():
        for q in _support_key(r):
            nbr[q] |= r
    return [m & ~(1 << q) for q, m in enumerate(nbr)]


def _clusters(nbr: list[int], max_size: int, roots, cols: list[int],
              mask: int, emit: list, grow: list):
    """Yield (k, word) for each connected cluster of k <= max_size qubits
    with its minimum qubit in ``roots`` and |word & mask| < emit[k], word
    the XOR of ``cols`` over it; walk its supersets iff k < max_size and
    |word & mask| < grow[k], read after the yield (see confinement_profile)."""
    for r in roots:
        above = -2 << r
        todo = [(1, nbr[r] & above, nbr[r], cols[r])]
        while todo:
            k, ext, seen, word = todo.pop()
            sw = (word & mask).bit_count()
            if sw < emit[k]:
                yield k, word
            if k == max_size or sw >= grow[k]:
                continue
            while ext:
                u = (ext & -ext).bit_length() - 1
                ext ^= 1 << u
                if k + 1 < max_size:
                    fresh = nbr[u] & above & ~seen
                    todo.append((k + 1, ext | fresh, seen | fresh, word ^ cols[u]))
                elif ((word ^ cols[u]) & mask).bit_count() < emit[k + 1]:
                    yield k + 1, word ^ cols[u]


def connected_subsets(neighbors: list[int], max_size: int, roots=None):
    """Every connected vertex subset of size <= max_size whose minimal vertex
    is in ``roots`` (default: all), exactly once, as a sorted tuple; bit v of
    neighbors[u] is the edge uv.  The unpruned walk of ``_clusters``, with
    each vertex's own bit as its word."""
    n, free = len(neighbors), [inf] * (max_size + 1)
    for _, sub in _clusters(neighbors, max_size, range(n) if roots is None else roots,
                            [1 << v for v in range(n)], 0, free, free):
        yield _support_key(sub)


def _minplus_closure(entries: list[int | None]) -> list[int | None]:
    w_max = len(entries)
    closed: list[float] = [e if e is not None else inf for e in entries]
    for w in range(2, w_max + 1):
        for a in range(1, w):
            closed[w - 1] = min(closed[w - 1], closed[a - 1] + closed[w - a - 1])
    return [int(c) if c < inf else None for c in closed]


def confinement_profile(
    code: MCssCode,
    err_type: str,
    w_max: int,
    mode: str = "exact",
    seed: int = 0,
    samples: int = 20000,
) -> ConfinementProfile:
    """Minimum nonzero syndrome weight over irreducible errors, per reduced
    error weight 1..w_max, with w_max at most the qubit count n (no error
    weighs more).  ``err_type`` is "X" or "Z": the single-shot kinds of
    ``_select_check_pair`` pose no confinement problem.

    An error of weight w is irreducible when its coset under the same-type
    stabilizers contains no lighter vector.  Candidates have supports
    connected through the checks of the detecting matrix; disconnected
    errors are recovered by the min-plus closure (syndrome weight and
    reduced weight add across syndrome-disjoint components).

    Exact mode walks the clusters rooted at ``_translation_roots``: at
    block origins on a ``circulant`` code, else at every qubit.  This is
    complete: on such a code, translating every qubit block by the same g
    in G maps the checks of ``h`` and the stabilizers onto themselves (see
    ``koszul.build_code``), so it keeps a cluster's weight, syndrome weight,
    irreducibility and connectivity, and keeps each qubit in its block.  A
    cluster whose minimum qubit is b*|G| + j has a translate, by -j, whose
    minimum is the origin b*|G|.

    The walk, ``_clusters``, is ESU (Wernicke, IEEE/ACM TCBB 3(4), 2006) on
    int masks and reaches each cluster C, of minimum r, exactly once.  A
    child takes the lowest qubit u of its parent's extension mask, whose
    later children then lack u; the exclusion mask ``seen`` (the cluster's
    neighbourhood) offers each qubit above r to a path at most once.  So
    only the child taking the first qubit of C offered can lead to C, and,
    C being connected, one is offered until C is reached.

    KB spans the kernel of the stabilizer matrix: e is reducible iff
    KB e = KB u for some |u| <= |e| - 1.  The table ``reachable[j] =
    {KB u : |u| <= j}`` stops at j = w_max - 2; a weight-w_max e is reducible
    iff some KB e ^ c, c = 0 or a column of KB, is in its last set.  Each
    qubit's word holds its columns of ``h`` and KB, so a cluster's syndrome
    and label cost one XOR per qubit.  A w-qubit cluster lowers best[w] iff
    its syndrome weight sw has 0 < sw < best[w] and it is irreducible.

    The supersets of a considered k-qubit cluster are skipped if sw >=
    ``cut[k]``, the largest best[w] + (w - k)*gamma over w in k+1..w_max,
    gamma the largest column weight of ``h``: a qubit moves sw by at most
    gamma, so none of them could lower the profile.  Nor does the visit
    order matter: ``best`` only falls, and a cluster is passed over only
    when its sw is at least ``best`` then, so at least its final value.
    Both modes build ``reachable``, whose 1 + sum_{j<=w_max-2} C(n, j)
    entries past ``CONFINEMENT_TABLE_CAP`` raise ``TableTooLarge``.

    Cluster mode draws, per sample, a root with ``draw(n)``, then each
    further qubit as the k-th set bit of the frontier mask (the Tanner
    neighbours of the cluster outside it), k = ``draw(size of the
    frontier)``, until the cluster has w_max qubits or no frontier;
    ``draw`` is ``random.Random(seed).randrange``.
    """
    if err_type not in ("X", "Z"):
        raise ValueError(f"err_type must be 'X' or 'Z', got {err_type!r}")
    if mode not in ("exact", "cluster"):
        raise ValueError(f"mode must be 'exact' or 'cluster', got {mode!r}")
    h, stab = _select_check_pair(code, err_type)
    n = h.cols
    if not 1 <= w_max <= n:
        raise ValueError(f"w_max must be in 1..{n}, the qubit count, got {w_max}")
    entries = 1 + _enum_cost(n, w_max - 2)
    if entries > CONFINEMENT_TABLE_CAP:
        raise TableTooLarge(entries, CONFINEMENT_TABLE_CAP)

    h_cols = h.col_ints()
    kb_cols = kernel_basis(stab).col_ints()
    cols = [c | kb << h.rows for c, kb in zip(h_cols, kb_cols)]
    low = (1 << h.rows) - 1
    gamma = max((c.bit_count() for c in h_cols), default=0)
    nbr = _tanner_neighbors(h)
    # best[k] and cut[k] for clusters of k qubits
    best, cut = [inf] * (w_max + 1), [inf] * (w_max + 1)
    # reachable[j] = {KB u : |u| <= j} for j <= w_max - 2
    reachable: list[set[int]] = []
    seen: set[int] = set()
    for syns, _ in _syndrome_layers(kb_cols, max(w_max - 2, 0)):
        seen = seen.union(syns)
        reachable.append(seen)
    top, steps = reachable[-1], [0] + kb_cols

    def consider(k: int, word: int):
        sw = (word & low).bit_count()
        if not 0 < sw < best[k]:
            return
        kb_syn = word >> h.rows
        if k <= len(reachable):
            if kb_syn in reachable[k - 1]:
                return
        elif any(kb_syn ^ c in top for c in steps):
            return
        best[k] = sw
        for j in range(1, k):
            cut[j] = max(best[w] + (w - j) * gamma for w in range(j + 1, w_max + 1))

    if mode == "exact":
        roots = _translation_roots(code, h)
        for k, word in _clusters(nbr, w_max, roots, cols, low, best, cut):
            consider(k, word)
    else:
        draw = random.Random(seed).randrange
        for _ in range(samples):
            q = draw(n)
            cur, front, word = 1 << q, nbr[q], cols[q]
            consider(1, word)
            for w in range(2, w_max + 1):
                if not front:
                    break
                # the k-th set bit of front: the lowest bit with k below it
                k = draw(front.bit_count())
                lo, hi = 0, front.bit_length()
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if (front & ((1 << mid) - 1)).bit_count() > k:
                        hi = mid
                    else:
                        lo = mid
                cur |= 1 << lo
                front = (front | nbr[lo]) & ~cur
                word ^= cols[lo]
                consider(w, word)

    return ConfinementProfile(entries=tuple(_minplus_closure(best[1:])),
                              exact=(mode == "exact",) * w_max, mode=mode)


# ---- aggregate report -------------------------------------------------


@dataclass
class CheckWeightStats:
    w_med_x: int
    w_med_z: int
    w_max_x: int
    w_max_z: int


def check_weight_stats(code: MCssCode) -> CheckWeightStats:
    """Lower-median and maximum row weights of the two check matrices."""

    def med_max(m: BitMatrix) -> tuple[int, int]:
        ws = sorted(m.row_weights())
        return ws[(len(ws) - 1) // 2], ws[-1]

    mx, xx = med_max(code.p_x)
    mz, xz = med_max(code.p_z)
    return CheckWeightStats(w_med_x=mx, w_med_z=mz, w_max_x=xx, w_max_z=xz)


@dataclass
class CodeReport:
    name: str
    n: int
    k: int
    d_x: DistanceBound
    d_z: DistanceBound
    d_ss_x: DistanceBound | None
    d_ss_z: DistanceBound | None
    confinement_x: ConfinementProfile | None
    confinement_z: ConfinementProfile | None
    d_s: int | None
    weights: CheckWeightStats
    seed: int
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The report's fields, with ``weights`` flattened into its four
        entries, plus the report's ``schema_version``."""
        doc = _plain(self)
        doc.update(doc.pop("weights"))
        return {"schema_version": SCHEMA_VERSION, **doc}


def profile_min(*profiles: ConfinementProfile | None) -> int | None:
    return min((e for p in profiles if p is not None for e in p.entries
                if e is not None), default=None)


def _report(
    code: MCssCode, name: str, k: int, d: dict[str, DistanceBound | None],
    confinement_w: int | None, seed: int, params: dict,
) -> CodeReport:
    """The report on ``code`` from its bounds keyed by kind (see
    ``_select_check_pair``; a single-shot kind may be absent), adding the
    confinement profiles up to ``confinement_w`` (none when None), ``d_s``
    and the check weights.  On a ``self_dual`` code the relabelling of
    ``_mirror`` maps X's confinement problem onto Z's, so X's profile is
    Z's."""
    conf = {et: None if confinement_w is None else
            confinement_profile(code, et, confinement_w)
            for et in _searched(code, ("X", "Z"))}
    if code.self_dual:
        conf["X"] = conf["Z"]
    return CodeReport(
        name=name, n=code.n, k=k, d_x=d["X"], d_z=d["Z"], d_ss_x=d.get("ssX"),
        d_ss_z=d.get("ssZ"), confinement_x=conf["X"], confinement_z=conf["Z"],
        d_s=profile_min(*conf.values()), weights=check_weight_stats(code),
        seed=seed, params=params,
    )


def analyze(
    code: MCssCode,
    name: str = "",
    w_exhaustive: int = 4,
    iterations: int = 0,
    confinement_w: int | None = None,
    ss_w: int | None = None,
    seed: int = 0,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> CodeReport:
    """Run the full parameter pipeline with the given search budgets: the X
    and Z distances up to ``w_exhaustive`` and, if ``ss_w`` is set, the
    single-shot distances up to it where a metacheck exists; on a
    ``self_dual`` code the Z-side ones alone, X's mirrored."""
    k = logical_count(code)
    w_max = dict.fromkeys(("X", "Z"), w_exhaustive)
    if ss_w is not None:
        w_max |= {"ss" + et: ss_w for et, m in (("X", code.m_x), ("Z", code.m_z))
                  if m is not None}
    found = {kind: _escalate(code, kind, _lightest(code, kind, w_max[kind], budget),
                             iterations, seed, budget=budget)
             for kind in _searched(code, w_max)}
    params = {"w_exhaustive": w_exhaustive, "iterations": iterations,
              "confinement_w": confinement_w, "ss_w": ss_w}
    return _report(code, name, k, _mirrored(code, found), confinement_w, seed, params)
