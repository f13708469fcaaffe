import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mmcodes import codeparams as cp
from mmcodes import gf2
from mmcodes.cli import build_from_config, fixture_names, load_fixture
from mmcodes.gf2 import BitMatrix, in_rowspace, kernel_basis, mat_mul, rref, transpose
from mmcodes.koszul import build_code, extract_mcss
from mmcodes.ring import GroupSpec, RingElem, parse_poly
from mmcodes.search import SearchConfig, evaluate_candidate

from conftest import oracle_rank, reference_translation_roots, to_int


def make(orders, polys, names=None, q=None):
    spec = GroupSpec(tuple(orders))
    gens = [parse_poly(p, spec, names) for p in polys]
    code, _ = build_code(gens, spec, q_override=q)
    return code


def code_pairs(code):
    """The (h, stab) pairs whose roots the distance cores ask for: X and Z
    distance, then single-shot distance (M, P^T) where M exists."""
    pairs = [cp._select_check_pair(code, et) for et in ("X", "Z")]
    return pairs + [(m, transpose(p)) for m, p in
                    ((code.m_x, code.p_x), (code.m_z, code.p_z)) if m is not None]


@pytest.fixture(scope="module")
def row1():
    return make([2, 2, 2, 2], ["1+wx", "1+xy", "1+yz", "1+wz"])


@pytest.fixture(scope="module")
def toy6():
    # t=2 over Z_3 with F = G = 1+x: n = 6, small enough for brute force
    return make([3], ["1+x", "1+x"])


def brute_force_distance(code, err_type, w_cap=None):
    p, opp = (code.p_x, code.p_z) if err_type == "Z" else (code.p_z, code.p_x)
    opp_cache = rref(opp)
    pd = p.to_dense()
    best = None
    for bits in itertools.product([0, 1], repeat=code.n):
        v = np.array(bits, dtype=np.uint8)
        w = int(v.sum())
        if w == 0 or (best and w > best[0]):
            continue
        if (pd @ v % 2).any():
            continue
        if in_rowspace(opp_cache, to_int(v)):
            continue
        sup = tuple(np.nonzero(v)[0].tolist())
        if best is None or (w, sup) < best:
            best = (w, sup)
    return best


class TestLogicalCount:
    def test_row1(self, row1):
        assert cp.logical_count(row1) == 12

    def test_648(self):
        code = make(
            [3, 3, 3, 4],
            ["(1+x)(1+yz)", "(1+y)(1+zw)", "(1+z)(1+wx)", "(1+w)(1+xy)"],
        )
        assert cp.logical_count(code) == 60

    def test_bb756(self):
        code = make([21, 18], ["x^3+y^10+y^17", "x^19+x^3+y^5"])
        assert code.n == 756
        assert cp.logical_count(code) == 16

    def test_independent_rank_nullity(self, toy6):
        from mmcodes.gf2 import kernel_basis, rank

        k = cp.logical_count(toy6)
        # dim ker(P_X) - rank(P_Z) via kernel_basis, independently
        assert k == kernel_basis(toy6.p_x).rows - rank(toy6.p_z)


class TestDistanceExhaustive:
    def test_toy_matches_brute_force(self, toy6):
        want = brute_force_distance(toy6, "Z")
        got = cp.distance_exhaustive(toy6, "Z", 6)
        assert (got.upper, got.witness) == want
        assert got.lower == got.upper

    def test_witness_is_logical(self, row1):
        b = cp.distance_exhaustive(row1, "Z", 4)
        assert b.upper == 4 and len(b.witness) == 4
        v = np.zeros(row1.n, dtype=np.uint8)
        v[list(b.witness)] = 1
        assert not (row1.p_x.to_dense() @ v % 2).any()
        assert not in_rowspace(rref(row1.p_z), to_int(v))

    def test_row1_certificate(self, row1):
        for et in ("X", "Z"):
            b = cp.distance_exhaustive(row1, et, 3)
            assert b.upper is None and b.lower == 4

    def test_k0_code_finds_nothing(self):
        code = make([2], ["1", "1"])
        assert cp.logical_count(code) == 0
        b = cp.distance_exhaustive(code, "Z", 4)
        assert b.lower == 5 and b.upper is None and b.witness is None

    def test_monotone_in_w_max(self, toy6):
        b2 = cp.distance_exhaustive(toy6, "Z", 1)
        b6 = cp.distance_exhaustive(toy6, "Z", 6)
        assert b6.lower >= b2.lower
        if b2.upper is not None:
            assert b6.upper is not None and b6.upper <= b2.upper

    def test_budget_guard(self, row1):
        with pytest.raises(cp.BudgetExceeded):
            cp.distance_exhaustive(row1, "Z", 4, budget=1000)

    def test_bad_args(self, row1):
        with pytest.raises(ValueError):
            cp.distance_exhaustive(row1, "Z", 0)
        with pytest.raises(ValueError):
            cp.distance_exhaustive(row1, "Y", 2)


class TestDistanceRandomized:
    def test_toy_matches_exhaustive(self, toy6):
        want = cp.distance_exhaustive(toy6, "Z", 6)
        got = cp.distance_randomized(toy6, "Z", 30, seed=3)
        assert got.upper == want.upper

    def test_deterministic(self, row1):
        a = cp.distance_randomized(row1, "Z", 10, seed=7)
        b = cp.distance_randomized(row1, "Z", 10, seed=7)
        assert a == b

    def test_upper_is_valid_logical(self, row1):
        b = cp.distance_randomized(row1, "Z", 20, seed=0)
        assert b.upper is not None and b.upper >= 4
        v = np.zeros(row1.n, dtype=np.uint8)
        v[list(b.witness)] = 1
        assert not (row1.p_x.to_dense() @ v % 2).any()
        assert not in_rowspace(rref(row1.p_z), to_int(v))

    def test_k0_returns_unknown(self):
        code = make([2], ["1", "1"])
        b = cp.distance_randomized(code, "Z", 5, seed=0)
        assert b.upper is None

    def test_passes_draw_from_one_stream(self, row1, monkeypatch):
        """Every pass draws from the one stream of entropy (seed, 0), so a
        bound depends on the seed alone."""
        seeds, make_rng = [], np.random.default_rng

        def recorded(seed):
            seeds.append(seed)
            return make_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recorded)
        cp.distance_randomized(row1, "Z", 3, seed=5)
        assert seeds == [[5, 0]]

    @pytest.mark.parametrize("name, kind, iterations, seed, stop_at", [
        ("tt72", "X", 30, 0, 12), ("table2_row13", "X", 30, 2, 12),
    ])
    def test_stop_at_witness_is_first_in_support_order(self, name, kind, iterations,
                                                       seed, stop_at):
        """The passes stop after the first whose hit weighs <= ``stop_at``,
        and the witness is the first in support order among that pass's
        lightest hits, as without ``stop_at``.  It used to be the first in
        int order, which on tt72 X is another one."""
        code = build_from_config(load_fixture(f"{name}.json"))
        h, stab = cp._select_check_pair(code, kind)
        gen, trivial = kernel_basis(h).to_dense(), rref(stab)
        rng = np.random.default_rng([seed, 0])
        best_w, lightest = h.cols + 1, []
        for _ in range(iterations):
            hits = [(w, sup) for w, sup in reference_isd_pass(gen, rng, best_w)
                    if not in_rowspace(trivial, sup)]
            if hits:
                best_w = min(w for w, _ in hits)
                lightest = [sup for w, sup in hits if w == best_w]
                if best_w <= stop_at:
                    break
        bound = cp.distance_randomized(code, kind, iterations, seed, stop_at=stop_at)
        assert bound.upper == best_w <= stop_at
        assert bound.witness == min(map(cp._support_key, lightest))


def reference_escalate(code, err_type, bound, iterations, seed):
    """The escalation without deepening: the exhaustive bound, then the
    information-set passes' upper bound and witness, if any."""
    if bound.upper is not None or iterations < 1:
        return bound
    r = cp.distance_randomized(code, err_type, iterations, seed)
    return bound if r.upper is None else dataclasses.replace(r, lower=bound.lower)


def check_escalation(code, err_type, w_exh, iterations, seed, budget):
    """Deepening only tightens the reference's bounds: the result is exact
    below the first weight over ``budget``, else it is the reference's upper
    bound and witness over a lower bound raised to that weight; either way
    the lower bound is certified.  Without passes or logicals nothing is
    deepened.  ``err_type`` is any kind of ``_select_check_pair``; the
    pair (h, stab) has logicals iff dim ker h > rank stab."""
    h, stab = (m.to_dense() for m in cp._select_check_pair(code, err_type))
    n = h.shape[1]
    has_logicals = n - oracle_rank(h) > oracle_rank(stab)
    exhaustive = cp.distance_exhaustive(code, err_type, w_exh)
    old = reference_escalate(code, err_type, exhaustive, iterations, seed)
    new = cp._escalate(code, err_type, exhaustive, iterations, seed, 1, budget=budget)
    unsampled = cp._escalate(code, err_type, exhaustive, 0, seed, 1, budget=budget)
    assert unsampled == exhaustive
    assert new.lower >= old.lower
    if old.upper is not None:
        assert new.upper is not None and new.upper <= old.upper
    # A logical has at most n qubits, so with one the deepening ends by n.
    w_stop = old.lower if not has_logicals else next(
        (w for w in range(old.lower, n + 1) if cp._enum_cost(n, w) > budget), n + 1)
    if new.lower < w_stop:
        assert new == cp.distance_exhaustive(code, err_type, new.upper)
    else:
        assert new.lower == w_stop
        assert (new.upper, new.witness) == (old.upper, old.witness)
        assert cp.distance_exhaustive(code, err_type, new.lower - 1).upper is None


class TestEscalation:
    @pytest.mark.parametrize("err_type", ["X", "Z"])
    @pytest.mark.parametrize("name", [
        "bga16", "gb70", "lacross98", "mb48", "table2_row01", "table2_row02",
        "table2_row03", "table2_row04", "table2_row05", "table2_row06",
        "table2_row07", "toric4d", "tt72",
    ])
    def test_deepening_tightens_the_reference_on_fixtures(self, name, err_type):
        """Every fixture with n <= 150, at w_exhaustive 1-3, with the
        default budget and with one that stops the deepening at once, after
        one level, or after two."""
        code = build_from_config(load_fixture(f"{name}.json"))
        rng = random.Random(f"{name}-{err_type}")
        for w_exh in (1, 2, 3):
            for extra in (None, 0, 1, 2):
                budget = (cp.DEFAULT_ENUM_BUDGET if extra is None
                          else cp._enum_cost(code.n, w_exh + extra))
                check_escalation(code, err_type, w_exh, rng.randint(1, 10),
                                 rng.randint(0, 9), budget)

    @settings(max_examples=150, deadline=None)
    @given(
        orders=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        t=st.integers(2, 4),
        data=st.data(),
    )
    def test_deepening_tightens_the_reference_on_random_codes(self, orders, t, data):
        spec = GroupSpec(tuple(orders))
        assume(2 <= spec.size <= 8)
        gens = draw_generators(data, spec, t)
        code, _ = build_code(gens, spec, q_override=data.draw(st.integers(1, t - 1)))
        w_exh = data.draw(st.integers(1, 3))
        extra = data.draw(st.sampled_from([None, 0, 1, 2]))
        budget = (cp.DEFAULT_ENUM_BUDGET if extra is None
                  else cp._enum_cost(code.n, w_exh + extra))
        kinds = ["X", "Z"] + ["ss" + ct for ct, m in (("X", code.m_x), ("Z", code.m_z))
                              if m is not None]
        for kind in kinds:
            check_escalation(code, kind, w_exh, data.draw(st.integers(1, 10)),
                             data.draw(st.integers(0, 9)), budget)


    def test_a_pair_without_logicals_is_not_deepened(self):
        """Logicals are the pair's, not the code's: with M spanning the left
        kernel of P_X, ker M is the column space of P_X, so the single-shot
        problem has none although k > 0, and the escalation samples at
        once.  (On the Koszul codes both have logicals or neither.)"""
        code = build_from_config(load_fixture("table2_row01.json"))
        tight = dataclasses.replace(code, m_x=kernel_basis(transpose(code.p_x)))
        assert cp.logical_count(tight) > 0
        check_escalation(tight, "ssX", 1, 5, 0, cp.DEFAULT_ENUM_BUDGET)


def reference_isd_pass(gen_dense, rng, best_w):
    """The original information-set pass: every row and row pair as a
    Python int, un-permuted bit by bit, in no particular order."""
    k, n = gen_dense.shape
    perm = rng.permutation(n)
    reduced = rref(BitMatrix.from_dense(gen_dense[:, perm]))
    rows = reduced.rref.row_ints()[: reduced.rank]
    out = []

    def push(v):
        w = v.bit_count()
        if 0 < w < best_w:
            orig = 0
            x = v
            while x:
                b = x & -x
                orig |= 1 << int(perm[b.bit_length() - 1])
                x ^= b
            out.append((w, orig))

    for r in rows:
        push(r)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            push(rows[i] ^ rows[j])
    return out


class TestIsdPass:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(0, 24),
        n=st.sampled_from([1, 9, 64, 65, 100]),
        density=st.sampled_from([0.1, 0.5]),
        cut=st.integers(1, 40) | st.none(),
        logicals=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    # its lightest row lies in the trivial row space, so the first bound must
    # come from a heavier one
    @example(k=4, n=9, density=0.5, cut=None, logicals=1, seed=0)
    def test_matches_reference(self, k, n, density, cut, logicals, seed):
        """The pass returns the lightest of the reference's candidates
        lighter than ``best_w`` and outside the row space of ``trivial``,
        the least by ``_support_key`` among equal weights, or None.  An
        unbounded ``best_w`` first falls to one more than the lightest pivot
        row outside that row space, which loses no such candidate."""
        gen = (np.random.default_rng(seed).random((k, n)) < density).astype(np.uint8)
        # all but the last few generators span the trivial row space, as the
        # stabilizers of a code with that many logicals would
        trivial = rref(BitMatrix.from_dense(gen[:max(k - logicals, 0)]))
        best_w = n + 1 if cut is None else min(cut, n + 1)
        rng_new = np.random.default_rng([seed, 1])
        rng_ref = np.random.default_rng([seed, 1])
        got = cp._isd_pass(BitMatrix.from_dense(gen), rng_new, best_w, trivial)
        hits = [(w, sup) for w, sup in reference_isd_pass(gen, rng_ref, best_w)
                if not in_rowspace(trivial, sup)]
        want = None
        if hits:
            w = min(w for w, _ in hits)
            want = w, min((sup for v, sup in hits if v == w), key=cp._support_key)
        assert got == want
        # one permutation per pass: both streams end in the same state
        assert rng_new.integers(2**62) == rng_ref.integers(2**62)


def brute_patterns(cols, max_w):
    """(syndrome, support, weight) of every support of weight <= max_w."""
    out = []
    for w in range(max_w + 1):
        for sub in itertools.combinations(range(len(cols)), w):
            syn = 0
            for i in sub:
                syn ^= cols[i]
            out.append((syn, sum(1 << i for i in sub), w))
    return out


# Up to 12 columns of 0-6 rows, so syndromes collide often.
small_columns = st.integers(0, 6).flatmap(
    lambda rows: st.lists(st.integers(0, 2**rows - 1), max_size=12)
)


class TestSyndromeEnumeration:
    @settings(max_examples=150, deadline=None)
    @given(cols=small_columns, w_max=st.integers(0, 4), data=st.data())
    def test_dfs_finds_every_minimal_kernel_vector(self, cols, w_max, data):
        """Every minimal kernel vector with a root as its least column, and
        nothing that is not a kernel vector so rooted, each listed once
        under its weight in lexicographic support order."""
        n = len(cols)
        roots = sorted(data.draw(st.sets(st.integers(0, n - 1)))) if n else []
        kernel = {sup for syn, sup, w in brute_patterns(cols, w_max) if w and not syn}
        rooted = {v for v in kernel if (v & -v).bit_length() - 1 in roots}
        minimal = {v for v in rooted
                   if not any(u != v and u & v == u for u in kernel)}
        p = transpose(BitMatrix(cols, 6))
        got = cp.low_weight_kernel_vectors(p, w_max, roots)
        listed = [v for vs in got.values() for v in vs]
        assert len(listed) == len(set(listed))
        assert minimal <= set(listed) <= rooted
        for w, vs in got.items():
            assert vs == sorted(vs, key=cp._support_key)
            assert all(v.bit_count() == w for v in vs)

    @settings(max_examples=200, deadline=None)
    @given(sup=st.one_of(
        st.integers(0, 2**300),
        st.frozensets(st.integers(0, 2000)).map(lambda bits: sum(1 << i for i in bits)),
    ))
    def test_support_key_matches_the_bit_scan(self, sup):
        """The set-bit walk lists what a scan of every bit position lists."""
        scan = tuple(i for i in range(sup.bit_length()) if (sup >> i) & 1)
        assert cp._support_key(sup) == scan

    def test_zero_w_max_lists_nothing(self):
        # Column 0 is zero, so a walk that recorded a zero-syndrome root
        # before checking the weight would list it at w_max = 0.
        p = BitMatrix([0b10], 2)
        assert cp.low_weight_kernel_vectors(p, 0, range(2)) == {}
        assert cp.low_weight_kernel_vectors(p, 1, range(2)) == {1: [0b1]}

    @pytest.mark.parametrize("name", [
        "bga16", "gb70", "lacross98", "mb48", "table2_row01", "table2_row02",
        "table2_row03", "table2_row04", "table2_row05", "table2_row06",
        "table2_row07", "toric4d", "tt72",
    ])
    def test_anchored_lightest_matches_every_root(self, name, monkeypatch):
        """On every fixture with n <= 150, ``distance_exhaustive`` of each
        kind (X, Z, and ssX, ssZ where the metacheck exists) rooted at block
        origins agrees with the same search rooted at every column at w = 4,
        witness included."""
        code = build_from_config(load_fixture(f"{name}.json"))
        kinds = ["X", "Z"] + ["ss" + et for et, m in (("X", code.m_x), ("Z", code.m_z))
                              if m is not None]
        for kind in kinds:
            h, stab = cp._select_check_pair(code, kind)
            roots = cp._translation_roots(code, h)
            assert roots == range(0, h.cols, code.spec.size)
        anchored = [cp.distance_exhaustive(code, kind, 4) for kind in kinds]
        monkeypatch.setattr(cp, "_translation_roots", lambda _, h: range(h.cols))
        every = [cp.distance_exhaustive(code, kind, 4) for kind in kinds]
        assert anchored == every

    @settings(max_examples=150, deadline=None)
    @given(cols=small_columns, max_w=st.integers(0, 3))
    def test_confinement_syndrome_sets_match_brute_force(self, cols, max_w):
        """Confinement reads only the syndromes of each layer, the last one
        streamed, and keeps their union up to each weight."""
        seen = set()
        for j, (syns, _) in enumerate(cp._syndrome_layers(cols, max_w)):
            if 0 < j == max_w:
                assert not isinstance(syns, list)
            syns = list(syns)
            assert len(syns) == math.comb(len(cols), j)
            seen |= set(syns)
            assert seen == {s for s, _, w in brute_patterns(cols, j)}
        assert j == max_w


def reference_single_shot(code, check_type, w_max, iterations, seed):
    """The single-shot distance with its original information-set loop over
    the reference pass: a hit replaces the best only when strictly lighter,
    so the first hit of each weight in (weight, support-int) order is kept."""
    m, p = (code.m_x, code.p_x) if check_type == "X" else (code.m_z, code.p_z)
    bound = cp.single_shot_distance(code, check_type, w_max)
    gen = kernel_basis(m).to_dense()
    if bound.upper is not None or not len(gen):
        return bound
    valid = rref(transpose(p))
    best_w, best_sup = m.cols + 1, None
    rng = np.random.default_rng([seed, 0])
    for _ in range(iterations):
        for w, sup in sorted(reference_isd_pass(gen, rng, best_w)):
            if w >= best_w:
                break
            if not in_rowspace(valid, sup):
                best_w, best_sup = w, sup
    if best_sup is None:
        return bound
    return cp.DistanceBound(bound.lower, best_w, cp._support_key(best_sup))


class TestSingleShot:
    @pytest.mark.parametrize("seed", [0, 5, 7])
    @pytest.mark.parametrize("name, check_type", [
        ("tt72", "Z"), ("table2_row01", "X"), ("table2_row01", "Z"),
        ("table2_row13", "X"), ("table2_row13", "Z"), ("toric4d", "X"),
        ("toric4d", "Z"),
    ])
    def test_shared_tie_rule_keeps_bounds(self, name, check_type, seed):
        """Sharing distance's tie rule may only move the witness to an
        equal-weight one that is lexicographically no larger.  A budget of
        exactly the weight-1 search keeps the escalation from deepening, so
        the upper bound comes from the information-set passes."""
        code = build_from_config(load_fixture(f"{name}.json"))
        m, p = (code.m_x, code.p_x) if check_type == "X" else (code.m_z, code.p_z)
        new = cp.single_shot_distance(code, check_type, 1, iterations=10, seed=seed,
                                      budget=cp._enum_cost(m.cols, 1))
        old = reference_single_shot(code, check_type, 1, 10, seed)
        assert (new.lower, new.upper) == (old.lower, old.upper)
        assert new.upper is not None
        s = np.zeros(m.cols, dtype=np.uint8)
        s[list(new.witness)] = 1
        assert not (m.to_dense() @ s % 2).any()
        assert not in_rowspace(rref(transpose(p)), to_int(s))
        assert new.witness <= old.witness

    def test_escalation_deepens_to_the_exact_distance(self):
        """Within the budget the escalation deepens the search from w_max
        before it samples, as for X and Z distance: tt72's Z single-shot
        distance is certified exact at 6."""
        code = build_from_config(load_fixture("tt72.json"))
        assert cp.single_shot_distance(code, "Z", 2).upper is None
        got = cp.single_shot_distance(code, "Z", 2, iterations=1)
        assert (got.lower, got.upper) == (6, 6)
        s = np.zeros(code.m_z.cols, dtype=np.uint8)
        s[list(got.witness)] = 1
        assert not (code.m_z.to_dense() @ s % 2).any()
        assert not in_rowspace(rref(transpose(code.p_z)), to_int(s))

    def test_zero_w_max_is_refused(self, row1):
        with pytest.raises(ValueError):
            cp.single_shot_distance(row1, "X", 0)

    def test_t2_has_no_metachecks(self, toy6):
        with pytest.raises(cp.MetacheckAbsent):
            cp.single_shot_distance(toy6, "X", 2)

    def test_row1_matches_direct_enumeration(self, row1):
        got = cp.single_shot_distance(row1, "X", 4)
        m = row1.m_x.to_dense()
        valid = rref(transpose(row1.p_x))
        best = None
        rows_s = m.shape[1]
        for w in (1, 2):
            for sup in itertools.combinations(range(rows_s), w):
                s = np.zeros(rows_s, dtype=np.uint8)
                s[list(sup)] = 1
                if not (m @ s % 2).any() and not in_rowspace(valid, to_int(s)):
                    best = w
                    break
            if best:
                break
        assert got.upper == best == 2

    def test_columns_of_p_are_realizable(self, row1):
        valid = rref(transpose(row1.p_x))
        for col in row1.p_x.col_ints()[:8]:
            assert in_rowspace(valid, col)


def brute_connected(neigh, max_size):
    """Every connected vertex subset of size <= max_size, as sorted tuples:
    each combination of vertices, kept when a search inside it reaches all
    of it."""
    n = len(neigh)
    out = set()
    for k in range(1, max_size + 1):
        for sub in itertools.combinations(range(n), k):
            seen = {sub[0]}
            stack = [sub[0]]
            ss = set(sub)
            while stack:
                v = stack.pop()
                for u in neigh[v]:
                    if u in ss and u not in seen:
                        seen.add(u)
                        stack.append(u)
            if len(seen) == k:
                out.add(sub)
    return out


def tanner_sets(h):
    """Qubit adjacency through the rows of h, one set per qubit."""
    neigh = [set() for _ in range(h.cols)]
    for r in h.row_ints():
        sup = {i for i in range(h.cols) if r >> i & 1}
        for q in sup:
            neigh[q] |= sup - {q}
    return neigh


def xor_cols(cols, idxs):
    s = 0
    for i in idxs:
        s ^= cols[i]
    return s


class TestConnectedSubsets:
    def test_matches_brute_force(self):
        rnd = random.Random(99)
        for _ in range(25):
            n = rnd.randint(1, 9)
            neigh = [set() for _ in range(n)]
            for _ in range(rnd.randint(0, 2 * n)):
                a, b = rnd.randrange(n), rnd.randrange(n)
                if a != b:
                    neigh[a].add(b)
                    neigh[b].add(a)
            ms = rnd.randint(1, 4)
            masks = [sum(1 << u for u in ns) for ns in neigh]
            got = list(cp.connected_subsets(masks, ms))
            assert len(got) == len(set(got))
            assert set(got) == brute_connected(neigh, ms)
            roots = set(rnd.sample(range(n), rnd.randint(0, n)))
            rooted = list(cp.connected_subsets(masks, ms, roots))
            assert len(rooted) == len(set(rooted))
            assert set(rooted) == {s for s in got if s[0] in roots}


def brute_confinement(code, err_type, w_max):
    """Exact confinement profile by its definition: an error is irreducible
    when no member of its coset under the whole stabilizer span is lighter.
    Its clusters come from ``brute_connected``, not from the enumerator
    under test."""
    h, stab = (code.p_x, code.p_z) if err_type == "Z" else (code.p_z, code.p_x)
    span = {0}
    for r in stab.row_ints():
        span |= {s ^ r for s in span}
    cols = h.col_ints()
    best = [None] * w_max
    for sup in brute_connected(tanner_sets(h), w_max):
        w = len(sup)
        e = sum(1 << i for i in sup)
        if min((e ^ s).bit_count() for s in span) < w:
            continue
        sw = xor_cols(cols, sup).bit_count()
        if sw and (best[w - 1] is None or sw < best[w - 1]):
            best[w - 1] = sw
    return tuple(cp._minplus_closure(best))


def reference_cluster_profile(code, err_type, w_max, seed, samples):
    """Cluster-mode confinement entries as the sampler first computed them:
    the full coset table up to weight w_max - 1, the coset test before the
    syndrome-weight test, and a frontier rebuilt and sorted at every step.
    The optimised sampler must make the same draws and reach the same
    entries."""
    h, stab = cp._select_check_pair(code, err_type)
    n = h.cols
    h_cols = h.col_ints()
    kb_cols = kernel_basis(stab).col_ints()
    neighbors = tanner_sets(h)
    best = [math.inf] * w_max
    reachable = []
    seen = set()
    for syns, _ in cp._syndrome_layers(kb_cols, w_max - 1):
        seen = seen.union(syns)
        reachable.append(seen)

    def consider(sup):
        w = len(sup)
        if xor_cols(kb_cols, sup) in reachable[w - 1]:
            return
        sw = xor_cols(h_cols, sup).bit_count()
        if 0 < sw < best[w - 1]:
            best[w - 1] = sw

    draw = random.Random(seed).randrange
    for _ in range(samples):
        cur = [draw(n)]
        cur_set = set(cur)
        consider(tuple(cur))
        while len(cur) < w_max:
            frontier = sorted(
                set().union(*(neighbors[q] for q in cur)) - cur_set
            )
            if not frontier:
                break
            q = frontier[draw(len(frontier))]
            cur.append(q)
            cur_set.add(q)
            consider(tuple(sorted(cur)))
    raw = [int(b) if b < math.inf else None for b in best]
    return tuple(cp._minplus_closure(raw))


def draw_generators(data, spec, t):
    """t random ring elements with 1-3 distinct monomials each."""
    monomials = st.lists(st.integers(0, spec.size - 1), min_size=1, max_size=3,
                         unique=True)
    return [
        RingElem(spec, tuple(map(spec.index_to_exponents, data.draw(monomials))))
        for _ in range(t)
    ]


class TestTranslationRoots:
    """``_translation_roots`` trusts the ``circulant`` mark of
    ``build_code``; the dense check ``conftest.reference_translation_roots``
    tests the claim behind it."""

    def test_every_fixture_pair(self):
        """All 105 pairs of the 30 fixtures; about 0.6 s."""
        pairs = [(code, h, stab) for code in
                 (build_from_config(load_fixture(f)) for f in fixture_names())
                 for h, stab in code_pairs(code)]
        assert len(pairs) == 105
        for code, h, stab in pairs:
            origins = range(0, h.cols, code.spec.size)
            assert reference_translation_roots(code, h, stab) == origins
            assert cp._translation_roots(code, h) == origins

    @settings(max_examples=80, deadline=None)
    @given(
        orders=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        t=st.integers(2, 4),
        data=st.data(),
    )
    def test_built_codes_are_invariant(self, orders, t, data):
        """Every pair of a ``build_code`` code, at any q, is rooted at the
        block origins, and the dense check agrees; about 0.3 s."""
        spec = GroupSpec(tuple(orders))
        assume(2 <= spec.size <= 12)
        gens = draw_generators(data, spec, t)
        code, _ = build_code(gens, spec, q_override=data.draw(st.integers(1, t - 1)))
        assert code.circulant
        for h, stab in code_pairs(code):
            origins = range(0, h.cols, spec.size)
            assert reference_translation_roots(code, h, stab) == origins
            assert cp._translation_roots(code, h) == origins

    @settings(max_examples=40, deadline=None)
    @given(
        orders=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        t=st.integers(2, 4),
        data=st.data(),
    )
    def test_replaced_and_extracted_codes_are_unmarked(self, orders, t, data):
        """Codes whose matrices ``replace`` permuted, by the identity and by
        a drawn permutation, and the code ``extract_mcss`` makes from the
        maps of a built one are unmarked: every column of each pair is a
        root."""
        spec = GroupSpec(tuple(orders))
        assume(2 <= spec.size <= 12)
        gens = draw_generators(data, spec, t)
        q = data.draw(st.integers(1, t - 1))
        built, maps = build_code(gens, spec, q_override=q)
        codes = [extract_mcss(maps, t, spec, q)]
        for perm in (range(built.n), data.draw(st.permutations(range(built.n)))):
            codes.append(dataclasses.replace(
                built,
                p_x=BitMatrix.from_dense(built.p_x.to_dense()[:, list(perm)]),
                p_z=BitMatrix.from_dense(built.p_z.to_dense()[:, list(perm)]),
            ))
        for code in codes:
            assert not code.circulant
            for h, _ in code_pairs(code):
                assert cp._translation_roots(code, h) == range(h.cols)


def test_no_matrix_is_reduced_twice(monkeypatch):
    """Search's evaluation of an accepted bench candidate (its distances
    reach the information-set passes) and a full tt72 report eliminate
    each matrix content once per pivot order: every later rref, rank or
    kernel of it, and of its transpose, comes from the matrix's cache, and
    each information-set pass draws a new order.  About 0.1 s."""
    reduced = []
    eliminate = gf2._eliminate

    def counted(a, order=None):
        reduced.append((a.cols, a.ints, None if order is None else tuple(order)))
        return eliminate(a, order)

    monkeypatch.setattr(gf2, "_eliminate", counted)
    monkeypatch.setattr(cp, "_eliminate", counted)
    spec = GroupSpec((2, 2, 2, 3))
    gens = [parse_poly(p, spec) for p in
            ("1+z+x*y+x*y*z", "1+y+w*z+w*y*z", "1+w*z", "1+x*z")]
    config = SearchConfig(t=4, orders=((2, 2, 2, 3),), distance_budget=(3, 30),
                          require_k_min=2, require_d_min=3, workers=2)
    report = evaluate_candidate(gens, spec, config)
    assert report.d_x.lower == report.d_x.upper == 6
    tt72 = build_from_config(load_fixture("tt72.json"))
    report = cp.analyze(tt72, iterations=5, ss_w=2, confinement_w=3)
    assert report.d_x.upper == 12 and report.d_ss_z.upper == 6
    assert len(reduced) > 60  # the information-set passes ran
    assert len(set(reduced)) == len(reduced)


class TestConfinement:
    @pytest.mark.parametrize("kind", ["ssX", "ssZ", "Y"])
    def test_only_error_types_have_a_profile(self, row1, kind):
        with pytest.raises(ValueError):
            cp.confinement_profile(row1, kind, 2)

    @pytest.mark.parametrize("mode", ["exact", "cluster"])
    def test_table_cap_is_charged_in_both_modes(self, monkeypatch, mode):
        """tt72's coset table at w=3 holds 1 + 72 entries: refused one past
        the cap before it is built, and built at the cap.  Under 0.1 s."""
        tt72 = build_from_config(load_fixture("tt72.json"))
        monkeypatch.setattr(cp, "CONFINEMENT_TABLE_CAP", 72)
        with pytest.raises(cp.TableTooLarge, match="needs ~73 entries, over the cap 72"):
            cp.confinement_profile(tt72, "Z", 3, mode=mode)
        monkeypatch.setattr(cp, "CONFINEMENT_TABLE_CAP", 73)
        assert cp.confinement_profile(tt72, "Z", 3, mode=mode, samples=100).mode == mode

    def test_row02_reproduces_the_criterion_4_profile(self):
        """The [8,8,8,8] profile that criterion 4 asserts for a weight-2
        generator code is the exact profile of table2_row02."""
        code = build_from_config(load_fixture("table2_row02.json"))
        for et in ("X", "Z"):
            prof = cp.confinement_profile(code, et, 4)
            assert prof.entries == (8, 8, 8, 8) and prof.mode == "exact"

    @settings(max_examples=40, deadline=None)
    @given(
        orders=st.sampled_from([(3,), (4,), (5,), (6,), (2, 2), (2, 3), (8,)]),
        t=st.sampled_from([2, 3]),
        data=st.data(),
    )
    def test_exact_matches_brute_force(self, orders, t, data):
        spec = GroupSpec(orders)
        assume(t == 2 or spec.size <= 4)  # keeps the stabilizer span small
        gens = draw_generators(data, spec, t)
        code, _ = build_code(gens, spec)
        for et in ("X", "Z"):
            got = cp.confinement_profile(code, et, 3)
            assert got.entries == brute_confinement(code, et, 3)

    @settings(max_examples=30, deadline=None)
    @given(
        orders=st.sampled_from([(3,), (4,), (5,), (6,), (2, 2), (2, 3), (8,)]),
        t=st.sampled_from([2, 3]),
        data=st.data(),
    )
    def test_exact_matches_brute_force_w4(self, orders, t, data):
        """At w_max = 4 the top layer's coset test splits a weight-3
        representative into a table entry of weight <= 2 plus one column."""
        spec = GroupSpec(orders)
        # n <= 18 and a stabilizer span of at most 2^12 elements
        assume(t == 2 or spec.size <= 6)
        gens = draw_generators(data, spec, t)
        code, _ = build_code(gens, spec)
        for et in ("X", "Z"):
            got = cp.confinement_profile(code, et, 4)
            assert got.entries == brute_confinement(code, et, 4)

    @settings(max_examples=60, deadline=None)
    @given(
        orders=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        t=st.integers(2, 4),
        data=st.data(),
    )
    def test_cluster_matches_reference_sampler(self, orders, t, data):
        spec = GroupSpec(tuple(orders))
        assume(2 <= spec.size <= 8)
        gens = draw_generators(data, spec, t)
        code, _ = build_code(gens, spec, q_override=data.draw(st.integers(1, t - 1)))
        w_max = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 9))
        samples = data.draw(st.integers(50, 300))
        for et in ("X", "Z"):
            got = cp.confinement_profile(
                code, et, w_max, mode="cluster", seed=seed, samples=samples
            )
            assert got.entries == reference_cluster_profile(
                code, et, w_max, seed, samples
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["table2_row02", "table2_row09"])
    def test_cluster_matches_reference_sampler_on_rows(self, name, seed):
        code = build_from_config(load_fixture(f"{name}.json"))
        for et in ("X", "Z"):
            got = cp.confinement_profile(
                code, et, 4, mode="cluster", seed=seed, samples=2000
            )
            assert got.entries == reference_cluster_profile(code, et, 4, seed, 2000)

    def test_cluster_frontier_of_one_across_blocks(self):
        """The checks of h join qubits i and i + 1, so a cluster rooted at
        qubit 0 has a frontier of one qubit."""
        n = 7
        path = BitMatrix([0b11 << i for i in range(n - 1)], n)
        code = dataclasses.replace(make([3], ["1+x", "1+x^2"]),
                                   p_x=path, p_z=BitMatrix([], n))
        assert cp._tanner_neighbors(path)[0] == 0b10
        samples = 1000
        for seed in range(3):
            got = cp.confinement_profile(
                code, "Z", 4, mode="cluster", seed=seed, samples=samples
            )
            assert got.entries == reference_cluster_profile(code, "Z", 4, seed, samples)

    @settings(max_examples=60, deadline=None)
    @given(
        orders=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        t=st.integers(2, 4),
        data=st.data(),
    )
    def test_anchored_matches_every_root(self, orders, t, data):
        spec = GroupSpec(tuple(orders))
        assume(2 <= spec.size <= 8)
        gens = draw_generators(data, spec, t)
        code, _ = build_code(gens, spec, q_override=data.draw(st.integers(1, t - 1)))
        w_max = data.draw(st.integers(3, 4 if code.n <= 24 else 3))
        for et in ("X", "Z"):
            h, stab = cp._select_check_pair(code, et)
            assert cp._translation_roots(code, h) == range(0, code.n, spec.size)
            anchored = cp.confinement_profile(code, et, w_max)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cp, "_translation_roots", lambda code, h: range(h.cols))
                assert cp.confinement_profile(code, et, w_max) == anchored

    def test_relabelled_qubits_are_not_anchored(self):
        # Swapping qubits 0 and 5 breaks translation invariance: both block
        # origins (qubits 0 and 4) now hold weight-3 columns of P_X, while the
        # lightest columns have weight 2, so rooting at the origins alone
        # would miss the lightest single-qubit Z error.  The original code is
        # marked, so a mark that ``replace`` copied would root the relabelled
        # code at its block origins.
        original = make([4], ["1+x", "1+x+x^2"])
        for et in ("X", "Z"):
            h, stab = cp._select_check_pair(original, et)
            assert cp._translation_roots(original, h) == range(0, 8, 4)
        perm = [5, 1, 2, 3, 4, 0, 6, 7]
        code = dataclasses.replace(
            original,
            p_x=BitMatrix.from_dense(original.p_x.to_dense()[:, perm]),
            p_z=BitMatrix.from_dense(original.p_z.to_dense()[:, perm]),
        )
        for et in ("X", "Z"):
            h, stab = cp._select_check_pair(code, et)
            assert cp._translation_roots(code, h) == range(code.n)
            assert reference_translation_roots(code, h, stab) == range(code.n)
            got = cp.confinement_profile(code, et, 3)
            assert got.entries == brute_confinement(code, et, 3)

    @pytest.mark.parametrize("p_x, p_z", [
        # The largest column weight of h is 3.  Pruning as if one qubit moved
        # the syndrome weight by at most 2 cuts the weight-4 cluster of
        # syndrome weight 1 and reports (1, 1, 1, 2).
        (BitMatrix([0b100010, 0b100011, 0b101100, 0b011110], 6),
         BitMatrix([0b100001], 6)),
        # Root 0 sets best[1..3] to 1.  The pair {3, 4} (syndrome weight 4)
        # still leads to {3, 4, 5, 6} (syndrome weight 1): a subtree may be
        # skipped only when no larger size could improve, not as soon as
        # one size cannot.
        (BitMatrix([0b11, 0b110, 0b100, 0b101000, 0b101000, 0b11000,
                    0b1010000, 0b1010000, 0b100000], 7),
         BitMatrix([], 7)),
    ])
    def test_prune_keeps_the_improving_cluster(self, p_x, p_z):
        code = dataclasses.replace(make([3], ["1+x", "1+x^2"]), p_x=p_x, p_z=p_z)
        want = brute_confinement(code, "Z", 4)
        assert want == (1, 1, 1, 1)
        assert cp.confinement_profile(code, "Z", 4).entries == want

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 10), data=st.data())
    def test_random_checks_match_brute_force(self, n, data):
        """Arbitrary (h, stab) pairs on n <= 10 qubits, so that the syndrome
        weight prune meets column weights and profiles that no code family
        produces."""
        rows = st.lists(st.integers(0, 2**n - 1), max_size=10)
        code = dataclasses.replace(
            make([3], ["1+x", "1+x^2"]),
            p_x=BitMatrix(data.draw(rows), n),
            p_z=BitMatrix(data.draw(rows), n),
        )
        w_max = data.draw(st.integers(1, min(4, n)))
        for et in ("X", "Z"):
            got = cp.confinement_profile(code, et, w_max)
            assert got.entries == brute_confinement(code, et, w_max)

    @pytest.mark.parametrize("name, want", [
        ("table2_row13", (8, 8, 6, 10)),
        ("table2_row20", (8, 12, 12, 16)),
    ])
    def test_exact_w4_profiles_of_large_rows(self, name, want):
        code = build_from_config(load_fixture(f"{name}.json"))
        prof = cp.confinement_profile(code, "Z", 4)
        assert prof.entries == want and prof.mode == "exact"

    @pytest.mark.parametrize("et", ["X", "Z"])
    def test_exact_w4_profile_of_haah1024(self, et):
        # n = 1024 and w = 4 fit the table cap, so exact mode runs: about
        # 0.6 s, plus 0.9 s for the cluster profile it must not exceed.
        code = build_from_config(load_fixture("haah1024.json"))
        prof = cp.confinement_profile(code, et, 4)
        assert prof.mode == "exact" and prof.exact == (True,) * 4
        assert prof.entries == (4, 4, 4, 4)
        cluster = cp.confinement_profile(code, et, 4, mode="cluster")
        assert all(e <= c for e, c in zip(prof.entries, cluster.entries))

    def test_w1_is_min_column_weight(self, row1):
        prof = cp.confinement_profile(row1, "Z", 1)
        assert prof.entries[0] == int(row1.p_x.to_dense().sum(axis=0).min())

    def test_row1_low_weights(self, row1):
        prof = cp.confinement_profile(row1, "Z", 2)
        assert prof.entries == (4, 4)
        assert prof.mode == "exact"

    def test_cluster_upper_bounds_exact(self, row1):
        exact = cp.confinement_profile(row1, "Z", 2)
        cluster = cp.confinement_profile(
            row1, "Z", 2, mode="cluster", samples=3000, seed=5
        )
        for e, c in zip(exact.entries, cluster.entries):
            if c is not None:
                assert e <= c
        assert cluster.exact == (False, False)

    def test_minplus_closure(self):
        assert cp._minplus_closure([2, None, 7]) == [2, 4, 6]
        assert cp._minplus_closure([None, 3]) == [None, 3]

    def test_bad_mode(self, row1):
        with pytest.raises(ValueError):
            cp.confinement_profile(row1, "Z", 2, mode="auto")

    @pytest.mark.parametrize("mode", ["exact", "cluster"])
    def test_weight_past_the_qubit_count_is_refused(self, mode):
        """No error of bga16 weighs more than its n = 16 qubits: w = 16 is
        the last weight with a profile.  w = 2000 used to print 2,000 entries,
        and w = 10^9 would have allocated about 16 GB."""
        code = build_from_config(load_fixture("bga16.json"))
        assert len(cp.confinement_profile(code, "Z", 16, mode=mode, samples=50)
                   .entries) == 16
        for w in (17, 10**9):
            with pytest.raises(ValueError, match=f"in 1..16, the qubit count, got {w}"):
                cp.confinement_profile(code, "Z", w, mode=mode)


class TestCheckWeights:
    def test_row1(self, row1):
        st = cp.check_weight_stats(row1)
        assert (st.w_med_x, st.w_med_z, st.w_max_x, st.w_max_z) == (6, 6, 6, 6)

    def test_96_44(self):
        code = make(
            [2, 2, 2, 2],
            ["(1+x)(1+yz)", "(1+y)(1+zw)", "(1+z)(1+wx)", "(1+w)(1+xy)"],
        )
        st = cp.check_weight_stats(code)
        assert (st.w_med_x, st.w_max_x) == (12, 12)

    def test_lower_median_convention(self, toy6):
        # even count with distinct middle values picks the lower one
        ws = sorted(int(w) for w in toy6.p_x.row_weights())
        st = cp.check_weight_stats(toy6)
        assert st.w_med_x == ws[(len(ws) - 1) // 2]


class TestReport:
    def test_analyze_round_trip(self, toy6):
        rep = cp.analyze(toy6, name="toy", w_exhaustive=4, confinement_w=2)
        d = rep.to_dict()
        assert d["n"] == 6 and d["k"] == rep.k
        assert d["d_s"] == cp.profile_min(rep.confinement_x, rep.confinement_z)
        assert d["d_ss_x"] is None  # t=2: no metachecks

    def test_profile_min(self):
        a = cp.ConfinementProfile((3, None, 5), (True,) * 3, "exact")
        assert cp.profile_min(a, None) == 3
        assert cp.profile_min(None, None) is None
