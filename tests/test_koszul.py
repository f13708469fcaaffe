import dataclasses
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmcodes import koszul
from mmcodes.circulant import SizeBudgetExceeded
from mmcodes.gf2 import mat_mul, transpose
from mmcodes.koszul import (
    ChainTooLarge,
    KoszulError,
    build_code,
    chain_dims,
    extract_mcss,
    instantiate,
    symbolic_boundaries,
    verify_complex,
)
from mmcodes.ring import GroupSpec, RingElem, parse_poly

from conftest import dense, dense_instantiate, spec_and_elems


def make(orders, polys, names=None, q=None):
    spec = GroupSpec(tuple(orders))
    gens = [parse_poly(p, spec, names) for p in polys]
    return build_code(gens, spec, q_override=q)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_instantiate_matches_dense_reference(data):
    """The int-row block assembly against dense block copies, t = 1-5;
    about 0.6 s."""
    t = data.draw(st.integers(1, 5))
    spec, gens = data.draw(spec_and_elems(t))
    sym = symbolic_boundaries(t)
    assert instantiate(sym, gens, spec) == dense_instantiate(sym, gens, spec)


class TestSymbolic:
    def test_t1(self):
        sym = symbolic_boundaries(1)
        assert sym.maps == ({(0, 0): 1},)

    def test_t0_rejected(self):
        with pytest.raises(KoszulError):
            symbolic_boundaries(0)

    def test_t2_pattern(self):
        sym = symbolic_boundaries(2)
        # degree-2 map: the single column {1,2} drops either generator
        assert sym.maps[1] == {(1, 0): 1, (0, 0): 2}
        # degree-1 map: column {j} holds generator j
        assert sym.maps[0] == {(0, 0): 1, (0, 1): 2}

    def test_t4_degree3_pattern(self):
        sym = symbolic_boundaries(4)
        assert sym.block_shape(3) == (6, 4)
        cols = sym.subsets[3]
        rows = sym.subsets[2]
        for (r, c), g in sym.maps[2].items():
            u = set(cols[c])
            assert g in u
            assert set(rows[r]) == u - {g}

    @settings(max_examples=20, deadline=None)
    @given(t=st.integers(1, 6))
    def test_nonzeros_per_row_and_column(self, t):
        sym = symbolic_boundaries(t)
        for k in range(1, t + 1):
            grid = sym.maps[k - 1]
            br, bc = sym.block_shape(k)
            col_counts = [0] * bc
            row_counts = [0] * br
            for (r, c) in grid:
                col_counts[c] += 1
                row_counts[r] += 1
            assert all(c == k for c in col_counts)
            assert all(r == t - k + 1 for r in row_counts)


class TestInstantiate:
    def test_identity_generators(self):
        spec = GroupSpec((2,))
        sym = symbolic_boundaries(2)
        maps = instantiate(sym, [RingElem.one(spec)] * 2, spec)
        assert maps[0].shape == (2, 4)
        assert maps[1].shape == (4, 2)
        assert mat_mul(maps[0], maps[1]).is_zero()

    def test_row1_shapes(self):
        code, maps = make([2, 2, 2, 2], ["1+wx", "1+xy", "1+yz", "1+wz"])
        assert maps[1].shape == (64, 96)
        assert maps[2].shape == (96, 64)
        assert code.p_x.shape == (64, 96)
        assert code.p_z.shape == (64, 96)

    def test_chain_dims_648(self):
        assert chain_dims(4, 108) == [108, 432, 648, 432, 108]
        _, maps = make(
            [3, 3, 3, 4],
            ["(1+x)(1+yz)", "(1+y)(1+zw)", "(1+z)(1+wx)", "(1+w)(1+xy)"],
        )
        dims = [maps[0].rows] + [m.cols for m in maps]
        assert dims == [108, 432, 648, 432, 108]

    def test_shape_law(self):
        spec = GroupSpec((2, 3))
        gens = [parse_poly(p, spec) for p in ["1+x", "1+y", "x+y^2"]]
        maps = instantiate(symbolic_boundaries(3), gens, spec)
        for k, m in enumerate(maps, start=1):
            assert m.shape == (comb(3, k - 1) * 6, comb(3, k) * 6)

    def test_wrong_generator_count(self):
        spec = GroupSpec((2,))
        with pytest.raises(KoszulError):
            instantiate(symbolic_boundaries(3), [RingElem.one(spec)] * 2, spec)


class TestChainCap:
    def test_t26_is_refused_before_its_subsets(self, monkeypatch):
        """Its 2^26 subsets used to be listed first, several GB; with
        ``symbolic_boundaries`` gone a late check fails at once instead."""
        monkeypatch.setattr(koszul, "symbolic_boundaries", None)
        with pytest.raises(ChainTooLarge, match="has 134217728 basis elements, "
                           "over the cap 65536"):
            make([2], ["1+x"] * 26)

    def test_cap_is_the_sum_of_chain_dims(self, monkeypatch):
        """A complex of 2^t |G| basis elements builds at the cap; one past it
        is refused, as a size budget, before ``symbolic_boundaries`` runs."""
        monkeypatch.setattr(koszul, "CHAIN_DIM_CAP", sum(chain_dims(4, 4)))
        make([4], ["1+x"] * 4)
        monkeypatch.setattr(koszul, "symbolic_boundaries", None)
        with pytest.raises(SizeBudgetExceeded, match="has 128 basis elements, "
                           "over the cap 64"):
            make([8], ["1+x"] * 4)

    def test_group_size_is_refused_first(self, monkeypatch):
        """|G| = 5000 at t = 4 is past both budgets (80,000 basis
        elements); the group size is named, as before the chain cap."""
        monkeypatch.setattr(koszul, "symbolic_boundaries", None)
        with pytest.raises(SizeBudgetExceeded) as info:
            make([5000], ["1+x"] * 4)
        assert str(info.value) == "group size 5000 exceeds the size budget 4096"


class TestChainGrid:
    @pytest.mark.parametrize("t", range(1, 11))
    def test_the_koszul_grid_passes(self, t):
        assert koszul._chain_grid(t) == symbolic_boundaries(t)

    def test_a_wrong_generator_fails(self, monkeypatch):
        """One cell of the t = 3 degree-2 map given another generator
        leaves two cells of d_1 d_2 with an unpaired product."""
        sym = symbolic_boundaries(3)
        bad = dict(sym.maps[1])
        cell = next(iter(bad))
        bad[cell] = bad[cell] % 3 + 1
        broken = dataclasses.replace(sym, maps=(sym.maps[0], bad, sym.maps[2]))
        monkeypatch.setattr(koszul, "symbolic_boundaries", lambda t: broken)
        with pytest.raises(KoszulError, match="t=3 grid"):
            koszul._chain_grid.__wrapped__(3)


class TestVerify:
    def test_correct_family_passes(self):
        _, maps = make([4, 3], ["1+x", "1+x*y^2"])
        assert verify_complex(maps)

    def test_mutated_block_fails(self):
        spec = GroupSpec((4,))
        sym = symbolic_boundaries(2)
        f = parse_poly("1+x", spec)
        g = parse_poly("1+x^2", spec)
        good = instantiate(sym, [f, g], spec)
        swapped = instantiate(sym, [g, f], spec)
        assert not verify_complex([good[0], swapped[1]])

    def test_t1_vacuous(self):
        spec = GroupSpec((3,))
        maps = instantiate(symbolic_boundaries(1), [parse_poly("1+x", spec)], spec)
        assert verify_complex(maps)


class TestExtract:
    def test_t2_no_metachecks(self):
        code, _ = make([5], ["1+x", "1+x^2"])
        assert code.m_x is None and code.m_z is None
        assert code.n == 10
        assert mat_mul(code.p_x, transpose(code.p_z)).is_zero()

    def test_t3_mz_only(self):
        code, _ = make([2, 3], ["1+x", "1+y", "1+x*y"])
        assert code.m_x is None
        assert code.m_z is not None
        assert mat_mul(code.m_z, code.p_z).is_zero()

    def test_t4_balanced(self):
        code, _ = make([2, 2, 2, 2], ["1+wx", "1+xy", "1+yz", "1+wz"])
        assert code.m_x is not None and code.m_z is not None
        assert code.m_x.shape == (16, 64)
        assert code.m_z.shape == (16, 64)
        assert code.p_x.shape == transpose(code.p_z).shape[::-1]
        assert mat_mul(code.m_x, code.p_x).is_zero()
        assert mat_mul(code.m_z, code.p_z).is_zero()

    def test_q_override(self):
        code, _ = make([2, 2], ["1+x", "1+y", "1+x*y"], q=2)
        assert code.q == 2
        assert code.m_x is not None  # q >= 2
        assert code.m_z is None  # q + 2 > t

    def test_q_out_of_range(self):
        spec = GroupSpec((2,))
        gens = [parse_poly("1+x", spec)] * 2
        maps = instantiate(symbolic_boundaries(2), gens, spec)
        with pytest.raises(KoszulError):
            extract_mcss(maps, 2, spec, q_override=2)

    def test_qubit_count_law(self):
        code, _ = make([2, 2, 3], ["1+x", "1+y", "1+z", "1+x*y"][:3])
        assert code.n == comb(3, 1) * 12

    def test_column_weight_law(self):
        # each qubit column of P_X sums the weights of the q generators
        # named by its subset
        code, maps = make([2, 2, 2, 2], ["1+wx", "1+xy", "1+yz", "1+wz"])
        col_w = dense(code.p_x).sum(axis=0)
        assert (col_w == 4).all()  # all generators have weight 2, q = 2


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_instances_satisfy_all_conditions(data):
    t = data.draw(st.integers(2, 5))
    dim = data.draw(st.integers(1, 3))
    orders = tuple(data.draw(st.integers(1, 3)) for _ in range(dim))
    spec = GroupSpec(orders)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    gens = []
    for _ in range(t):
        count = int(rng.integers(0, 4))
        monos = tuple(
            tuple(int(rng.integers(0, 6)) for _ in range(dim))
            for _ in range(count)
        )
        gens.append(RingElem(spec, monos))
    code, maps = build_code(gens, spec)
    assert verify_complex(maps)
    assert mat_mul(code.p_x, transpose(code.p_z)).is_zero()
    if code.m_x is not None:
        assert mat_mul(code.m_x, code.p_x).is_zero()
    if code.m_z is not None:
        assert mat_mul(code.m_z, code.p_z).is_zero()


def relabelled_rows(m, columns):
    """The rows of ``m`` with column c moved to ``columns[c]``."""
    return [sum(1 << columns[c] for c in range(m.cols) if row >> c & 1)
            for row in m.row_ints()]


@settings(max_examples=80, deadline=None)
@given(t=st.sampled_from([2, 4]), data=st.data())
def test_relabelling_maps_x_checks_onto_z_checks(t, data):
    """On codes with t = 2q, relabelling (S, g) to (complement of S, -g)
    moves row r of P_X, its qubits at degree q relabelled, to the row of
    P_Z that degree q - 1 relabels r to, and row r of M_X, its checks at
    degree q - 1 relabelled, to the row of M_Z that degree q - 2 relabels
    r to.  Each relabelling is a permutation."""
    spec, gens = data.draw(spec_and_elems(t))
    code, _ = build_code(gens, spec)
    q = t // 2
    assert code.self_dual and code.q == q
    perms = {k: koszul._relabelling(t, k, spec) for k in range(q - 2, q + 1) if k >= 0}
    for k, perm in perms.items():
        assert sorted(perm) == list(range(comb(t, k) * spec.size))
    pairs = [(code.p_x, code.p_z, q)] + [(code.m_x, code.m_z, q - 1)] * (q >= 2)
    for mx, mz, k in pairs:
        rows = relabelled_rows(mx, perms[k])
        assert [rows[perms[k - 1].index(i)] for i in range(mz.rows)] == mz.row_ints()


def test_only_q_half_of_even_t_is_marked_self_dual():
    spec = GroupSpec((3,))
    gens = [parse_poly("1+x", spec)] * 4
    assert [build_code(gens[:t], spec, q)[0].self_dual
            for t, q in ((2, None), (3, None), (4, None), (4, 1), (4, 2), (4, 3))] == \
        [True, False, True, False, True, False]
