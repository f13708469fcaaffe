"""Acceptance gate: one test per criterion."""

import io

import numpy as np

from mmcodes import codeparams as cp
from mmcodes import formats
from mmcodes.circulant import poly_to_circulant
from mmcodes.cli import main
from mmcodes.gf2 import (
    BitMatrix,
    in_rowspace,
    kernel_basis,
    mat_mul,
    rank,
    rref,
    transpose,
)
from mmcodes.koszul import build_code, chain_dims, verify_complex
from mmcodes.ring import GroupSpec, RingElem, parse_poly, ring_add, ring_mul

from conftest import (
    dense, oracle_in_rowspace, oracle_rank, random_bitmatrix, random_dense, to_int,
)


def make(orders, polys, names=None):
    spec = GroupSpec(tuple(orders))
    gens = [parse_poly(p, spec, names) for p in polys]
    return build_code(gens, spec)


CYCLIC = ["(1+x)(1+yz)", "(1+y)(1+zw)", "(1+z)(1+wx)", "(1+w)(1+xy)"]


def test_criterion_1_row1_parameters():
    code, _ = make([2, 2, 2, 2], ["1+wx", "1+xy", "1+yz", "1+wz"])
    assert code.n == 96
    assert cp.logical_count(code) == 12
    for et in ("X", "Z"):
        b = cp.distance_exhaustive(code, et, 4)
        assert b.lower == 4 and b.upper == 4


def test_criterion_2_high_rate_row():
    code, _ = make([2, 2, 2, 2], CYCLIC)
    assert cp.logical_count(code) == 44
    for et in ("X", "Z"):
        b = cp.distance_exhaustive(code, et, 4)
        assert b.lower == 4 and b.upper == 4
    st = cp.check_weight_stats(code)
    assert (st.w_med_x, st.w_med_z, st.w_max_x, st.w_max_z) == (12, 12, 12, 12)


def test_criterion_3_648_example():
    code, maps = make([3, 3, 3, 4], CYCLIC)
    dims = [maps[0].rows] + [m.cols for m in maps]
    assert dims == [108, 432, 648, 432, 108]
    assert cp.logical_count(code) == 60
    # certified d > 3
    for et in ("X", "Z"):
        assert cp.distance_exhaustive(code, et, 3).upper is None
    # randomized search reaches the weight-9 logical; retry with a 10x
    # budget before declaring a miss, since the search is probabilistic
    b = cp.distance_randomized(code, "Z", 2000, seed=0, stop_at=9)
    if b.upper is None or b.upper > 9:
        b = cp.distance_randomized(code, "Z", 20000, seed=1, stop_at=9)
    assert b.upper is not None and b.upper <= 9


def test_criterion_4_confinement_profiles():
    toric, _ = make([2, 2, 2, 2], ["1+w", "1+x", "1+y", "1+z"])
    assert toric.n == 96
    assert cp.logical_count(toric) == 6
    for et in ("X", "Z"):
        b = cp.distance_exhaustive(toric, et, 4)
        assert b.upper == 4
        prof = cp.confinement_profile(toric, et, 3)
        assert prof.entries == (4, 4, 4) and prof.mode == "exact"
    row1, _ = make([2, 2, 2, 2], ["1+wx", "1+xy", "1+yz", "1+wz"])
    for et in ("X", "Z"):
        prof = cp.confinement_profile(row1, et, 4)
        assert prof.mode == "exact"
        assert prof.entries == (8, 8, 8, 8)


def test_criterion_5_subfamily_regressions():
    bb, _ = make([21, 18], ["x^3+y^10+y^17", "x^19+x^3+y^5"])
    assert bb.n == 756 and cp.logical_count(bb) == 16

    tt, _ = make([4, 3, 2], ["1+y+xy^2", "1+yz+x^2y^2", "1+xy^2z+x^2y"])
    assert tt.n == 72 and cp.logical_count(tt) == 6
    d = min(
        b.upper if b.upper is not None else b.lower
        for b in (
            cp.distance_exhaustive(tt, "X", 6),
            cp.distance_exhaustive(tt, "Z", 6),
        )
    )
    assert d == 6

    gb, _ = make([35, 1], ["1+x^15+x^16+x^18", "1+x+x^24+x^27"])
    assert gb.n == 70 and cp.logical_count(gb) == 8
    assert cp.distance_exhaustive(gb, "Z", 6).upper is None  # d > 6 certified
    assert cp.distance_randomized(gb, "Z", 300, seed=1, stop_at=10).upper <= 10

    bga, _ = make([4, 2], ["1+x", "1+x+s+x^2+s*x+s*x^3"], names=("x", "s"))
    assert bga.n == 16 and cp.logical_count(bga) == 2
    assert cp.distance_exhaustive(bga, "Z", 4).upper == 4
    assert cp.distance_exhaustive(bga, "X", 4).upper == 4

    mb, _ = make([4, 6], ["x^3+y^5", "x+y^2+y^5+x*y^5"])
    assert mb.n == 48 and cp.logical_count(mb) == 4
    assert cp.distance_exhaustive(mb, "Z", 6).upper == 6
    assert cp.distance_exhaustive(mb, "X", 6).upper == 6
    assert cp.distance_exhaustive(mb, "Z", 5).upper is None

    lc, _ = make([7, 7], ["1+x+x^3", "1+y+y^3"])
    assert lc.n == 98 and cp.logical_count(lc) == 18
    assert cp.distance_exhaustive(lc, "Z", 4).upper == 4
    assert cp.distance_exhaustive(lc, "X", 4).upper == 4

    c2, _ = make([15, 15], ["1+x+x^4", "1+y+y^4"])
    assert c2.n == 450 and cp.logical_count(c2) == 32

    haah, _ = make([8, 8, 8], ["1+x+y+z", "1+x*y+x*z+y*z"])
    assert haah.n == 1024 and cp.logical_count(haah) == 30


def test_criterion_6_property_suites():
    rng = np.random.default_rng(2024)

    # 200 random Koszul instances: chain and orthogonality conditions
    from math import comb

    for _ in range(200):
        t = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 5))
        qubit_cap = 256 // comb(t, t // 2)  # keep n = C(t,q) * prod(l) <= 256
        while True:
            orders = tuple(int(rng.integers(1, 5)) for _ in range(dim))
            spec = GroupSpec(orders)
            if spec.size <= qubit_cap:
                break
        gens = [
            RingElem(
                spec,
                tuple(
                    tuple(int(rng.integers(0, 8)) for _ in range(dim))
                    for _ in range(int(rng.integers(0, 4)))
                ),
            )
            for _ in range(t)
        ]
        code, maps = build_code(gens, spec)
        assert verify_complex(maps)
        assert mat_mul(code.p_x, transpose(code.p_z)).is_zero()
        if code.m_x is not None:
            assert mat_mul(code.m_x, code.p_x).is_zero()
        if code.m_z is not None:
            assert mat_mul(code.m_z, code.p_z).is_zero()

    # 500 random polynomial pairs: circulant ring homomorphism
    for _ in range(500):
        dim = int(rng.integers(1, 4))
        orders = tuple(int(rng.integers(1, 5)) for _ in range(dim))
        spec = GroupSpec(orders)
        def rand_elem():
            return RingElem(
                spec,
                tuple(
                    tuple(int(rng.integers(0, 9)) for _ in range(dim))
                    for _ in range(int(rng.integers(0, 5)))
                ),
            )
        f, g = rand_elem(), rand_elem()
        mf, mg = poly_to_circulant(f, spec), poly_to_circulant(g, spec)
        assert mat_mul(mf, mg) == poly_to_circulant(ring_mul(f, g), spec)
        assert BitMatrix.from_dense(
            dense(mf) ^ dense(mg)
        ) == poly_to_circulant(ring_add(f, g), spec)

    # 500 random matrices: rank / kernel / membership against oracles
    for _ in range(500):
        r = int(rng.integers(1, 65))
        c = int(rng.integers(1, 65))
        arr = random_dense(rng, r, c)
        bm = BitMatrix.from_dense(arr)
        assert rank(bm) == oracle_rank(arr)
        kb = kernel_basis(bm)
        assert kb.rows == c - oracle_rank(arr)
        if kb.rows:
            assert mat_mul(bm, transpose(kb)).is_zero()
        v = random_dense(rng, 1, c)[0]
        assert in_rowspace(rref(bm), to_int(v)) == oracle_in_rowspace(arr, v)

    # 100 random matrices: alist and mtx round-trips
    for _ in range(100):
        m = random_bitmatrix(rng, int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        assert formats.read_alist(formats.write_alist(m)) == m
        assert formats.read_mtx(formats.write_mtx(m)) == m


def test_criterion_7_params_determinism(tmp_path):
    import json

    cfg = {
        "name": "row1",
        "t": 4,
        "orders": [2, 2, 2, 2],
        "generators": ["1+wx", "1+xy", "1+yz", "1+wz"],
    }
    path = tmp_path / "row1.json"
    path.write_text(json.dumps(cfg))
    argv = [
        "params", str(path), "--w-exhaustive", "3", "--iterations", "10",
        "--seed", "5", "--ss-w", "4",
    ]
    outputs = set()
    for _ in range(3):
        out = io.StringIO()
        assert main(argv, out=out) == 0
        outputs.add(out.getvalue())
    assert len(outputs) == 1
