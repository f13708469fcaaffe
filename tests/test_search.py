import dataclasses
import io
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from itertools import combinations_with_replacement, product
from pathlib import Path

import numpy as np
import pytest

import mmcodes
from mmcodes import codeparams as cp
from mmcodes import koszul, search
from mmcodes.circulant import SizeBudgetExceeded
from mmcodes.cli import EXIT_USAGE, main
from mmcodes.gf2 import DimensionMismatch
from mmcodes.koszul import build_code
from mmcodes.ring import GroupSpec, ParseError, parse_poly, render, weight
from mmcodes.search import (
    Rejection,
    SearchConfig,
    SearchError,
    canonical_key,
    evaluate_candidate,
    run_search,
    sample_generators,
)

from conftest import BENCH_SEARCH


def base_config(**kw):
    defaults = dict(
        t=2,
        orders=((4,),),
        term_range=(2, 3),
        require_k_min=1,
        require_d_min=2,
        distance_budget=(3, 10),
        max_candidates=10,
        seed=0,
        workers=1,
    )
    defaults.update(kw)
    return SearchConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(SearchError):
            base_config(term_range=(0, 3))
        with pytest.raises(SearchError):
            base_config(term_range=(4, 2))
        with pytest.raises(SearchError):
            base_config(orders=())
        with pytest.raises(SearchError):
            base_config(t=0)

    def test_confinement_weight_past_the_qubit_count(self):
        """A search never overrides q = t // 2, so orders (4,) at t = 2 give
        codes of C(2, 1)*4 = 8 qubits.  Past t = 16 no chain complex fits
        its cap, and the config is refused before any binomial is computed."""
        base_config(orders=((4,), (6,)), confinement_w_max=8)
        with pytest.raises(SearchError, match="9 exceeds the 8 qubits .* orders \\[4\\]"):
            base_config(orders=((4,), (6,)), confinement_w_max=9)
        with pytest.raises(SearchError, match="t must be in 2..16"):
            base_config(t=10**9, confinement_w_max=10**9)

    @pytest.mark.parametrize("t", [-1, 0, 1, 17, 10**9])
    def test_t_without_a_code_is_refused(self, t):
        """t < 2 leaves no qubit degree; past 16 every chain complex passes
        ``CHAIN_DIM_CAP``.  Every candidate would be a stage-1 rejection."""
        with pytest.raises(SearchError, match="t must be in 2..16"):
            base_config(t=t)

    def test_largest_chain_under_the_cap_is_accepted(self):
        assert base_config(t=16, orders=((1,),), term_range=(1, 1)).t == 16
        with pytest.raises(SearchError, match="orders \\[2\\] at t=16: the chain "
                           "complex has 131072 basis elements, over the cap 65536"):
            base_config(t=16, orders=((1,), (2,)), term_range=(1, 1))

    @pytest.mark.parametrize("t, order, message", [
        (2, (10**22,), "group size 10000000000000000000000 exceeds the size budget"),
        (2, (64, 65), "group size 4160 exceeds the size budget 4096"),
        (5, (4096,), "the chain complex has 131072 basis elements"),
    ])
    def test_order_tuple_that_cannot_build_is_refused(self, t, order, message):
        """Each order tuple must give a code at this t: |G| within
        ``DEFAULT_SIZE_BUDGET`` and 2^t |G| within ``CHAIN_DIM_CAP``."""
        base_config(t=t, orders=((4,), (2048,)))
        with pytest.raises(SearchError, match=message):
            base_config(t=t, orders=((4,), order))

    @pytest.mark.parametrize("doc, message", [
        ({"orders": [[9]] * 7 + [[2]], "term_range": [3, 4]},
         r"term_range minimum 3 exceeds the 2 monomials of orders \[2\]"),
        ({"orders": [[3, 3, 3], [3, 3]], "structured_families": ["1+v_a v_b v_c"]},
         r"orders \[3, 3\]: needs 3 distinct variables, has 2"),
        ({"orders": [[3, 3]], "structured_families": ["1+v_a2"]},
         "unexpected character '2'"),
        ({"orders": [[3, 3]],
          "structured_families": ["1+v_a", "1+v_a v_b", "1+v_b v_a", "(1+v_a"]},
         "expected '\\)'"),
    ], ids=["term-range", "slots", "parse-by-variable", "parse-by-template"])
    def test_refused_at_every_seed(self, doc, message, tmp_path, capsys):
        """Each config used to be refused only at the seeds that drew its bad
        order, template or variable ("1+v_a2" parsed as "1+x2" but not as
        "1+y2"), and to search at the others."""
        p = tmp_path / "search.json"
        p.write_text(json.dumps({"t": 2, "max_candidates": 1, **doc}))
        for seed in range(10):
            rc = main(["search", str(p), "--seed", str(seed)], out=io.StringIO())
            assert rc == EXIT_USAGE
            assert re.search(message, capsys.readouterr().err)


class TestSampling:
    def test_single_term_gives_monomials(self):
        cfg = base_config(term_range=(1, 1), t=3)
        spec = GroupSpec((4,))
        gens = sample_generators(cfg, spec, np.random.default_rng(0))
        assert len(gens) == 3
        assert all(weight(g) == 1 for g in gens)

    def test_deterministic(self):
        cfg = base_config()
        spec = GroupSpec((4,))
        a = sample_generators(cfg, spec, np.random.default_rng(42))
        b = sample_generators(cfg, spec, np.random.default_rng(42))
        assert a == b

    def test_without_replacement(self):
        cfg = base_config(term_range=(4, 4))
        spec = GroupSpec((4,))
        for _ in range(5):
            gens = sample_generators(cfg, spec, np.random.default_rng(7))
            assert all(weight(g) == 4 for g in gens)

    def test_term_count_exceeds_ring(self):
        with pytest.raises(SearchError, match="minimum 9 exceeds the 4 monomials"):
            base_config(term_range=(9, 9))

    def test_structured_template(self):
        cfg = base_config(
            t=4,
            orders=((2, 2, 2, 2),),
            structured_families=("(1+v_a)(1+v_b v_c)",),
        )
        spec = GroupSpec((2, 2, 2, 2))
        gens = sample_generators(cfg, spec, np.random.default_rng(1))
        assert len(gens) == 4
        assert all(weight(g) == 4 for g in gens)

    def test_template_needs_enough_variables(self):
        with pytest.raises(SearchError, match="needs 3 distinct variables"):
            base_config(structured_families=("(1+v_a)(1+v_b v_c)",))


class TestEvaluate:
    def test_trivial_generators_rejected_at_k(self):
        spec = GroupSpec((4,))
        gens = [parse_poly("1", spec)] * 2
        r = evaluate_candidate(gens, spec, base_config())
        assert isinstance(r, Rejection) and r.stage == 2

    def test_row1_accepted(self):
        spec = GroupSpec((2, 2, 2, 2))
        gens = [parse_poly(p, spec) for p in ["1+wx", "1+xy", "1+yz", "1+wz"]]
        cfg = base_config(t=4, orders=((2, 2, 2, 2),), distance_budget=(4, 0))
        rep = evaluate_candidate(gens, spec, cfg)
        assert not isinstance(rep, Rejection)
        assert rep.n == 96 and rep.k == 12
        assert rep.d_x.upper == 4 and rep.d_z.upper == 4

    def test_low_distance_rejected_at_stage3(self):
        spec = GroupSpec((2,))
        gens = [parse_poly("1+x", spec)] * 2
        code, _ = build_code(gens, spec)
        d = cp.distance_exhaustive(code, "Z", 4).upper
        assert d is not None
        cfg = base_config(require_d_min=d + 1, distance_budget=(4, 0))
        r = evaluate_candidate(gens, spec, cfg)
        assert isinstance(r, Rejection) and r.stage == 3

    def test_construction_error_becomes_stage1(self):
        spec = GroupSpec((200, 200))
        gens = [parse_poly("1+x", spec)] * 2
        r = evaluate_candidate(gens, spec, base_config())
        assert isinstance(r, Rejection) and r.stage == 1

    def test_chain_past_the_cap_becomes_stage1(self, monkeypatch):
        spec = GroupSpec((4,))
        gens, config = [parse_poly("1+x", spec)] * 2, base_config()
        assert evaluate_candidate(gens, spec, config) != Rejection(1)
        monkeypatch.setattr(koszul, "CHAIN_DIM_CAP", 15)
        assert evaluate_candidate(gens, spec, config) == Rejection(1)


class TestRunSearch:
    def test_empty_stream(self):
        sink = io.StringIO()
        accepted = run_search(base_config(max_candidates=0), sink)
        assert accepted == []
        lines = sink.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["record"] == "telemetry"

    def test_dedup_and_telemetry(self):
        cfg = base_config(
            t=2, orders=((2,),), term_range=(1, 2), max_candidates=40,
            require_k_min=0, require_d_min=1, distance_budget=(2, 0),
        )
        sink = io.StringIO()
        accepted = run_search(cfg, sink)
        keys = set()
        for rep in accepted:
            spec = GroupSpec(tuple(rep.params["orders"]))
            gens = [parse_poly(g, spec) for g in rep.params["generators"]]
            key = canonical_key(spec, gens)
            assert key not in keys
            keys.add(key)
        footer = json.loads(sink.getvalue().splitlines()[-1])
        assert footer["record"] == "telemetry"
        assert footer["evaluated"] == 40
        assert footer["accepted"] == len(accepted)

    def test_rerun_determinism_and_standalone_consistency(self):
        cfg = base_config(
            t=2, orders=((4,), (6,)), term_range=(1, 3), max_candidates=25,
            require_k_min=1, require_d_min=2, distance_budget=(3, 5),
        )
        a = run_search(cfg)
        b = run_search(cfg)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
        for rep in a:
            spec = GroupSpec(tuple(rep.params["orders"]))
            gens = [parse_poly(g, spec) for g in rep.params["generators"]]
            again = evaluate_candidate(gens, spec, cfg)
            assert not isinstance(again, Rejection)
            assert (again.n, again.k) == (rep.n, rep.k)
            assert again.d_x.lower == rep.d_x.lower
            assert again.d_z.lower == rep.d_z.lower

    def test_candidates_are_sampled_as_they_are_evaluated(self, monkeypatch):
        """Only each candidate's key is kept once it is handed out: a search
        of 10^9 candidates draws one before its first evaluation."""
        sampled, sample = [], search.sample_generators

        def counted(*args):
            sampled.append(args)
            return sample(*args)

        def fail(candidate):
            raise RuntimeError("first evaluation")

        monkeypatch.setattr(search, "sample_generators", counted)
        monkeypatch.setattr(search, "_evaluate", fail)
        with pytest.raises(RuntimeError, match="first evaluation"):
            run_search(base_config(max_candidates=10**9))
        assert len(sampled) == 1

    def test_key_is_the_orders_and_the_generator_multiset(self):
        spec = GroupSpec((2, 3))
        gens = [parse_poly(p, spec) for p in ("1", "x", "1+x", "y+x*y^2", "y+1", "1+y")]
        picks = list(combinations_with_replacement(range(len(gens)), 2))
        for a, b in product(picks, repeat=2):
            same = (sorted(gens[i].monomials for i in a)
                    == sorted(gens[i].monomials for i in b))
            keys = [canonical_key(spec, [gens[i] for i in pick]) for pick in (a, b)]
            assert (keys[0] == keys[1]) == same
        assert canonical_key(spec, gens) == canonical_key(spec, gens[::-1])
        flipped = GroupSpec((3, 2))
        assert (canonical_key(flipped, [parse_poly("1", flipped)])
                != canonical_key(spec, [parse_poly("1", spec)]))

    def test_jsonl_records_parse(self):
        cfg = base_config(
            t=2, orders=((4,),), term_range=(1, 3), max_candidates=15,
            require_k_min=1, require_d_min=1, distance_budget=(2, 0),
        )
        sink = io.StringIO()
        run_search(cfg, sink)
        for ln in sink.getvalue().splitlines():
            rec = json.loads(ln)
            assert rec["record"] in ("report", "telemetry")


def pool_config(**kw):
    return base_config(**{
        "orders": ((4,), (6,)), "term_range": (1, 3), "max_candidates": 24,
        "distance_budget": (3, 5), **kw,
    })


def stream(config) -> str:
    sink = io.StringIO()
    run_search(config, sink)
    return sink.getvalue()


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the process pools started; a pool larger than the
    usable CPUs fails before any of its processes starts."""
    sizes = []
    fork = type(multiprocessing.get_context("fork"))
    pool = fork.Pool

    def recording(ctx, processes=None, *args, **kwargs):
        sizes.append(processes)
        assert processes <= search._usable_cpus()
        return pool(ctx, processes, *args, **kwargs)

    monkeypatch.setattr(fork, "Pool", recording)
    return sizes


class TestPool:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_same_bytes_as_in_process(self, monkeypatch, pool_sizes, workers):
        cfg = pool_config(workers=workers)
        monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
        serial = stream(cfg)
        assert pool_sizes == []
        monkeypatch.setattr(search, "_usable_cpus", lambda: workers)
        assert stream(cfg) == serial
        assert pool_sizes == [workers]
        assert multiprocessing.active_children() == []
        footer = json.loads(serial.splitlines()[-1])
        assert footer["accepted"] > 0 and footer["rejected_by_stage"]

    def test_report_lines_do_not_depend_on_workers(self, monkeypatch, pool_sizes):
        """The benchmark's search at seeds 0-9 reports the same lines at 1, 2
        and 3 workers, in this process and on a pool; only the footer
        records ``workers``."""

        def reports(seed, workers, cpus):
            monkeypatch.setattr(search, "_usable_cpus", lambda: cpus)
            config = dataclasses.replace(BENCH_SEARCH, seed=seed, workers=workers)
            *lines, footer = stream(config).splitlines()
            assert json.loads(footer)["workers"] == workers
            return lines

        for seed in range(10):
            want = reports(seed, 1, 1)
            assert want
            for workers in (2, 3):
                assert reports(seed, workers, 1) == want
                assert reports(seed, workers, workers) == want
        assert pool_sizes == [2, 3] * 10

    def test_processes_capped_at_usable_cpus(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
        run_search(pool_config(workers=64))
        assert pool_sizes == [2]

    def test_processes_capped_at_distinct_candidates(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(search, "_usable_cpus", lambda: 4)
        run_search(pool_config(workers=4, max_candidates=3))
        run_search(pool_config(workers=4, max_candidates=1))
        assert pool_sizes == [3]

    def test_worker_exception_propagates(self, monkeypatch, pool_sizes):
        def fail(gens, spec, config):
            raise RuntimeError("evaluation failed")

        monkeypatch.setattr(search, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(search, "evaluate_candidate", fail)
        with pytest.raises(RuntimeError, match="evaluation failed"):
            run_search(pool_config(workers=2))
        assert pool_sizes == [2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("exc", [
        cp.BudgetExceeded(10**9, 10**8),
        cp.TableTooLarge(4 * 10**7, cp.CONFINEMENT_TABLE_CAP),
        SizeBudgetExceeded(5000, 4096),
        ParseError("unexpected token", 3),
        DimensionMismatch("mat_mul", (2, 3), (4, 2)),
    ], ids=lambda e: type(e).__name__)
    def test_exceptions_cross_processes(self, exc):
        """A worker's exception reaches the parent by pickle; one that does
        not unpickle would leave the pool waiting forever."""
        again = pickle.loads(pickle.dumps(exc))
        assert type(again) is type(exc)
        assert str(again) == str(exc)
        assert vars(again) == vars(exc)

    def test_cli_import_leaves_multiprocessing_out(self):
        src = str(Path(mmcodes.__file__).resolve().parent.parent)
        code = "import sys, mmcodes.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "False"
