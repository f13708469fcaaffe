"""Tests of the benchmark's own checker and tracer."""

from __future__ import annotations

import io
import json
from itertools import product

import numpy as np
import pytest

import checker
import hostspeed
import run
import tracer
import workloads

cli = run.import_cli()


def _params(name: str, *extra: str) -> str:
    out = io.StringIO()
    path = run.ROOT / "src" / "mmcodes" / "fixtures" / f"{name}.json"
    assert cli.main(["params", str(path), *extra], out=out) == 0
    return out.getvalue()


def _oracle(name: str) -> checker.CodeOracle:
    path = run.ROOT / "src" / "mmcodes" / "fixtures" / f"{name}.json"
    return checker.CodeOracle.from_code(cli.build_from_config(cli.load_config(str(path))))


def _check_params(text: str, name: str, w: int) -> checker.Outcome:
    return checker.check_params_report(
        text, 0, name, checker.published_values(run.ROOT, name), _oracle(name), w)


def test_dense_rank_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.integers(0, 2, size=(4, 6), dtype=np.uint8)
        span = {tuple(np.array(c, dtype=np.uint8) @ m % 2)
                for c in product((0, 1), repeat=4)}
        assert 2 ** checker.dense_rank(m) == len(span)


def test_sound_report_passes_and_records_gaps():
    text = _params("bga16", "--confinement-w", "2")
    out = _check_params(text, "bga16", 2)
    assert out.failed == 0, out.problems
    assert out.has_published_d and out.cert_gap == 0 and out.upper_gap == 0


def test_corrupted_witness_is_caught():
    doc = json.loads(_params("bga16", "--confinement-w", "2"))
    wit = doc["d_z"]["witness"]
    doc["d_z"]["witness"] = sorted(set(wit[:-1]) | {next(
        i for i in range(doc["n"]) if i not in wit)})
    out = _check_params(json.dumps(doc) + "\n", "bga16", 2)
    assert out.failed == 1
    assert any("witness" in p for p in out.problems)


def test_stabilizer_witness_is_caught():
    oracle = _oracle("bga16")
    stab = [int(i) for i in np.flatnonzero(oracle.p_z[0])]
    bound = {"lower": 1, "upper": len(stab), "witness": stab}
    assert any("stabilizer" in p for p in oracle.witness_problems("Z", bound))


def test_wrong_k_is_caught():
    doc = json.loads(_params("bga16", "--confinement-w", "2"))
    doc["k"] += 2
    out = _check_params(json.dumps(doc) + "\n", "bga16", 2)
    assert out.failed == 1
    assert any(p.startswith("k=") for p in out.problems)

    row = io.StringIO()
    assert cli.main(["table2", "1", "--iterations", "0"], out=row) == 0
    good = row.getvalue()
    pub = checker.published_values(run.ROOT, "table2_row01")
    oracle = _oracle("table2_row01")
    assert checker.check_table2_row(good, 0, "table2_row01", pub, oracle).failed == 0
    bad = json.loads(good)
    bad["k"] -= 1
    out = checker.check_table2_row(json.dumps(bad), 0, "table2_row01", pub, oracle)
    assert out.failed == 1


def test_search_footer_must_add_up():
    config = {**workloads.SEARCH_CONFIG, "seed": 3, "max_candidates": 4}
    footer = {"record": "telemetry", "evaluated": 4, "accepted": 0, "duplicates": 1,
              "rejected_by_stage": {"3": 3}, "seed": 3, "workers": 2}
    text = json.dumps(footer) + "\n"
    ok = checker.check_search(text, "accepted 0 candidates\n", 0, config, None)
    assert ok.failed == 0, ok.problems
    footer["duplicates"] = 0
    bad = checker.check_search(json.dumps(footer) + "\n", "accepted 0 candidates\n",
                               0, config, None)
    assert bad.failed == 4


@pytest.mark.parametrize("argv", [
    ("params", "toric4d", "--iterations", "5", "--ss-w", "2", "--confinement-w", "2"),
    ("confine", "table2_row01", "--type", "X", "--mode", "cluster", "--w-max", "2"),
    ("table2", "1", "--iterations", "2"),
])
def test_tracing_leaves_reports_unchanged(argv):
    argv = list(argv)
    if argv[0] != "table2":
        argv[1] = str(run.ROOT / "src" / "mmcodes" / "fixtures" / f"{argv[1]}.json")
    plain = io.StringIO()
    cli.main(argv, out=plain)
    originals = tracer.layer_functions()
    with tracer.Tracer() as tr:
        traced = io.StringIO()
        cli.main(argv, out=traced)
    assert traced.getvalue() == plain.getvalue()
    assert tracer.layer_functions() == originals
    roots = [rec for rec in tr.spans if rec[3] < 0]
    summary = tr.summary()
    self_total = sum(summary[f"{layer}.self.s"] for layer in tracer.LAYERS)
    assert self_total == pytest.approx(sum(r[2] - r[1] for r in roots), abs=1e-6)


def test_trace_summary_names_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    with tracer.Tracer() as tr:
        cli.main(["table2", "1", "--iterations", "1"], out=io.StringIO())
    reported = set(tr.summary()) | {"trace.wall_s", "trace.overhead_s",
                                    "trace.unaccounted_s"}
    assert reported == declared


def test_reference_task_row_reduces_its_matrix():
    assert hostspeed.reference_task() == checker.dense_rank(hostspeed._MATRIX)
