"""mmcodes benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload table2|params|search --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; mmcodes is imported from ``src/``.
The workload seed is the only input knob: it is handed to the CLI as
``--seed`` (``table2``, ``params``) or written into the search config.

``--trace 0`` runs the workload's item stream (see ``workloads.py``) in
one process for ``--seconds``: the first pass always, then further items
while the next one is expected to end in time.  Each distinct item's time
is the mean over its repeats, and ``items_per_s`` is the distinct items'
units over the sum of those means; repeats of an item must emit the same
bytes.  The mean, not the median: on a shared host the CPU's speed can
switch between a slow and a fast state for tens of seconds at a time, and
over a run the mean varies less than the median does.  That speed also
drifts from run to run, so a reference task is timed after every item and
set-up probe, and ``items_per_s`` and ``setup_s`` are scaled to a host of
fixed speed (see ``hostspeed.py``); the unscaled values are reported too.

``--trace 1`` runs the first pass untraced and then traced, and prints the
per-layer metrics of the traced pass (see ``tracer.py``); the two passes
must emit byte-identical reports.

Outputs are checked by ``checker.py`` after the timed region.  The last
stdout line is the result JSON; the line before it holds every reported
quantity with its unit, including those not gated by ``BENCHMARK.json``
(``fail_ratio``, ``cert_gap``, ``upper_gap``, ``accepted_per_s``, the first
pass's report digest).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checker
import workloads
from hostspeed import HostSpeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SETUP_PROBES = 5
# Share of each item's time spent timing the reference task right after it,
# and the time spent on it after each set-up probe.
REFERENCE_SHARE = 0.05
SETUP_REFERENCE_S = 0.1


def import_cli():
    """Import mmcodes from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mmcodes.cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import mmcodes from {src}: {exc}")
    if not Path(mmcodes.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: mmcodes imported from {mmcodes.cli.__file__}")
    return mmcodes.cli


def setup_seconds(workload: str, seed: int, host: HostSpeed) -> list[float]:
    """Wall time of fresh processes that import mmcodes and generate the
    workload's inputs, then exit: the set-up a user pays per invocation.
    The reference task is timed after each one."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
        host.sample(SETUP_REFERENCE_S)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_item(cli, item, host: HostSpeed | None = None) -> tuple:
    """Run one item, then time the reference task on ``host`` if given;
    return (item, exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(item.argv), out=out)
        except Exception:  # noqa: BLE001 - a crash is a failed item
            rc = "exception"
            err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    if host is not None:
        host.sample(REFERENCE_SHARE * seconds)
    return item, rc, out.getvalue(), err.getvalue(), seconds


def run_more(cli, runs: list[tuple], items, seconds: float, host: HostSpeed) -> None:
    """Append runs of ``items`` to ``runs`` while the next item, and the
    reference timing after it, are expected to end within ``seconds`` of
    the first run's start.  An item is expected to take its last time, or
    the mean item time if it has not run yet."""
    share = 1 + REFERENCE_SHARE
    last = {r[0].argv: r[4] for r in runs}
    elapsed = share * sum(r[4] for r in runs)
    for item in items:
        expected = share * last.get(item.argv, elapsed / share / len(runs))
        if elapsed + expected > seconds:
            break
        runs.append(run_item(cli, item, host))
        last[item.argv] = runs[-1][4]
        elapsed += share * runs[-1][4]


def check_pass(cli, results) -> list[checker.Outcome]:
    cache: dict = {}

    def oracle_for(name: str) -> checker.CodeOracle:
        if name not in cache:
            path = ROOT / "src" / "mmcodes" / "fixtures" / f"{name}.json"
            code = cli.build_from_config(cli.load_config(str(path)))
            cache[name] = checker.CodeOracle.from_code(code)
        return cache[name]

    def oracle_from_generators(orders, generators) -> checker.CodeOracle:
        cfg = cli.config_from_dict(
            {"t": len(generators), "orders": orders, "generators": generators})
        return checker.CodeOracle.from_code(cli.build_from_config(cfg))

    outcomes = []
    for item, rc, text, err, _ in results:
        command = item.argv[0]
        opts = dict(zip(item.argv[2::2], item.argv[3::2]))
        name = item.label.split(":")[-1]
        if rc == "exception":
            outcomes.append(checker.Outcome(units=item.units, failed=item.units,
                                            problems=[err]))
        elif command == "table2":
            outcomes.append(checker.check_table2_row(
                text, rc, name, checker.published_values(ROOT, name), oracle_for(name)))
        elif command == "params":
            outcomes.append(checker.check_params_report(
                text, rc, name, checker.published_values(ROOT, name), oracle_for(name),
                int(opts["--confinement-w"])))
        elif command == "confine":
            outcomes.append(checker.check_confine(
                text, rc, oracle_for(name), opts["--type"], int(opts["--w-max"]),
                opts["--mode"]))
        else:
            config = json.loads(Path(item.argv[1]).read_text())
            outcomes.append(checker.check_search(
                text, err, rc, config, oracle_from_generators))
    return outcomes


def stream(results) -> bytes:
    return "".join(r[2] for r in results).encode()


def recorded_digest(workload: str, seed: int) -> str | None:
    path = BENCH / "digests.json"
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.PASS_LENGTH), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    cli = import_cli()
    items = workloads.stream(args.workload, ROOT, args.seed, WORK)
    first_pass = [next(items) for _ in range(workloads.PASS_LENGTH[args.workload])]
    if args.setup_probe:
        return 0
    setup_host, host = HostSpeed(), HostSpeed()
    setup = setup_seconds(args.workload, args.seed, setup_host)

    if args.trace:
        import tracer  # only traced runs pay for its import

        runs = [run_item(cli, item, host) for item in first_pass]
        with tracer.Tracer() as tr:
            traced = [run_item(cli, item) for item in first_pass]
        untraced_s, traced_s = (sum(r[4] for r in rs) for rs in (runs, traced))
        layer = tr.summary()
        root_s = sum(e - s for _, s, e, parent, _ in tr.spans if parent < 0)
        layer["trace.wall_s"] = traced_s
        layer["trace.overhead_s"] = traced_s - untraced_s
        layer["trace.unaccounted_s"] = traced_s - root_s
        WORK.mkdir(parents=True, exist_ok=True)
        tr.dump(WORK / f"trace-{args.workload}-{args.seed}.jsonl")
        rss_mb = peak_rss_mb()
    else:
        # Peak RSS is read after the first pass, so it does not depend on
        # how many items fit into --seconds.
        runs = [run_item(cli, item, host) for item in first_pass]
        rss_mb = peak_rss_mb()
        run_more(cli, runs, items, args.seconds, host)
        traced = []

    # Group the runs by item: the first run of each is checked, its repeats
    # (traced ones too) must emit the same bytes, and its time is the mean
    # of its untraced runs.
    groups: dict[tuple, list[tuple]] = {}
    for r in runs:
        groups.setdefault(r[0].argv, []).append(r)
    firsts = [g[0] for g in groups.values()]
    outcomes = check_pass(cli, firsts)
    attempted = failed = 0
    problems = [f"{r[0].label}: {p}" for r, o in zip(firsts, outcomes) for p in o.problems]
    for g, o in zip(groups.values(), outcomes):
        for r in g + [t for t in traced if t[0].argv == g[0][0].argv]:
            attempted += o.units
            if r[2] == g[0][2]:
                failed += o.failed
            else:
                failed += o.units
                problems.append(f"{r[0].label}: a repeat emitted different report bytes")
    measured_s = sum(statistics.fmean(r[4] for r in g) for g in groups.values())
    units = sum(o.units for o in outcomes)

    digest = hashlib.sha256(stream(firsts[:len(first_pass)])).hexdigest()
    recorded = recorded_digest(args.workload, args.seed)
    published = [o for o in outcomes if o.has_published_d]
    accepted = None
    if args.workload == "search":
        accepted = sum(json.loads(line)["record"] == "report"
                       for line in stream(firsts).decode().splitlines())
    # Timings are scaled to the reference host speed (see hostspeed.py);
    # the raw ones are reported as well.
    setup_slow, slow = setup_host.slowdown(), host.slowdown()
    gated = {
        "setup_s": (statistics.median(setup) / setup_slow, "s"),
        "items_per_s": (units / measured_s * slow, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    ungated = {
        "fail_ratio": (failed / attempted, "ratio"),
        "cert_gap": (sum(o.cert_gap for o in published) if published else None, "count"),
        "upper_gap": (sum(o.upper_gap for o in published) if published else None, "count"),
        "accepted_per_s": (None if accepted is None else accepted / measured_s * slow, "1/s"),
        "setup_raw_s": (statistics.median(setup), "s"),
        "items_per_raw_s": (units / measured_s, "1/s"),
        "host_slowdown": (slow, "ratio"),
        "setup_host_slowdown": (setup_slow, "ratio"),
    }
    report = {k: {"value": v, "unit": u} for k, (v, u) in {**gated, **ungated}.items()}
    report.update({
        "items_run": len(runs),
        "distinct_items": len(groups),
        "measured_s": measured_s,
        "run_s": sum(r[4] for r in runs),
        "setup_runs_s": setup,
        "digest": digest,
        "digest_matches_recorded": None if recorded is None else digest == recorded,
    })
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}

    for p in problems[:20]:
        print(f"check failed: {p}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


if __name__ == "__main__":
    sys.exit(main())
