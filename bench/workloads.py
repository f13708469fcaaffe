"""The benchmark's workloads: each turns a seed into a stream of items.

An item is one ``mmcodes`` CLI call, made in-process through
``mmcodes.cli.main``; its captured stdout is the item's canonical report.
``units`` is how many user-visible items the call completes: one table row
or report, or ``max_candidates`` search candidates for a search call.

A workload's stream starts with its first pass, ``PASS_LENGTH`` items that
every run executes.  ``table2`` and ``params`` then repeat that pass, so
each of their items is timed several times in a run; ``search`` goes on with
new searches, so a longer run sees more distinct candidates.

Why these workloads (each stresses different layers):

* ``table2`` -- the paper's 21-row instance table, n = 96..768.  The
  heavy-distance case: ISD and MITM take almost all of the time.  It is not
  in ``BENCHMARK.json``: one pass takes about 40 s (80 s traced), and with
  it the gated runs no longer fit the time they are given; ISD, MITM and
  RREF are still measured by ``search``.
* ``params`` -- full parameter reports on eight small codes, plus
  cluster-mode confinement on rows 02 and 09.  The confinement case: exact
  confinement dominates each report, and the cluster items take the same
  layer through its sampling path.
* ``search`` -- structured generator searches of 50 candidates each, over
  many small codes, most rejected at stage 3.  The only workload where
  construction and per-pass RREF matter, and the only one run with
  ``workers: 2``.  About 600 distinct candidates fit into a 55-second run;
  the candidates' costs differ widely (an accepted code costs about twenty
  rejected ones), so fewer would make the rate depend on the seed.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Item:
    label: str
    argv: tuple[str, ...]
    units: int = 1


TABLE2_ROWS = range(1, 22)
TABLE2_ITERATIONS = 50

# (fixture, confinement weight) for the params reports.
PARAMS_CODES = (
    ("table2_row01", 4),
    ("toric4d", 3),
    ("tt72", 4),
    ("lacross98", 4),
    ("mb48", 4),
    ("bga16", 4),
    ("table2_row05", 3),
    ("table2_row08", 3),
)
CONFINE_CLUSTER_ROWS = ("table2_row02", "table2_row09")

SEARCH_CONFIG = {
    "t": 4,
    "orders": [[2, 2, 2, 2], [2, 2, 2, 3]],
    "structured_families": ["(1+v_a)(1+v_b v_c)", "1+v_a v_b"],
    "distance_budget": [3, 30],
    "require_k_min": 2,
    "require_d_min": 3,
    "max_candidates": 50,
    "workers": 2,
}


def fixture_path(root: Path, name: str) -> Path:
    return root / "src" / "mmcodes" / "fixtures" / f"{name}.json"


def table2_items(root: Path, seed: int) -> list[Item]:
    return [
        Item(
            f"table2_row{r:02d}",
            ("table2", str(r), "--iterations", str(TABLE2_ITERATIONS),
             "--workers", "1", "--seed", str(seed)),
        )
        for r in TABLE2_ROWS
    ]


def params_items(root: Path, seed: int) -> list[Item]:
    items = [
        Item(
            f"params:{name}",
            ("params", str(fixture_path(root, name)), "--w-exhaustive", "4",
             "--iterations", "20", "--ss-w", "4", "--confinement-w", str(w),
             "--seed", str(seed)),
        )
        for name, w in PARAMS_CODES
    ]
    items += [
        Item(
            f"confine:{name}",
            ("confine", str(fixture_path(root, name)), "--type", "Z",
             "--mode", "cluster", "--w-max", "4", "--seed", str(seed)),
        )
        for name in CONFINE_CLUSTER_ROWS
    ]
    return items


SEARCH_SEEDS_PER_RUN_SEED = 1000


def search_item(seed: int, j: int, workdir: Path) -> Item:
    """The stream's j-th search; the sub-seeds of different seeds never
    overlap."""
    sub = SEARCH_SEEDS_PER_RUN_SEED * seed + j
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"search-{sub}.json"
    path.write_text(json.dumps({**SEARCH_CONFIG, "seed": sub}, sort_keys=True) + "\n")
    return Item(f"search:{sub}", ("search", str(path)), SEARCH_CONFIG["max_candidates"])


def stream(workload: str, root: Path, seed: int, workdir: Path) -> Iterator[Item]:
    """The workload's items in run order: ``table2`` and ``params`` repeat
    their pass without end, ``search`` has up to 1000 distinct searches."""
    if workload == "search":
        return (search_item(seed, j, workdir)
                for j in range(SEARCH_SEEDS_PER_RUN_SEED))
    pass_items = {"table2": table2_items, "params": params_items}[workload]
    return itertools.cycle(pass_items(root, seed))


PASS_LENGTH = {
    "table2": len(TABLE2_ROWS),
    "params": len(PARAMS_CODES) + len(CONFINE_CLUSTER_ROWS),
    "search": 4,
}
