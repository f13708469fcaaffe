#!/usr/bin/env python3
"""Randomized generator search driver.

Example:
    python scripts/run_search.py --orders 2,2,2,2 --max-candidates 200 \
        --structured --out found.jsonl
"""

import argparse
import sys

from mmcodes.search import SearchConfig, SearchError, run_search

STRUCTURED = (
    "(1+v_a)(1+v_b v_c)",
    "1+v_a v_b",
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t", type=int, default=4)
    ap.add_argument(
        "--orders",
        action="append",
        default=None,
        help="comma-separated cyclic orders; repeatable",
    )
    ap.add_argument("--term-range", default="2,6")
    ap.add_argument("--k-min", type=int, default=2)
    ap.add_argument("--d-min", type=int, default=3)
    ap.add_argument("--w-exhaustive", type=int, default=3)
    ap.add_argument("--iterations", type=int, default=30)
    ap.add_argument("--max-candidates", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--structured", action="store_true",
                    help="sample from product-form templates")
    ap.add_argument("--out", default=None, help="JSONL path (default stdout)")
    args = ap.parse_args()

    orders = tuple(
        tuple(int(v) for v in row.split(","))
        for row in (args.orders or ["2,2,2,2", "2,2,2,3"])
    )
    lo, hi = (int(v) for v in args.term_range.split(","))
    try:
        config = SearchConfig(
            t=args.t,
            orders=orders,
            term_range=(lo, hi),
            require_k_min=args.k_min,
            require_d_min=args.d_min,
            distance_budget=(args.w_exhaustive, args.iterations),
            max_candidates=args.max_candidates,
            seed=args.seed,
            workers=args.workers,
            structured_families=STRUCTURED if args.structured else None,
        )
    except SearchError as exc:
        ap.error(str(exc))
    if args.out:
        with open(args.out, "w") as sink:
            accepted = run_search(config, sink)
    else:
        accepted = run_search(config, sys.stdout)
    print(f"accepted {len(accepted)} / {args.max_candidates}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
