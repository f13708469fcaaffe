"""Per-layer tracing by wrapping the public functions of the mmcodes modules.

Every public function defined in a layer module is replaced, at each site
that imported it (``mmcodes.codeparams.rref``, ``mmcodes.koszul.mat_mul``,
the defining module itself, ...), by a wrapper that records one span:
``[name, start, end, parent index, info]``.  Spans stay in memory until
``dump``.  A span's self time is its duration minus the durations of its
direct children; calls nest on one thread, so children never overlap.

``info`` holds a work count computed from the call's arguments or result
(see ``_INFO``).  ``connected_subsets`` is a generator: its wrapper counts
yields instead of timing them, so the enumeration's time stays in the
self time of ``confinement_profile``, which drives it.

The package has no internal spans yet; these are recorded from outside,
around the calls into each layer.  Everything runs in one process with no
queues, so no layer waits for another and no wait time is reported.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from math import comb

# ``formats`` is left out on purpose: no workload waits on it.
LAYERS = ("ring", "circulant", "koszul", "gf2", "codeparams", "search", "cli")

ISD_SPANS = ("codeparams.distance_randomized", "codeparams.single_shot_distance")
GENERATORS = ("codeparams.connected_subsets",)


def _mitm_work(args, kwargs, result):
    p, w_max = args[0], (args[1] if len(args) > 1 else kwargs["w_max"])
    w = min(w_max, p.cols)
    patterns = sum(comb(p.cols, j) for j in range((w + 1) // 2 + 1))
    return patterns, sum(len(v) for v in result.values())


def _rejection_stage(args, kwargs, result):
    return getattr(result, "stage", 0)


_INFO = {
    "gf2.rref": lambda args, kwargs, result: args[0].rows * args[0].cols,
    "gf2.in_rowspace": lambda args, kwargs, result: result,
    "codeparams.low_weight_kernel_vectors": _mitm_work,
    "search.evaluate_candidate": _rejection_stage,
}


def layer_functions() -> dict[str, object]:
    """``"<module>.<fn>"`` -> function, for every public function defined in
    a layer module."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"mmcodes.{layer}")
        for attr, val in vars(mod).items():
            if (inspect.isfunction(val) and not attr.startswith("_")
                    and val.__module__ == mod.__name__):
                out[f"{layer}.{attr}"] = val
    return out


class Tracer:
    """Installs span-recording wrappers while used as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.subsets = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = _INFO.get(name)

        if name in GENERATORS:
            tracer = self

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
                spans.append(rec)
                gen = fn(*args, **kwargs)
                rec[2] = clock()
                for item in gen:
                    tracer.subsets += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if info is not None:
                rec[4] = info(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        targets = {fn: self._wrap(name, fn) for name, fn in layer_functions().items()}
        for site in LAYERS:
            mod = importlib.import_module(f"mmcodes.{site}")
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in targets:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, targets[val])
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, info."""
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec, default=str) + "\n")

    def summary(self) -> dict[str, float]:
        """Self times, call counts and work counts, keyed by metric name."""
        spans = self.spans
        self_s = [rec[2] - rec[1] for rec in spans]
        children: list[list[int]] = [[] for _ in spans]
        for i, rec in enumerate(spans):
            if rec[3] >= 0:
                self_s[rec[3]] -= rec[2] - rec[1]
                children[rec[3]].append(i)

        out: dict[str, float] = {}
        for name in layer_functions():
            out[f"{name}.s"] = 0.0
            out[f"{name}.calls"] = 0
        for layer in LAYERS:
            out[f"{layer}.self.s"] = 0.0
        for rec, s in zip(spans, self_s):
            out[f"{rec[0]}.s"] += s
            out[f"{rec[0]}.calls"] += 1
            out[f"{rec[0].split('.')[0]}.self.s"] += s

        cells = patterns = found = 0
        inclusive_ss = 0.0
        passes = candidates = useful = 0
        stages = {1: 0, 2: 0, 3: 0, 4: 0}
        accepted = 0
        for i, rec in enumerate(spans):
            name = rec[0]
            if name == "gf2.rref":
                cells += rec[4] or 0
            elif name == "codeparams.low_weight_kernel_vectors" and rec[4]:
                patterns += rec[4][0]
                found += rec[4][1]
            elif name == "search.evaluate_candidate":
                if rec[4]:
                    stages[rec[4]] = stages.get(rec[4], 0) + 1
                else:
                    accepted += 1
            if name not in ISD_SPANS:
                continue
            if name == "codeparams.single_shot_distance":
                inclusive_ss += rec[2] - rec[1]
            # The first direct rref child caches the stabilizer RREF; each
            # later one is an ISD pass.  in_rowspace children before the
            # kernel basis belong to the exhaustive part.
            rrefs = 0
            after_kernel = False
            for c in children[i]:
                child = spans[c][0]
                if child == "gf2.rref":
                    rrefs += 1
                elif child == "gf2.kernel_basis":
                    after_kernel = True
                elif child == "gf2.in_rowspace" and after_kernel:
                    candidates += 1
                    useful += spans[c][4] is False
            passes += max(0, rrefs - 1)

        out["gf2.rref.cells"] = cells
        out["codeparams.mitm.s"] = out["codeparams.low_weight_kernel_vectors.s"]
        out["codeparams.mitm.patterns"] = patterns
        out["codeparams.mitm.found"] = found
        out["codeparams.mitm.found_ratio"] = found / patterns if patterns else 0.0
        out["codeparams.isd.s"] = sum(out[f"{n}.s"] for n in ISD_SPANS)
        out["codeparams.isd.passes"] = passes
        out["codeparams.isd.candidates"] = candidates
        out["codeparams.isd.useful_ratio"] = useful / candidates if candidates else 0.0
        out["codeparams.confine.s"] = out["codeparams.confinement_profile.s"]
        out["codeparams.confine.subsets"] = self.subsets
        out["codeparams.ssdist.s"] = inclusive_ss
        for stage in (1, 2, 3, 4):
            out[f"search.rejected.stage{stage}"] = stages.get(stage, 0)
        evaluated = out["search.evaluate_candidate.calls"]
        out["search.accepted"] = accepted
        out["search.accept_ratio"] = accepted / evaluated if evaluated else 0.0
        out["trace.spans"] = len(spans)
        # The CLI's own functions are reported as one layer total.
        return {k: v for k, v in out.items()
                if not k.startswith("cli.") or k in ("cli.self.s", "cli.main.calls")}
