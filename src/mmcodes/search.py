"""Randomized search over generator polynomials.

Candidates pass through staged filters (construction, logical count,
certified low-weight distance, then that search deepened within the budget
and, past it, randomized distance; optional confinement);
accepted candidates stream out as JSONL records, followed by a telemetry
footer with per-stage rejection counters.  A low-weight search charged past
the budget ends the search with ``BudgetExceeded``; it is not a rejection.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import codeparams as cp
from .circulant import SizeBudgetExceeded
from .koszul import CHAIN_DIM_CAP, _check_size, build_code, chain_dims
from .ring import GroupSpec, RingElem, RingError, parse_poly, render


class SearchError(Exception):
    pass


def _is_int(v) -> bool:
    return type(v) is int


def _is_str(v) -> bool:
    return isinstance(v, str)


def _is_list(v, item=_is_int, length: int | None = None) -> bool:
    return isinstance(v, list) and length in (None, len(v)) and all(map(item, v))


def _tuples(v):
    return tuple(map(_tuples, v)) if isinstance(v, list) else v


def _checked(doc, fields: dict, required: tuple, what: str, error=SearchError):
    """The entries of the JSON object ``doc`` named in ``fields``, lists
    turned into tuples, after checking that ``doc`` has every ``required``
    field and that each value passes its field's check; else ``error``."""
    if not isinstance(doc, dict) or not all(k in doc for k in required):
        raise error(f"{what} must be an object with fields {', '.join(required)}")
    for key, ok in fields.items():
        if key in doc and not ok(doc[key]):
            raise error(f"{what} {key} is malformed: {doc[key]!r}")
    return {k: _tuples(doc[k]) for k in fields if k in doc}


# JSON search-config field -> whether a value has the field's type and shape
_FIELDS = dict.fromkeys(
    ("t", "require_k_min", "require_d_min", "max_candidates", "seed", "workers"),
    _is_int,
) | {
    "orders": lambda v: _is_list(v, _is_list),
    "term_range": lambda v: _is_list(v, length=2),
    "distance_budget": lambda v: _is_list(v, length=2),
    "confinement_w_max": lambda v: v is None or _is_int(v),
    "structured_families": lambda v: (
        v is None or _is_list(v, _is_str)
    ),
}


@dataclass(frozen=True)
class SearchConfig:
    t: int
    orders: tuple[tuple[int, ...], ...]
    term_range: tuple[int, int] = (2, 6)
    require_k_min: int = 1
    require_d_min: int = 2
    distance_budget: tuple[int, int] = (4, 100)  # (w_exhaustive, iterations)
    confinement_w_max: int | None = None
    max_candidates: int = 100
    seed: int = 0
    workers: int = 1  # processes evaluating candidates; the output is the same
    structured_families: tuple[str, ...] | None = None

    def __post_init__(self):
        # Past t = 16 every chain complex passes CHAIN_DIM_CAP, whatever |G|:
        # refused before 2^t is formed.
        if not 2 <= self.t < CHAIN_DIM_CAP.bit_length():
            raise SearchError(f"t must be in 2..{CHAIN_DIM_CAP.bit_length() - 1}: "
                              "below 2 no code has a qubit degree, and past that "
                              "every chain complex passes its cap")
        lo, hi = self.term_range
        if lo < 1 or lo > hi:
            raise SearchError(f"bad term_range {self.term_range}")
        if self.max_candidates < 0:
            raise SearchError("max_candidates must be >= 0")
        if not self.orders:
            raise SearchError("need at least one candidate order tuple")
        w = self.confinement_w_max
        for order in self.orders:
            spec = GroupSpec(order)
            try:
                _check_size(self.t, spec.size)
            except SizeBudgetExceeded as exc:
                raise SearchError(f"orders {list(order)} at t={self.t}: {exc}") from None
            if not self.structured_families and lo > spec.size:
                raise SearchError(f"term_range minimum {lo} exceeds the {spec.size} "
                                  f"monomials of orders {list(order)}")
            for i, template in enumerate(self.structured_families or ()):
                try:  # every draw parses if this one does
                    _instantiate_template(template, spec, range(spec.dim))
                except (RingError, SearchError) as exc:
                    raise SearchError(f"structured_families[{i}] over orders "
                                      f"{list(order)}: {exc}") from None
            if w is not None and w > (n := chain_dims(self.t, spec.size)[self.t // 2]):
                raise SearchError(f"confinement_w_max {w} exceeds the {n} qubits "
                                  f"of the codes of orders {list(order)}")
        if self.seed < 0:
            raise SearchError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise SearchError(f"workers must be >= 1, got {self.workers}")
        w_exhaustive, iterations = self.distance_budget
        if w_exhaustive < 1 or iterations < 0:
            raise SearchError(
                f"bad distance_budget {self.distance_budget}: need "
                "w_exhaustive >= 1 and iterations >= 0"
            )
        if w is not None and w < 1:
            raise SearchError("confinement_w_max must be >= 1")

    @classmethod
    def from_dict(cls, doc) -> SearchConfig:
        """The config a JSON search document describes; absent fields but
        ``t`` and ``orders`` keep their defaults.  A field of the wrong type
        or shape, such as a non-integer number, raises SearchError."""
        return cls(**_checked(doc, _FIELDS, ("t", "orders"), "search config"))


@dataclass(frozen=True)
class Rejection:
    """A candidate turned down at filter ``stage`` (1-4)."""

    stage: int


_TEMPLATE_VAR = re.compile(r"v_([a-z])")


def _instantiate_template(template: str, spec: GroupSpec, perm) -> RingElem:
    """``template`` over ``spec`` with its i-th distinct placeholder v_a,
    v_b, ... standing for variable perm[i].  Each placeholder becomes that
    variable's indexed form x<k> and a space, so whether the text parses
    does not depend on ``perm``, and below ten variables a parse error's
    offset is the template's."""
    slots = dict.fromkeys(_TEMPLATE_VAR.findall(template))
    if len(slots) > spec.dim:
        raise SearchError(f"needs {len(slots)} distinct variables, has {spec.dim}")
    assign = {s: f"x{int(k) + 1} " for s, k in zip(slots, perm)}
    return parse_poly(_TEMPLATE_VAR.sub(lambda m: assign[m.group(1)], template), spec)


def sample_generators(
    config: SearchConfig, spec: GroupSpec, rng: np.random.Generator
) -> list[RingElem]:
    """t random generators: term count uniform in term_range, monomials
    drawn without replacement; or template instances when
    structured_families is set."""
    if config.structured_families:
        fam = config.structured_families
        return [
            _instantiate_template(fam[int(rng.integers(len(fam)))], spec,
                                  rng.permutation(spec.dim))
            for _ in range(config.t)
        ]
    n = spec.size
    lo, hi = config.term_range
    hi = min(hi, n)
    gens = []
    for _ in range(config.t):
        terms = int(rng.integers(lo, hi + 1))
        picks = rng.choice(n, size=terms, replace=False)
        monos = tuple(spec.index_to_exponents(int(j)) for j in picks)
        gens.append(RingElem(spec, monos))
    return gens


def canonical_key(spec: GroupSpec, gens) -> tuple:
    """The orders and the sorted generators, each as the int mask of its
    monomial indices: equal exactly when the candidates are."""
    masks = (sum(1 << spec.monomial_index(m) for m in g.monomials) for g in gens)
    return (spec.orders, tuple(sorted(masks)))


def evaluate_candidate(
    gens: list[RingElem], spec: GroupSpec, config: SearchConfig
) -> cp.CodeReport | Rejection:
    try:
        code, _ = build_code(gens, spec)
    except Exception:  # noqa: BLE001 - construction errors become rejections
        return Rejection(1)
    k = cp.logical_count(code)
    if k < config.require_k_min:
        return Rejection(2)
    w_exh, iters = config.distance_budget
    bounds = {}
    for et in ("X", "Z"):
        b = cp.distance_exhaustive(code, et, w_exh)
        if b.upper is not None and b.upper < config.require_d_min:
            return Rejection(3)
        bounds[et] = b
    for et in ("X", "Z"):
        b = cp._escalate(code, et, bounds[et], iters, config.seed)
        if b.upper is not None and b.upper < config.require_d_min:
            return Rejection(4)
        bounds[et] = b
    params = {"orders": list(spec.orders), "generators": [render(g) for g in gens],
              "w_exhaustive": w_exh, "iterations": iters}
    return cp._report(code, "search", k, bounds, config.confinement_w_max,
                      config.seed, params)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _evaluate(candidate: tuple) -> cp.CodeReport | Rejection:
    """``evaluate_candidate`` on one (gens, spec, config) tuple; a module
    function, so that a pool can send it to its processes by name."""
    return evaluate_candidate(*candidate)


def run_search(config: SearchConfig, sink=None) -> list[cp.CodeReport]:
    """Evaluate max_candidates random candidates; write each accepted report
    (and a final telemetry record) to sink as JSONL; return the accepts.

    Candidate i draws from the rng stream of entropy (seed, 0, i), which
    was its stream at one worker when candidates were split over streams;
    so the reports depend on the seed only.  Candidates are sampled as they
    are handed out, and each one's ``canonical_key`` is kept to count and
    skip repeats.  They are evaluated on min(workers, usable CPUs,
    max_candidates) forked processes, handed out one at a time and
    collected in candidate order, or in this process when that is one (or
    this platform has no fork).
    """
    seen: set[tuple] = set()
    duplicates = 0

    def candidates():
        nonlocal duplicates
        for i in range(config.max_candidates):
            rng = np.random.default_rng([config.seed, 0, i])
            spec = GroupSpec(config.orders[int(rng.integers(len(config.orders)))])
            gens = sample_generators(config, spec, rng)
            key = canonical_key(spec, gens)
            if key in seen:
                duplicates += 1
            else:
                seen.add(key)
                yield gens, spec, config

    accepted: list[cp.CodeReport] = []
    rejected_by_stage: dict[int, int] = {}
    processes = min(config.workers, _usable_cpus(), config.max_candidates)
    todo = candidates()
    with contextlib.ExitStack() as stack:
        results = map(_evaluate, todo)
        if processes > 1:
            import multiprocessing  # only a parallel search pays for it

            if "fork" in multiprocessing.get_all_start_methods():
                ctx = multiprocessing.get_context("fork")
                pool = stack.enter_context(ctx.Pool(processes))
                results = pool.imap(_evaluate, todo, chunksize=1)
        for result in results:
            if isinstance(result, Rejection):
                rejected_by_stage[result.stage] = (
                    rejected_by_stage.get(result.stage, 0) + 1
                )
                continue
            accepted.append(result)
            if sink is not None:
                rec = {"record": "report", **result.to_dict()}
                sink.write(json.dumps(rec, sort_keys=True) + "\n")
    if sink is not None:
        footer = {
            "record": "telemetry",
            "evaluated": config.max_candidates,
            "accepted": len(accepted),
            "duplicates": duplicates,
            "rejected_by_stage": {
                str(s): c for s, c in sorted(rejected_by_stage.items())
            },
            "seed": config.seed,
            "workers": config.workers,
        }
        sink.write(json.dumps(footer, sort_keys=True) + "\n")
    return accepted
