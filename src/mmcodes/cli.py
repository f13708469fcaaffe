"""Command-line surface: build, verify, analyze, search, and export codes,
plus regression comparison of the bundled instance table.

Exit codes: 0 success, 1 verification failure or mismatch, 2 usage/parse
error, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from . import codeparams as cp
from . import formats
from .circulant import SizeBudgetExceeded
from .gf2 import GF2Error
from .koszul import KoszulError, MCssCode, build_code, chain_dims
from .ring import GroupSpec, ParseError, RingError, parse_poly
from .search import (
    SearchConfig, SearchError, _checked, _is_int, _is_list, _is_str, run_search,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# The option or search-config field that sets each command's enumeration
# weight.
_WEIGHT_FLAG = {"params": "--w-exhaustive", "distance": "--w-exhaustive",
                "ssdist": "--w-max", "search": "distance_budget[0]"}
# The option or search-config field that sets each command's confinement
# weight, the one knob of the confinement table's size.
_CONFINE_FLAG = {"confine": "--w-max", "params": "--confinement-w",
                 "search": "confinement_w_max"}


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class BuildConfig:
    name: str
    t: int
    orders: tuple[int, ...]
    generators: tuple[str, ...]
    variables: tuple[str, ...] | None = None
    q_override: int | None = None
    published: dict | None = None


def _read_json(path: str, what: str):
    """The JSON document in ``path``; ConfigError if ``open`` refuses the
    path (a NUL byte is a ValueError) or ``json`` cannot decode the text."""
    try:
        with open(path) as f:
            try:
                return json.load(f)
            except (ValueError, RecursionError) as exc:
                raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_config(path: str) -> BuildConfig:
    return config_from_dict(_read_json(path, "config"), default_name=Path(path).stem)


# JSON code-config field -> whether a value has the field's type and shape
_CODE_FIELDS = {
    "name": _is_str,
    "t": _is_int,
    "orders": _is_list,
    "generators": lambda v: _is_list(v, _is_str),
    "variables": lambda v: v is None or _is_list(v, _is_str),
    "q_override": lambda v: v is None or _is_int(v),
    "published": lambda v: v is None or isinstance(v, dict),
}


def config_from_dict(doc: dict, default_name: str = "") -> BuildConfig:
    """The config a JSON code document describes.  A missing ``t``,
    ``orders`` or ``generators``, a field of the wrong type or shape, or a
    ``t`` or ``q_override`` that leaves no qubit degree q in 1..t-1, raises
    ConfigError."""
    fields = _checked(doc, _CODE_FIELDS, ("t", "orders", "generators"), "config",
                      ConfigError)
    t, gens, q = fields["t"], fields["generators"], fields.get("q_override")
    if t < 2:
        raise ConfigError(f"config t={t} leaves no qubit degree: t must be >= 2")
    if q is not None and not 1 <= q <= t - 1:
        raise ConfigError(f"config q_override {q} is out of range 1..{t - 1}")
    if len(gens) != t:
        raise ConfigError(f"config has {len(gens)} generators but t={t}")
    variables = fields.get("variables") or None
    return BuildConfig(**{"name": default_name, **fields, "variables": variables})


def build_from_config(cfg: BuildConfig) -> MCssCode:
    spec = GroupSpec(cfg.orders)
    gens = [parse_poly(g, spec, cfg.variables) for g in cfg.generators]
    code, _ = build_code(gens, spec, q_override=cfg.q_override)
    return code


def _load_code(path: str) -> tuple[BuildConfig, MCssCode]:
    cfg = load_config(path)
    return cfg, build_from_config(cfg)


class EnvError(Exception):
    """A bad environment setting; reported as a usage error."""


def enum_budget() -> int:
    env = os.environ.get("MMCODES_BUDGET")
    if not env:
        return cp.DEFAULT_ENUM_BUDGET
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise EnvError(f"MMCODES_BUDGET must be a positive integer, got {env!r}")
    return budget


def _matrices(code: MCssCode) -> dict:
    mats = {"p_x": code.p_x, "p_z": code.p_z, "m_x": code.m_x, "m_z": code.m_z}
    return {key: m for key, m in mats.items() if m is not None}


def manifest(code: MCssCode, cfg: BuildConfig) -> dict:
    mats = _matrices(code)
    return {
        "schema_version": cp.SCHEMA_VERSION,
        "name": cfg.name,
        "n": code.n,
        "t": code.t,
        "q": code.q,
        "orders": list(cfg.orders),
        "generators": list(cfg.generators),
        "chain_dims": chain_dims(code.t, code.spec.size),
        "shapes": {k: list(m.shape) for k, m in mats.items()},
        "metachecks": {"m_x": code.m_x is not None, "m_z": code.m_z is not None},
        "orthogonality": {
            "px_pzT_zero": True,
            "mx_px_zero": code.m_x is not None or None,
            "mz_pz_zero": code.m_z is not None or None,
        },
        "hashes": {k: hashlib.sha256(m.tobytes()).hexdigest() for k, m in mats.items()},
    }


def _manifest_text(man: dict) -> str:
    return json.dumps(man, sort_keys=True, indent=2) + "\n"


# A matrix's text per ``--format``; ``export --format json`` writes the manifest.
_WRITERS = {"alist": formats.write_alist, "mtx": formats.write_mtx}


def _emit(doc: dict, out):
    out.write(json.dumps(doc, sort_keys=True) + "\n")


@contextmanager
def _writing():
    """An output path that cannot be written, as a usage error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename}: {exc.strerror}") from exc


# ---- subcommands ------------------------------------------------------


def cmd_build(args, out) -> int:
    cfg, code = _load_code(args.config)
    outdir = Path(args.out)
    man = manifest(code, cfg)
    with _writing():
        outdir.mkdir(parents=True, exist_ok=True)
        for key, m in _matrices(code).items():
            (outdir / f"{key}.{args.format}").write_text(_WRITERS[args.format](m))
        (outdir / "manifest.json").write_text(_manifest_text(man))
    _emit(man, out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    # build_code asserts the chain condition and all orthogonality
    # conditions; reaching this point means they hold.
    cfg, code = _load_code(args.config)
    _emit(
        {
            "name": cfg.name,
            "n": code.n,
            "chain_condition": True,
            "orthogonality": True,
            "metachecks": {
                "m_x": code.m_x is not None,
                "m_z": code.m_z is not None,
            },
        },
        out,
    )
    return EXIT_OK


def _confinement_w(code: MCssCode, w: int | None, command: str) -> int | None:
    """``w``; past the code's qubit count it is a usage error naming the
    command's confinement flag, raised before any work is done."""
    if w is not None and w > code.n:
        raise ConfigError(f"{_CONFINE_FLAG[command]} {w} exceeds the {code.n} qubits "
                          "of the code")
    return w


def cmd_params(args, out) -> int:
    cfg, code = _load_code(args.config)
    report = cp.analyze(
        code,
        name=cfg.name,
        w_exhaustive=args.w_exhaustive,
        iterations=args.iterations,
        confinement_w=_confinement_w(code, args.confinement_w, "params"),
        ss_w=args.ss_w,
        seed=args.seed,
        budget=enum_budget(),
    )
    _emit(report.to_dict(), out)
    return EXIT_OK


def cmd_distance(args, out) -> int:
    """``distance`` (kind X or Z) and ``ssdist`` (kind ssX or ssZ): one
    exhaustive search up to the weight flag, then the escalation."""
    cfg, code = _load_code(args.config)
    budget, kind = enum_budget(), args.kind_prefix + args.type
    try:
        bound = cp.distance_exhaustive(code, kind, args.w_max, budget)
    except cp.MetacheckAbsent as exc:
        _emit({"name": cfg.name, "error": str(exc)}, out)
        return EXIT_VERIFY
    bound = cp._escalate(code, kind, bound, args.iterations, args.seed, budget=budget)
    _emit({"name": cfg.name, "type": args.type, **bound.to_dict()}, out)
    return EXIT_OK


def cmd_confine(args, out) -> int:
    cfg, code = _load_code(args.config)
    prof = cp.confinement_profile(
        code, args.type, _confinement_w(code, args.w_max, "confine"), mode=args.mode,
        seed=args.seed,
    )
    _emit({"name": cfg.name, "type": args.type, **prof.to_dict()}, out)
    return EXIT_OK


def cmd_search(args, out) -> int:
    flags = {k: v for k in ("seed", "workers") if (v := getattr(args, k)) is not None}
    config = replace(SearchConfig.from_dict(_read_json(args.config, "search config")),
                     **flags)
    if args.out:
        with _writing():
            sink = open(args.out, "w")
        with sink:
            accepted = run_search(config, sink)
    else:
        accepted = run_search(config, out)
    sys.stderr.write(f"accepted {len(accepted)} candidates\n")
    return EXIT_OK


def cmd_export(args, out) -> int:
    cfg, code = _load_code(args.config)
    mats = _matrices(code)
    if args.matrix not in mats:
        raise ConfigError(
            f"matrix {args.matrix} not present (have {sorted(mats)})"
        )
    text = (_WRITERS[args.format](mats[args.matrix]) if args.format in _WRITERS
            else _manifest_text(manifest(code, cfg)))
    if args.out:
        with _writing():
            Path(args.out).write_text(text)
    else:
        out.write(text)
    return EXIT_OK


def fixture_names() -> list[str]:
    root = resources.files("mmcodes") / "fixtures"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def load_fixture(name: str) -> BuildConfig:
    path = resources.files("mmcodes") / "fixtures" / name
    return config_from_dict(json.loads(path.read_text()), Path(name).stem)


def _medians(ws: list[int]) -> tuple[int, float]:
    """(lower median, arithmetic median); published tables round with the
    arithmetic convention for even counts."""
    s = sorted(ws)
    m = len(s)
    lower = s[(m - 1) // 2]
    arith = (s[(m - 1) // 2] + s[m // 2]) / 2
    return lower, arith


def cmd_table2(args, out) -> int:
    names = [n for n in fixture_names() if n.startswith("table2_row")]
    if args.rows:
        missing = sorted({r for r in args.rows if r > len(names)})
        if missing:
            raise ConfigError(f"unknown rows {', '.join(map(str, missing))}: "
                              f"the rows are 1-{len(names)}")
        wanted = {f"table2_row{r:02d}.json" for r in args.rows}
        names = [n for n in names if n in wanted]
    budget = enum_budget()
    any_mismatch = False
    for name in names:
        cfg = load_fixture(name)
        pub = cfg.published
        code = build_from_config(cfg)
        k = cp.logical_count(code)
        d_pub = pub["d"]
        # Z is certified from weight 1 at any --iterations; the passes hunt
        # only for the published d.  Each row has t = 4 and q = 2, where the
        # transposed complex is that of the generators' antipodes, a qubit
        # permutation of this one: d_X = d_Z, so Z's bound is the row's.
        bound = cp.distance_exhaustive(code, "Z", 1, budget)
        bound = cp._escalate(code, "Z", cp._deepen(code, "Z", bound, budget),
                             args.iterations, args.seed, stop_at=d_pub, budget=budget)
        weights = [w for m in (code.p_x, code.p_z) for w in m.row_weights()]
        lower_med, arith_med = _medians(weights)
        checks = {
            "n": code.n == pub["n"],
            "k": k == pub["k"],
            "w_med": pub["w_med"] in (lower_med, arith_med),
            "w_max": max(weights) == pub["w_max"],
        }
        if bound.upper is not None and bound.upper < d_pub:
            checks["d"] = False
            d_status = f"counterexample at weight {bound.upper}"
        elif bound.upper == d_pub:
            d_status = "exact" if bound.lower == bound.upper else "upper bound met"
        elif bound.lower > d_pub:
            checks["d"] = False
            d_status = f"certified no logical below {bound.lower}"
        else:
            d_status = f"upper-bound only (certified > {bound.lower - 1})"
        row_ok = all(v for v in checks.values())
        any_mismatch = any_mismatch or not row_ok
        _emit(
            {
                "row": name.removesuffix(".json"),
                "n": code.n,
                "k": k,
                "d_lower": bound.lower,
                "d_upper": bound.upper,
                "d_status": d_status,
                "w_med": lower_med,
                "w_max": max(weights),
                "published": pub,
                "match": row_ok,
            },
            out,
        )
    return EXIT_VERIFY if any_mismatch else EXIT_OK


# ---- argument parsing -------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with a single line, without the usage banner."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return parse


positive_int = _int_at_least(1)
nonnegative_int = _int_at_least(0)


def make_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="mmcodes",
        description="Build and analyze multivariate multicycle CSS codes",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, **defaults):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config")
        sp.set_defaults(func=func, **defaults)
        return sp

    b = command("build", cmd_build, "write check matrices and a manifest")
    b.add_argument("--out", required=True)
    b.add_argument("--format", choices=["alist", "mtx"], default="alist")

    command("verify", cmd_verify, "check chain and orthogonality conditions")

    pa = command("params", cmd_params, "full parameter report as JSON")
    pa.add_argument(
        "--w-exhaustive", type=positive_int, default=4, dest="w_exhaustive"
    )
    pa.add_argument("--iterations", type=nonnegative_int, default=0)
    pa.add_argument(
        "--confinement-w", type=positive_int, default=None, dest="confinement_w"
    )
    pa.add_argument("--ss-w", type=positive_int, default=None, dest="ss_w")
    pa.add_argument("--seed", type=nonnegative_int, default=0)

    for name, prefix, help_text in (
        ("distance", "", "distance bounds for one error type"),
        ("ssdist", "ss", "single-shot distance bounds"),
    ):
        d = command(name, cmd_distance, help_text, kind_prefix=prefix)
        d.add_argument("--type", choices=["X", "Z"], required=True)
        d.add_argument(_WEIGHT_FLAG[name], type=positive_int, default=4, dest="w_max")
        d.add_argument("--iterations", type=nonnegative_int, default=0)
        d.add_argument("--seed", type=nonnegative_int, default=0)

    c = command("confine", cmd_confine, "confinement profile")
    c.add_argument("--type", choices=["X", "Z"], required=True)
    c.add_argument("--w-max", type=positive_int, default=4, dest="w_max")
    c.add_argument("--mode", choices=["exact", "cluster"], default="exact")
    c.add_argument("--seed", type=nonnegative_int, default=0)

    se = command("search", cmd_search, "randomized generator search")
    se.add_argument("--out", default=None)
    se.add_argument("--seed", type=nonnegative_int, default=None)
    se.add_argument(
        "--workers", type=positive_int, default=None,
        help="processes that evaluate candidates (default: the config's), "
        "capped at the usable CPUs; the output does not depend on it",
    )

    e = command("export", cmd_export, "export one matrix")
    e.add_argument("--matrix", choices=["p_x", "p_z", "m_x", "m_z"], required=True)
    e.add_argument("--format", choices=["alist", "mtx", "json"], default="alist")
    e.add_argument("--out", default=None)

    t = sub.add_parser("table2", help="recompute bundled instance rows")
    t.add_argument(
        "rows", nargs="*", type=positive_int, help="1-based row numbers; empty = all"
    )
    t.add_argument("--iterations", type=nonnegative_int, default=50)
    t.add_argument("--seed", type=nonnegative_int, default=0)
    t.set_defaults(func=cmd_table2)

    return p


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, out)
    except EnvError as exc:
        sys.stderr.write(f"mmcodes {args.command}: error: {exc}\n")
        return EXIT_USAGE
    except (ConfigError, ParseError, RingError, SearchError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (cp.BudgetExceeded, SizeBudgetExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, cp.TableTooLarge):  # MMCODES_BUDGET does not size it
            sys.stderr.write(f"hint: lower {_CONFINE_FLAG[args.command]}\n")
        elif isinstance(exc, cp.BudgetExceeded):  # the group size has no flag
            hints = [f"lower {flag}"] if (flag := _WEIGHT_FLAG.get(args.command)) else []
            if getattr(args, "ss_w", None):  # params' single-shot search weight
                hints.append("--ss-w")
            if args.command != "search":  # search runs at the default budget
                hints.append("raise MMCODES_BUDGET")
            sys.stderr.write(f"hint: {' or '.join(hints)}\n")
        return EXIT_BUDGET
    except (KoszulError, GF2Error, formats.FormatError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
