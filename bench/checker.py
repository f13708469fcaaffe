"""Independent checks of the benchmark's outputs.

Codes are built with mmcodes, but every claim in a report is re-derived
here with dense numpy arithmetic mod 2, not with ``mmcodes.gf2``: n, k,
check weights, and every witness (H w = 0, and w outside the same-type
stabilizer rowspace by rank comparison).  Published values come straight
from the fixture JSON files.  Table-2 rows carry no witness, so their upper
bound is checked against the published distance only.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def dense_rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2) of a 0/1 matrix, and its pivot
    columns.  Rows are packed to bytes so each elimination step is one
    vectorized XOR."""
    m = np.asarray(m, dtype=np.uint8) % 2
    rows, cols = m.shape
    packed = np.packbits(m, axis=1)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        byte, shift = c >> 3, 7 - (c & 7)
        col = (packed[:, byte] >> shift) & 1
        nz = np.flatnonzero(col[r:])
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        packed[[r, p]] = packed[[p, r]]
        col[[r, p]] = col[[p, r]]
        col[r] = 0
        packed[col.astype(bool)] ^= packed[r]
        pivots.append(c)
        r += 1
    return np.unpackbits(packed[:r], axis=1, count=cols), pivots


def dense_rank(m: np.ndarray) -> int:
    return len(dense_rref(m)[1])


def lower_median(values) -> int:
    s = sorted(int(v) for v in values)
    return s[(len(s) - 1) // 2]


class CodeOracle:
    """Dense copies of a code's matrices with the derived facts checks need."""

    def __init__(self, p_x, p_z, m_x=None, m_z=None):
        self.p_x = np.asarray(p_x, dtype=np.uint8)
        self.p_z = np.asarray(p_z, dtype=np.uint8)
        self.m_x = None if m_x is None else np.asarray(m_x, dtype=np.uint8)
        self.m_z = None if m_z is None else np.asarray(m_z, dtype=np.uint8)
        self.n = self.p_x.shape[1]
        self.rank_x = dense_rank(self.p_x)
        self.rank_z = dense_rank(self.p_z)
        self.k = self.n - self.rank_x - self.rank_z

    @classmethod
    def from_code(cls, code) -> "CodeOracle":
        def dense(m):
            return None if m is None else m.to_dense()
        return cls(dense(code.p_x), dense(code.p_z), dense(code.m_x), dense(code.m_z))

    def row_weights(self) -> tuple[np.ndarray, np.ndarray]:
        return self.p_x.sum(axis=1), self.p_z.sum(axis=1)

    def pair(self, kind: str):
        """(kernel matrix, rowspace matrix, its rank) for a distance of
        error type X / Z, or a single-shot distance ssX / ssZ."""
        if kind == "Z":
            return self.p_x, self.p_z, self.rank_z
        if kind == "X":
            return self.p_z, self.p_x, self.rank_x
        if kind == "ssX":
            return self.m_x, self.p_x.T, self.rank_x
        if kind == "ssZ":
            return self.m_z, self.p_z.T, self.rank_z
        raise ValueError(kind)

    def witness_problems(self, kind: str, bound: dict) -> list[str]:
        """Problems with one DistanceBound dict; [] when it is sound."""
        lower, upper, witness = bound["lower"], bound["upper"], bound["witness"]
        if upper is None:
            return [] if witness is None else [f"{kind}: witness without upper"]
        if not lower <= upper:
            return [f"{kind}: lower {lower} > upper {upper}"]
        h, span, span_rank = self.pair(kind)
        if h is None:
            return [f"{kind}: bound reported but no matrix"]
        cols = h.shape[1]
        if (witness is None or len(witness) != upper
                or list(witness) != sorted(set(witness))
                or not all(0 <= i < cols for i in witness)):
            return [f"{kind}: witness {witness} does not have weight {upper}"]
        v = np.zeros(cols, dtype=np.uint8)
        v[list(witness)] = 1
        if (h[:, v.astype(bool)].sum(axis=1) % 2).any():
            return [f"{kind}: witness not in the kernel"]
        if dense_rank(np.vstack([span, v])) == span_rank:
            return [f"{kind}: witness is a stabilizer, not a logical"]
        return []

    def weight1_confinement(self, err_type: str) -> int | None:
        """Exact confinement entry for weight 1: the least nonzero column
        weight of the detecting matrix over qubits that are not themselves
        same-type stabilizers."""
        h, stab, _ = self.pair(err_type)
        reduced, pivots = dense_rref(stab)
        stab_qubits = {p for row, p in zip(reduced, pivots) if row.sum() == 1}
        weights = [int(w) for q, w in enumerate(h.sum(axis=0))
                   if q not in stab_qubits and w > 0]
        return min(weights) if weights else None


@dataclass
class Outcome:
    """Check result of one item: failed units and the reasons."""

    units: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    cert_gap: int = 0
    upper_gap: int = 0
    has_published_d: bool = False

    def fail(self, problem: str, units: int | None = None) -> None:
        self.problems.append(problem)
        self.failed = self.units if units is None else min(self.units, self.failed + units)


def published_values(root: Path, name: str) -> dict:
    path = root / "src" / "mmcodes" / "fixtures" / f"{name}.json"
    return json.loads(path.read_text()).get("published", {})


def _one_line(text: str, out: Outcome) -> dict | None:
    lines = text.splitlines()
    if len(lines) != 1:
        out.fail(f"expected one output line, got {len(lines)}")
        return None
    try:
        return json.loads(lines[0])
    except json.JSONDecodeError as exc:
        out.fail(f"output is not JSON: {exc}")
        return None


def _distance_gaps(out: Outcome, d_pub, lowers, uppers) -> None:
    """lower <= d <= upper against the published d; records the gaps."""
    if d_pub is None:
        return
    out.has_published_d = True
    lower = min(lowers)
    known = [u for u in uppers if u is not None]
    if lower > d_pub:
        out.fail(f"certified lower {lower} above published d={d_pub}")
    if known and min(known) < d_pub:
        out.fail(f"upper {min(known)} below published d={d_pub}")
    out.cert_gap = max(0, d_pub - lower)
    out.upper_gap = max(0, min(known) - d_pub) if known else 0


def _check_published(pub: dict, oracle: CodeOracle, out: Outcome) -> None:
    """n, k, w_max and w_med of the oracle against the fixture's published
    values.  Published tables round w_med with the arithmetic median, so
    either median convention is accepted."""
    all_w = np.concatenate(oracle.row_weights())
    s = sorted(int(w) for w in all_w)
    medians = {s[(len(s) - 1) // 2], (s[(len(s) - 1) // 2] + s[len(s) // 2]) / 2}
    for key, value in (("n", oracle.n), ("k", oracle.k), ("w_max", int(all_w.max()))):
        if key in pub and pub[key] != value:
            out.fail(f"{key}: oracle {value} differs from published {pub[key]}")
    if "w_med" in pub and pub["w_med"] not in medians:
        out.fail(f"published w_med {pub['w_med']} not a median of {sorted(medians)}")


def check_table2_row(text: str, rc, row: str, pub: dict, oracle: CodeOracle) -> Outcome:
    out = Outcome(units=1)
    if rc != 0:
        out.fail(f"exit code {rc}")
    doc = _one_line(text, out)
    if doc is None:
        return out
    _check_published(pub, oracle, out)
    all_w = np.concatenate(oracle.row_weights())
    facts = {"n": oracle.n, "k": oracle.k, "w_max": int(all_w.max()),
             "w_med": lower_median(all_w)}
    for key, value in facts.items():
        if doc.get(key) != value:
            out.fail(f"{key}={doc.get(key)}, oracle says {value}")
    if doc.get("row") != row or doc.get("published") != pub:
        out.fail("row name or published block altered")
    if doc.get("match") is not True:
        out.fail("row reported as a mismatch")
    lo, up = doc.get("d_lower"), doc.get("d_upper")
    if not isinstance(lo, int) or (up is not None and lo > up):
        out.fail(f"bad distance bounds {lo}..{up}")
        return out
    _distance_gaps(out, pub.get("d"), [lo], [up])
    return out


def check_params_report(text: str, rc, name: str, pub: dict, oracle: CodeOracle,
                        confinement_w: int) -> Outcome:
    out = Outcome(units=1)
    if rc != 0:
        out.fail(f"exit code {rc}")
    doc = _one_line(text, out)
    if doc is None:
        return out
    _check_report_body(doc, oracle, out)
    _check_published(pub, oracle, out)
    profiles = []
    for et in ("X", "Z"):
        prof = doc.get(f"confinement_{et.lower()}")
        if prof is None:
            out.fail(f"confinement_{et.lower()} missing")
            continue
        _check_profile(prof, oracle, et, confinement_w, "exact", out)
        profiles += [e for e in prof["entries"] if e is not None]
    if doc.get("d_s") != (min(profiles) if profiles else None):
        out.fail(f"d_s={doc.get('d_s')} is not the profile minimum")
    if out.failed == 0:
        _distance_gaps(out, pub.get("d"),
                       [doc["d_x"]["lower"], doc["d_z"]["lower"]],
                       [doc["d_x"]["upper"], doc["d_z"]["upper"]])
    return out


def check_confine(text: str, rc, oracle: CodeOracle, err_type: str, w_max: int,
                  mode: str) -> Outcome:
    out = Outcome(units=1)
    if rc != 0:
        out.fail(f"exit code {rc}")
    doc = _one_line(text, out)
    if doc is not None:
        if doc.get("type") != err_type:
            out.fail(f"type {doc.get('type')} != {err_type}")
        _check_profile(doc, oracle, err_type, w_max, mode, out)
    return out


def _check_profile(prof: dict, oracle: CodeOracle, err_type: str, w_max: int,
                   mode: str, out: Outcome) -> None:
    entries = prof.get("entries", [])
    if prof.get("mode") != mode or len(entries) != w_max:
        out.fail(f"{err_type} profile: mode {prof.get('mode')}, {len(entries)} entries")
        return
    if prof.get("exact") != [mode == "exact"] * w_max:
        out.fail(f"{err_type} profile: exact flags {prof.get('exact')}")
    if not all(e is None or (isinstance(e, int) and e > 0) for e in entries):
        out.fail(f"{err_type} profile: bad entries {entries}")
        return
    want = oracle.weight1_confinement(err_type)
    got = entries[0]
    if mode == "exact" and got != want:
        out.fail(f"{err_type} profile: weight-1 entry {got}, oracle says {want}")
    if mode == "cluster" and got is not None and (want is None or got < want):
        out.fail(f"{err_type} profile: sampled weight-1 entry {got} below exact {want}")


def _check_report_body(doc: dict, oracle: CodeOracle, out: Outcome) -> None:
    """n, k, check weights and every distance witness of a CodeReport."""
    if doc.get("n") != oracle.n:
        out.fail(f"n={doc.get('n')}, oracle says {oracle.n}")
    if doc.get("k") != oracle.k:
        out.fail(f"k={doc.get('k')}, oracle says {oracle.k}")
    wx, wz = oracle.row_weights()
    for key, value in (("w_med_x", lower_median(wx)), ("w_med_z", lower_median(wz)),
                       ("w_max_x", int(wx.max())), ("w_max_z", int(wz.max()))):
        if doc.get(key) != value:
            out.fail(f"{key}={doc.get(key)}, oracle says {value}")
    for key, kind in (("d_x", "X"), ("d_z", "Z"), ("d_ss_x", "ssX"), ("d_ss_z", "ssZ")):
        bound = doc.get(key)
        if bound is None:
            if kind in ("X", "Z"):
                out.fail(f"{key} missing")
            continue
        for problem in oracle.witness_problems(kind, bound):
            out.fail(problem)


def check_search(text: str, err: str, rc, config: dict, build) -> Outcome:
    """A search call: every accepted report is re-verified; the footer
    counts must add up.  A bad report fails one candidate; a bad footer
    fails them all.  ``build(orders, generators)`` returns a CodeOracle."""
    out = Outcome(units=config["max_candidates"])
    if rc != 0:
        out.fail(f"exit code {rc}")
        return out
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError as exc:
        out.fail(f"output is not JSON lines: {exc}")
        return out
    reports = [r for r in records if r.get("record") == "report"]
    footers = [r for r in records if r.get("record") == "telemetry"]
    if len(footers) != 1 or records[-1] is not footers[0] or len(reports) + 1 != len(records):
        out.fail("expected report records followed by one telemetry footer")
        return out
    foot = footers[0]
    rejected = sum(foot.get("rejected_by_stage", {}).values())
    if (foot.get("evaluated") != config["max_candidates"]
            or foot.get("accepted") != len(reports)
            or foot.get("accepted", 0) + foot.get("duplicates", 0) + rejected
            != foot.get("evaluated")
            or foot.get("seed") != config["seed"]
            or foot.get("workers") != config["workers"]):
        out.fail(f"footer counts do not add up: {foot}")
        return out
    match = re.search(r"accepted (\d+) candidates", err)
    if match is None or int(match.group(1)) != len(reports):
        out.fail(f"stderr summary disagrees with {len(reports)} reports")
    for rep in reports:
        bad = Outcome(units=1)
        params = rep.get("params", {})
        if rep.get("k", 0) < config["require_k_min"]:
            bad.fail(f"k={rep.get('k')} below k_min")
        for key in ("d_x", "d_z"):
            up = (rep.get(key) or {}).get("upper")
            if up is not None and up < config["require_d_min"]:
                bad.fail(f"{key} upper {up} below d_min")
        if list(params.get("orders", [])) not in config["orders"]:
            bad.fail(f"orders {params.get('orders')} not searched")
        else:
            _check_report_body(rep, build(params["orders"], params["generators"]), bad)
        if bad.failed:
            out.fail(f"{params.get('generators')}: {'; '.join(bad.problems)}", units=1)
    return out
