"""Golden pins for the randomized engines and the CLI reports.

The distance bounds below and the search digest were recorded with the
original bit-by-bit information-set pass and column-by-column numpy RREF.
The CLI digests were recorded while the exhaustive -> randomized escalation
was still written out separately in each command, and the three w=4
confinement pins while exact confinement still rooted its clusters at every
qubit.  Any rewrite of those kernels, of that escalation or of that
enumeration must reproduce them byte for byte: the determinism contract
promises identical reports for a fixed seed.

Two pins were re-recorded on purpose when the single-shot distance moved
onto the distance engine and its tie rule: the ``SINGLE_SHOT`` witness of
tt72 and the digest of ``params tt72 ... --ss-w 2``, whose ``d_ss_z``
witness changes.  Among equal-weight hits of a pass the single-shot
witness is now the lexicographically smallest, not the first found; the
bounds are unchanged (``test_shared_tie_rule_keeps_bounds`` in
``test_codeparams.py`` checks this against the original loop).

Five pins were re-recorded on purpose when the escalation began to deepen
the exhaustive search, one weight at a time within the budget, before its
information-set passes.  Bounds only tightened:

* ``test_search_stream_digest``: d_x and d_z of the n = 144, k = 12
  report on ``1+z+x*y+x*y*z, 1+y+w*z+w*y*z, 1+w*z, 1+x*z`` go from 4..6 to
  exact 6 (same witnesses), and nine bounds of other reports that were
  already 4..4 (lower from w=3, upper from the passes) now carry the
  lexicographically first weight-4 logical as witness;
* ``test_confinement_search_stream_digest``: two of those 4..4 bounds, whose
  witnesses move the same way;
* ``distance table2_row13 --type X --w-exhaustive 3 ...``: lower 4 -> 5,
  with the same upper bound 9 and witness;
* ``params table2_row13 --w-exhaustive 3 ...``: both lowers 4 -> 5, same
  uppers 9 and witnesses;
* ``params tt72 --w-exhaustive 2 ...``: d_x lower 3 -> 7 with the upper
  bound 12 and its witness kept; d_z 3..6 -> exact 6, with the
  lexicographically first weight-6 logical as witness.

One pin was re-recorded on purpose when the single-shot distance became
two more kinds of the one distance problem and so began to deepen the same
way: the digest of ``params tt72 --w-exhaustive 2 ... --ss-w 2``, whose
``d_ss_z`` goes from 3..6 (upper bound and witness from the passes) to
exact 6 with witness [0, 1, 10, 31, 40, 65].  Its other fields are
unchanged.  The ``SINGLE_SHOT`` pins are unchanged: they pass a budget of
exactly the search up to w_max, which stops the deepening, so their bounds
still come from the information-set passes.

The ``export`` pins were recorded while ``BitMatrix`` still stored its rows
as packed uint64 words.  A JSON manifest holds the sha256 of every matrix's
``tobytes()``, so those pins fix the canonical matrix bytes of tt72 (``m_z``
only), lacross98 and table2_row13 (both metachecks).

The three pins of ``confine table2_row09`` (cluster and exact, w=4) and of
``confine tt72 --mode cluster`` were recorded while confinement still built
its coset-minimality table up to weight w_max - 1, ran that test before
the syndrome-weight test, and sampled clusters from a re-sorted frontier
set.

Ten pins were re-recorded on purpose when confinement lost its second
budget and ``ConfinementProfile`` its ``fell_back`` field: the seven
``confine`` pins, ``params table2_row01 ... --confinement-w 4``, ``params
tt72 ... --confinement-w 3`` and ``test_confinement_search_stream_digest``.
None of them crossed that budget, so only the ``fell_back`` key leaves
their profiles.  Each new digest is that of the old output with every
``fell_back`` key deleted and each line dumped again with sorted keys.

Pins were re-keyed, and some re-recorded, on purpose when ``workers`` left
the distance engines and the reports, which now draw what one worker drew.
Each new value is that of the old code at one worker and the same seed,
with every report's ``workers`` key deleted and each line dumped again with
sorted keys:

* the ``RANDOMIZED`` and ``STOP_AT`` keys lose their workers entry; the six
  seed-7 pins, recorded at two workers, keep their values, which one worker
  gives as well;
* ``distance table2_row13 ... --seed 7`` loses ``--workers 2`` and
  ``table2 --iterations 50 --seed 0`` loses ``--workers 1``, with the same
  digests;
* ``params tt72 ... --seed 3`` loses ``--workers 2``, and its digest is
  that of one worker;
* ``params table2_row13 ...`` and ``params table2_row01 ...`` lose the
  ``workers`` key only;
* ``test_search_stream_digest`` and ``test_confinement_search_stream_digest``
  run the benchmark's search config, at two workers: their reports are those
  of one worker, and the footer still records ``"workers": 2``.

One pin was re-recorded on purpose when an information-set pass began to
return its own best hit: the ``STOP_AT`` witness of tt72 X.  The passes
still stop after the first whose hit weighs <= ``stop_at``, but among that
pass's lightest hits the witness is now the first in lexicographic support
order, as it is without ``stop_at``, not the first in int order.  Its
weight 12 is unchanged, and [6, 8, 18, ...] sorts before the old
[9, 11, 18, ...].  No command prints it: only ``table2`` passes
``stop_at``, and its rows print no witness.

Three pins were re-recorded on purpose when the reports began to search
only the Z side of ``self_dual`` codes (even t, q = t/2) and to mirror the
X side from it (``codeparams._mirror``).  A bound of the exhaustive search
mirrors to the bound and witness X's own search returns, so only X
witnesses of the information-set passes changed: the mirror relabels and
translates Z's witness instead of running X's own passes.  Every lower and
upper bound is unchanged:

* ``test_search_stream_digest`` (677d12aa... -> 875cff88...): d_x of the
  n = 144, k = 12 report on ``1+z+x*y+x*y*z, 1+y+w*z+w*y*z, 1+w*z, 1+x*z``
  stays 6..6 (lower from the deepening, which the budget stops at weight
  6; upper from the passes), witness [24, 27, 30, 33, 126, 129] ->
  [96, 99, 102, 105, 120, 129]; the other 15 lines are unchanged;
* ``test_confinement_search_stream_digest`` (25d8542d... -> 7ddb18fa...):
  the same d_x witness of the same report; the other 5 lines are
  unchanged;
* ``params table2_row13 --w-exhaustive 3 --iterations 10 --seed 1``
  (bd1576aa... -> 16adcaa9...): d_x stays 5..9, witness [28, 32, 33, 37,
  41, 42, 46, 50, 51] -> [108, 109, 110, 279, 280, 281, 297, 298, 299].

Eighteen pins were re-recorded on purpose when every draw moved from
numpy's generator to one ``random.Random(seed)``: an information-set pass
draws one ``shuffle`` of the columns, and a search draws every candidate,
in candidate order, from one stream of its seed.  Pins without draws are
unchanged, and so are ``RANDOMIZED`` row01 X 7 and tt72 X 0, ``STOP_AT``
tt72 X and the ``table2`` digests (a row prints no witness, and its passes
still meet the published distance).  Every other bound keeps its lower
and upper ends, with a new witness of the same weight, except one
``STOP_AT`` pin:

* ``RANDOMIZED``: row01 X 0 (4) [4, 7, 13, 14] -> [0, 3, 9, 10]; row01 Z 0
  (4) [1, 7, 11, 13] -> [3, 5, 9, 15]; row01 Z 7 (4) [1, 7, 11, 13] ->
  [0, 6, 10, 12]; row13 X 0 (9) [2, 3, 7, 11, 12, 16, 20, 21, 25] -> [0,
  4, 8, 9, 13, 17, 18, 22, 26]; row13 X 7 (9) [81, ..., 89] -> [156, 157,
  158, 291, 292, 293, 300, 301, 302]; row13 Z 0 (9) [270, 274, 278, 279,
  283, 287, 288, 292, 296] -> [0, 1, 2, 36, 37, 38, 171, 172, 173]; row13
  Z 7 (9) [234, ..., 242] -> [24, 25, 26, 42, 43, 44, 213, 214, 215];
  tt72 X 7 (12) [7, 8, 9, 10, 18, 22, 48, 50, 51, 53, 61, 65] -> [0, 3, 4,
  5, 12, 14, 55, 57, 67, 68, 70, 71]; tt72 Z 0 (6) [1, 9, 12, 28, 52, 61]
  -> [0, 22, 29, 53, 56, 58]; tt72 Z 7 (6) [0, 4, 8, 52, 57, 60] -> [0, 2,
  4, 6, 39, 49];
* ``STOP_AT`` row13 X 30 2 12: upper 12, witness [20, 21, 25, 46, 50, 51,
  54, 58, 62, 72, 76, 80] -> upper 9, witness [81, ..., 89]: the new
  stream's first hit already weighs 9 <= 12, so the passes stop there;
* ``SINGLE_SHOT``: tt72 Z 2 (3..6) [0, 1, 14, 41, 45, 68] -> [0, 2, 11,
  23, 26, 59]; row13 X 2 (3..3) [63, 64, 65] -> [54, 55, 56];
* ``test_search_stream_digest`` (875cff88... -> c8af8df4...): other
  candidates; 18 reports (was 15), 1 duplicate (was 0) and 31 stage-3
  rejections (was 35);
* ``test_confinement_search_stream_digest`` (7ddb18fa... -> d12af611...):
  3 reports (was 5) and 9 stage-3 rejections (was 7);
* ``distance table2_row13 --type X ... --seed 7`` (432d81b5... ->
  4b8b123d...): 5..9, witness [81, ..., 89] -> [156, 157, 158, 291, 292,
  293, 300, 301, 302];
* ``params table2_row13 ... --seed 1`` (16adcaa9... -> 8f6c7a57...):
  d_x and d_z stay 5..9; d_z witness [24, 25, 26, 33, 34, 35, 168, 169,
  170] -> [216, ..., 224], and its mirror, d_x, [108, 109, 110, 279, 280,
  281, 297, 298, 299] -> [54, ..., 62];
* ``params tt72 ... --seed 3`` (6a8bd706... -> f14ceabe...): d_x stays
  7..12, witness [6, 8, 9, 11, 19, 23, 49, 50, 51, 52, 60, 64] -> [7, 8,
  10, 11, 19, 21, 48, 51, 52, 53, 60, 62].
"""

import dataclasses
import functools
import hashlib
import io
from importlib import resources

import pytest

from mmcodes import codeparams as cp
from mmcodes.cli import build_from_config, load_fixture, main
from mmcodes.search import run_search

from conftest import BENCH_SEARCH

ISD_ITERATIONS = 20

RANDOMIZED = {
    ("table2_row01", "X", 0): {"lower": 1, "upper": 4, "witness": [0, 3, 9, 10]},
    ("table2_row01", "X", 7): {"lower": 1, "upper": 4, "witness": [0, 3, 9, 10]},
    ("table2_row01", "Z", 0): {"lower": 1, "upper": 4, "witness": [3, 5, 9, 15]},
    ("table2_row01", "Z", 7): {"lower": 1, "upper": 4, "witness": [0, 6, 10, 12]},
    ("table2_row13", "X", 0): {
        "lower": 1, "upper": 9, "witness": [0, 4, 8, 9, 13, 17, 18, 22, 26],
    },
    ("table2_row13", "X", 7): {
        "lower": 1, "upper": 9,
        "witness": [156, 157, 158, 291, 292, 293, 300, 301, 302],
    },
    ("table2_row13", "Z", 0): {
        "lower": 1, "upper": 9, "witness": [0, 1, 2, 36, 37, 38, 171, 172, 173],
    },
    ("table2_row13", "Z", 7): {
        "lower": 1, "upper": 9, "witness": [24, 25, 26, 42, 43, 44, 213, 214, 215],
    },
    ("tt72", "X", 0): {
        "lower": 1, "upper": 12,
        "witness": [6, 8, 18, 21, 22, 23, 49, 51, 61, 62, 64, 65],
    },
    ("tt72", "X", 7): {
        "lower": 1, "upper": 12,
        "witness": [0, 3, 4, 5, 12, 14, 55, 57, 67, 68, 70, 71],
    },
    ("tt72", "Z", 0): {"lower": 1, "upper": 6, "witness": [0, 22, 29, 53, 56, 58]},
    ("tt72", "Z", 7): {"lower": 1, "upper": 6, "witness": [0, 2, 4, 6, 39, 49]},
}

# (fixture, type, iterations, seed, stop_at) -> bound.  Row 13 stops after
# its first hit, which already weighs 9; tt72 stops after the pass that
# first reaches weight 12, whose witness a full run keeps.
STOP_AT = {
    ("table2_row13", "X", 30, 2, 12): {
        "lower": 1, "upper": 9,
        "witness": [81, 82, 83, 84, 85, 86, 87, 88, 89],
    },
    ("tt72", "X", 30, 0, 12): {
        "lower": 1, "upper": 12,
        "witness": [6, 8, 18, 21, 22, 23, 49, 51, 61, 62, 64, 65],
    },
}

# (fixture, check type, w_max) -> bound with iterations=10, seed=5 and a
# budget of exactly the search up to w_max.  The exhaustive stage finds
# nothing up to w_max and the budget stops the deepening, so the upper bound
# and its witness come from the information-set passes.
SINGLE_SHOT = {
    ("tt72", "Z", 2): {"lower": 3, "upper": 6, "witness": [0, 2, 11, 23, 26, 59]},
    ("table2_row13", "X", 2): {"lower": 3, "upper": 3, "witness": [54, 55, 56]},
}

# The benchmark's search workload configuration, at seed 0.
SEARCH = BENCH_SEARCH
SEARCH_SHA256 = "c8af8df4b31b8636e3097f6d4437f50f8ca03b4808021879bbd4610533dd5110"

# The same search, shorter, with confinement profiles on accepted candidates.
CONFINE_SEARCH = dataclasses.replace(
    SEARCH, distance_budget=(3, 10), max_candidates=12, confinement_w_max=3
)
CONFINE_SEARCH_SHA256 = (
    "d12af611dad878eaca3b343359495f86e6d1f8e0cf133667a34fa45c597118c8"
)

# CLI argv (fixture name in place of the config path) -> sha256 of stdout.
CLI_SHA256 = {
    "params tt72 --w-exhaustive 2 --iterations 20 --ss-w 2 --confinement-w 3"
    " --seed 3":
        "f14ceabec10833d93632c83b7af568033b41de57913e380e286b8fa93d726f48",
    "params table2_row13 --w-exhaustive 3 --iterations 10 --seed 1":
        "8f6c7a57f0a25b1677762079c931261a37fa04bc550570b2832c75f41587b8c7",
    "distance table2_row13 --type X --w-exhaustive 3 --iterations 20 --seed 7":
        "4b8b123d6cfa26f7eae181420000be483edbf5fc9cb7c8f9b91ae20649c34bbb",
    "table2 3 9 13 --iterations 20 --seed 1":
        "a4c0c9d064b4e8d3902f25660bca8509895de4948a21b4f0181e318346ffc796",
    "table2 --iterations 50 --seed 0":
        "f284f93a6cd5d4d561d71b582e7a05b61ceacd1669fb2b823980bc6d621b35ae",
    "table2 --iterations 0":
        "3a61c060705f824e7aa9908a49bff6991b90af9f1974695ef9a3d87dbbc238e6",
    "confine table2_row01 --type X --w-max 3":
        "308eecf6a79c0d96a1ebe36b356905b0d3007d6a695b0c8abd798e2dabc202a3",
    "confine table2_row02 --type Z --w-max 4 --mode cluster --seed 2":
        "2fca7d685d3d5db83e664bc3e0d5c0b662f154bc132e277fb5aa5eeb39952523",
    "confine tt72 --type X --w-max 4":
        "761a17905c4ed14bae9b17949627309322b5a1851866b58ccd9ff356c7d0c29e",
    "confine lacross98 --type Z --w-max 4":
        "c6397b927032e431ea2edb7d30b4593850e3344b50d8b2720803d77622f4a83f",
    "params table2_row01 --w-exhaustive 4 --iterations 20 --ss-w 4"
    " --confinement-w 4 --seed 0":
        "a8b872ef1f2df35d5ded1d5c6579d9d4fa27e74f422370e83946e63ccf8d6a99",
    "confine table2_row09 --type Z --w-max 4 --mode cluster --seed 0":
        "15b7e12cbb1ebfa32bad3d24e709dd709d7ced9c893783eabdd4e5392f79c58c",
    "confine table2_row09 --type Z --w-max 4":
        "eef4363a1a4a584c9caf1bf6d4ae7c842045fa067d9aa04824e9e8b489e9413a",
    "confine tt72 --type X --w-max 3 --mode cluster --seed 1":
        "d344bd1ee4716f8b94d247e53234bf73e9faa680d5b126ece5ce6344270d0582",
    "export tt72 --matrix p_x --format json":
        "e2aea91bcaa84f5ddf6239e2c7b97965574a0d5a024505fdbbdcb090c5fb4a69",
    "export lacross98 --matrix p_x --format json":
        "ae3032aadc0ba217591ed503be4f559aed6621b055031b8a516f144f7752a95d",
    "export table2_row13 --matrix p_x --format json":
        "48e46c10102cbce2245c17bf88c52dd2043346f3e1ecaf1d4cee5dcb0590798e",
    "export table2_row13 --matrix m_z --format alist":
        "b07f1bbf3a17fc17b351b76a9aff30ecc8d1f4dd32ea5cb480ed589b12cd1430",
}

def key_id(key):
    return "-".join(map(str, key))


@functools.cache
def fixture_code(name):
    return build_from_config(load_fixture(f"{name}.json"))


@pytest.mark.parametrize("key", sorted(RANDOMIZED), ids=key_id)
def test_distance_randomized(key):
    name, et, seed = key
    bound = cp.distance_randomized(fixture_code(name), et, ISD_ITERATIONS, seed)
    assert bound.to_dict() == RANDOMIZED[key]


@pytest.mark.parametrize("key", sorted(STOP_AT), ids=key_id)
def test_distance_randomized_stop_at(key):
    name, et, iterations, seed, stop_at = key
    bound = cp.distance_randomized(
        fixture_code(name), et, iterations, seed, stop_at=stop_at
    )
    assert bound.to_dict() == STOP_AT[key]


@pytest.mark.parametrize("key", sorted(SINGLE_SHOT), ids=key_id)
def test_single_shot_distance(key):
    name, ct, w_max = key
    code = fixture_code(name)
    assert cp.single_shot_distance(code, ct, w_max).upper is None
    m = code.m_x if ct == "X" else code.m_z
    bound = cp.single_shot_distance(code, ct, w_max, iterations=10, seed=5,
                                    budget=cp._enum_cost(m.cols, w_max))
    assert bound.to_dict() == SINGLE_SHOT[key]


def test_search_stream_digest():
    sink = io.StringIO()
    run_search(SEARCH, sink)
    assert hashlib.sha256(sink.getvalue().encode()).hexdigest() == SEARCH_SHA256


def test_confinement_search_stream_digest():
    sink = io.StringIO()
    run_search(CONFINE_SEARCH, sink)
    digest = hashlib.sha256(sink.getvalue().encode()).hexdigest()
    assert digest == CONFINE_SEARCH_SHA256


@pytest.mark.parametrize("command", sorted(CLI_SHA256))
def test_cli_report_digest(command):
    argv = command.split()
    if argv[0] != "table2":
        argv[1] = str(resources.files("mmcodes") / "fixtures" / f"{argv[1]}.json")
    out = io.StringIO()
    assert main(argv, out=out) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CLI_SHA256[command]
