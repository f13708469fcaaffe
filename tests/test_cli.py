import argparse
import io
import json
import os
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from mmcodes import codeparams as cp
from mmcodes import formats, koszul
from mmcodes.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    build_from_config,
    fixture_names,
    load_config,
    load_fixture,
    main,
    make_parser,
)

ROW1 = {
    "name": "row1",
    "t": 4,
    "orders": [2, 2, 2, 2],
    "generators": ["1+wx", "1+xy", "1+yz", "1+wz"],
}


@pytest.fixture
def row1_config(tmp_path):
    path = tmp_path / "row1.json"
    path.write_text(json.dumps(ROW1))
    return str(path)


def run(argv):
    out = io.StringIO()
    rc = main(argv, out=out)
    return rc, out.getvalue()


class TestConfigLoading:
    def test_load(self, row1_config):
        cfg = load_config(row1_config)
        assert cfg.t == 4 and len(cfg.generators) == 4

    def test_generator_count_mismatch(self, tmp_path):
        bad = dict(ROW1, generators=["1+wx"])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        rc, _ = run(["verify", str(p)])
        assert rc == EXIT_USAGE

    def test_missing_file(self):
        rc, _ = run(["verify", "/nonexistent/cfg.json"])
        assert rc == EXIT_USAGE

    def test_malformed_polynomial(self, tmp_path):
        bad = dict(ROW1, generators=["1+wx", "1+xy", "1+yz", "1+q%"])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        rc, _ = run(["verify", str(p)])
        assert rc == EXIT_USAGE

    def test_unknown_subcommand(self):
        rc, _ = run(["frobnicate"])
        assert rc == EXIT_USAGE


class TestBuild:
    def test_build_bundle(self, row1_config, tmp_path):
        outdir = tmp_path / "bundle"
        rc, out = run(["build", row1_config, "--out", str(outdir)])
        assert rc == EXIT_OK
        man = json.loads((outdir / "manifest.json").read_text())
        assert man["n"] == 96
        assert man["shapes"]["p_x"] == [64, 96]
        assert man["metachecks"] == {"m_x": True, "m_z": True}
        code = build_from_config(load_config(row1_config))
        for key, m in (("p_x", code.p_x), ("m_z", code.m_z)):
            assert formats.read_alist((outdir / f"{key}.alist").read_text()) == m
        import hashlib

        assert man["hashes"]["p_x"] == hashlib.sha256(code.p_x.tobytes()).hexdigest()

    def test_t2_notes_absent_metachecks(self, tmp_path):
        cfg = {"name": "bb", "t": 2, "orders": [3], "generators": ["1+x", "1+x^2"]}
        p = tmp_path / "bb.json"
        p.write_text(json.dumps(cfg))
        outdir = tmp_path / "o"
        rc, out = run(["build", str(p), "--out", str(outdir)])
        assert rc == EXIT_OK
        man = json.loads(out)
        assert man["metachecks"] == {"m_x": False, "m_z": False}
        assert not (outdir / "m_x.alist").exists()


class TestVerifyParams:
    def test_verify_ok(self, row1_config):
        rc, out = run(["verify", row1_config])
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["chain_condition"] is True and doc["orthogonality"] is True

    def test_verify_measures_the_built_maps(self, row1_config, monkeypatch):
        """``build_code`` checks the chain condition once per t on the
        symbolic grid, so ``verify`` multiplies out the built maps: with the
        generators rotated in every map but d_1, it reports both conditions
        false and exits 1."""
        instantiate = koszul.instantiate

        def rotated(sym, gens, spec):
            return instantiate(sym, gens, spec)[:1] + \
                instantiate(sym, gens[1:] + gens[:1], spec)[1:]

        monkeypatch.setattr(koszul, "instantiate", rotated)
        rc, out = run(["verify", row1_config])
        doc = json.loads(out)
        assert rc == EXIT_VERIFY
        assert doc["chain_condition"] is False and doc["orthogonality"] is False

    def test_params_report(self, row1_config):
        rc, out = run(
            ["params", row1_config, "--w-exhaustive", "4", "--ss-w", "4"]
        )
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["n"] == 96 and doc["k"] == 12
        assert doc["d_x"]["lower"] == doc["d_x"]["upper"] == 4
        assert doc["d_z"]["upper"] == 4
        assert doc["d_ss_x"]["upper"] == 2

    def test_params_determinism(self, row1_config):
        outputs = {
            run(
                [
                    "params", row1_config, "--w-exhaustive", "3",
                    "--iterations", "5", "--seed", "11",
                ]
            )[1]
            for _ in range(3)
        }
        assert len(outputs) == 1

    def test_budget_exit_code(self, row1_config, monkeypatch, capsys):
        monkeypatch.setenv("MMCODES_BUDGET", "100")
        rc, _ = run(["distance", row1_config, "--type", "Z", "--w-exhaustive", "4"])
        assert rc == EXIT_BUDGET
        assert "hint: lower --w-exhaustive" in capsys.readouterr().err


class TestDistanceCommands:
    def test_distance(self, row1_config):
        rc, out = run(["distance", row1_config, "--type", "Z", "--w-exhaustive", "4"])
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["lower"] == doc["upper"] == 4

    def test_budget_at_the_exhaustive_charge_only_samples(self, monkeypatch):
        """MMCODES_BUDGET = 72 + C(72, 2), the charge of --w-exhaustive 2 on
        tt72, leaves no deeper level to search: the passes run as they did
        before escalation deepened, with the same bytes, and nothing exits 3."""
        monkeypatch.setenv("MMCODES_BUDGET", "2628")
        rc, out = run(["distance", TT72, "--type", "X", "--w-exhaustive", "2",
                       "--iterations", "5"])
        assert rc == EXIT_OK
        assert out == (
            '{"lower": 3, "name": "tt72", "type": "X", "upper": 12, "witness": '
            '[6, 8, 18, 21, 22, 23, 49, 51, 61, 62, 64, 65]}\n'
        )

    def test_ssdist_absent(self, tmp_path):
        cfg = {"name": "bb", "t": 2, "orders": [3], "generators": ["1+x", "1+x^2"]}
        p = tmp_path / "bb.json"
        p.write_text(json.dumps(cfg))
        rc, out = run(["ssdist", str(p), "--type", "X"])
        assert rc == EXIT_VERIFY
        assert "error" in json.loads(out)

    def test_confine(self, row1_config):
        rc, out = run(["confine", row1_config, "--type", "Z", "--w-max", "2"])
        assert rc == EXIT_OK
        doc = json.loads(out)
        assert doc["entries"] == [4, 4] and doc["mode"] == "exact"


class TestExport:
    def test_alist_round_trip(self, row1_config, tmp_path):
        dest = tmp_path / "px.alist"
        rc, _ = run(
            ["export", row1_config, "--matrix", "p_x", "--out", str(dest)]
        )
        assert rc == EXIT_OK
        code = build_from_config(load_config(row1_config))
        assert formats.read_alist(dest.read_text()) == code.p_x

    def test_mtx_stdout(self, row1_config):
        rc, out = run(["export", row1_config, "--matrix", "p_z", "--format", "mtx"])
        assert rc == EXIT_OK
        code = build_from_config(load_config(row1_config))
        assert formats.read_mtx(out) == code.p_z

    def test_json_manifest(self, row1_config):
        rc, out = run(["export", row1_config, "--matrix", "p_x", "--format", "json"])
        assert rc == EXIT_OK
        assert json.loads(out)["n"] == 96

    def test_absent_matrix(self, tmp_path):
        cfg = {"name": "bb", "t": 2, "orders": [3], "generators": ["1+x", "1+x^2"]}
        p = tmp_path / "bb.json"
        p.write_text(json.dumps(cfg))
        rc, _ = run(["export", str(p), "--matrix", "m_x"])
        assert rc == EXIT_USAGE


class TestSearchCommand:
    def test_search_jsonl(self, tmp_path):
        cfg = {
            "t": 2,
            "orders": [[4], [6]],
            "term_range": [1, 3],
            "require_k_min": 1,
            "require_d_min": 2,
            "distance_budget": [3, 5],
            "max_candidates": 15,
        }
        p = tmp_path / "search.json"
        p.write_text(json.dumps(cfg))
        dest = tmp_path / "found.jsonl"
        rc, _ = run(["search", str(p), "--out", str(dest), "--seed", "3"])
        assert rc == EXIT_OK
        lines = dest.read_text().splitlines()
        assert json.loads(lines[-1])["record"] == "telemetry"


ROW13 = str(resources.files("mmcodes") / "fixtures" / "table2_row13.json")
TT72 = str(resources.files("mmcodes") / "fixtures" / "tt72.json")
BGA16 = str(resources.files("mmcodes") / "fixtures" / "bga16.json")


class TestBadInput:
    """Out-of-range knobs exit 2 with a one-line message, not a traceback."""

    def expect_usage_error(self, argv, capsys):
        rc, out = run(argv)
        err = capsys.readouterr().err
        assert rc == EXIT_USAGE
        assert out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        return err

    def test_table2_unknown_row(self, capsys):
        err = self.expect_usage_error(["table2", "22"], capsys)
        assert "rows 22:" in err and "1-21" in err and ".json" not in err

    def test_distance_w_exhaustive_zero(self, capsys):
        err = self.expect_usage_error(
            ["distance", ROW13, "--type", "Z", "--w-exhaustive", "0"], capsys
        )
        assert "--w-exhaustive" in err

    @pytest.mark.parametrize("command", ["ssdist", "confine"])
    def test_w_max_zero(self, command, capsys):
        err = self.expect_usage_error(
            [command, ROW13, "--type", "Z", "--w-max", "0"], capsys
        )
        assert "--w-max" in err

    def test_not_an_integer(self, capsys):
        self.expect_usage_error(
            ["params", ROW13, "--iterations", "many"], capsys
        )

    def test_search_config_workers_zero(self, tmp_path, capsys):
        p = tmp_path / "search.json"
        p.write_text(json.dumps({"t": 2, "orders": [[4]], "workers": 0}))
        err = self.expect_usage_error(["search", str(p)], capsys)
        assert "workers" in err

    @pytest.mark.parametrize("argv", [
        ["params", TT72, "--w-exhaustive", "2", "--iterations", "2"],
        ["distance", ROW13, "--type", "Z", "--w-exhaustive", "2", "--iterations", "2"],
        ["ssdist", ROW13, "--type", "Z", "--w-max", "1", "--iterations", "2"],
        ["confine", ROW13, "--type", "Z", "--w-max", "2", "--mode", "cluster"],
        ["table2", "13", "--iterations", "2"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed(self, argv, capsys):
        """A negative seed used to reach numpy's seeding and end in a
        traceback."""
        err = self.expect_usage_error([*argv, "--seed", "-1"], capsys)
        assert "--seed" in err

    @pytest.mark.parametrize("config_seed, flags", [(-1, []), (0, ["--seed", "-1"])],
                             ids=["config", "flag"])
    def test_search_negative_seed(self, config_seed, flags, tmp_path, capsys):
        p = tmp_path / "search.json"
        p.write_text(json.dumps({"t": 2, "orders": [[4]], "seed": config_seed}))
        err = self.expect_usage_error(["search", str(p), *flags], capsys)
        assert "seed" in err

    @pytest.mark.parametrize("argv", [
        ["table2", "1", "--w-exhaustive", "4"],
        ["confine", ROW13, "--type", "Z", "--workers", "2"],
        ["params", ROW13, "--workers", "2"],
        ["distance", ROW13, "--type", "Z", "--workers", "2"],
        ["ssdist", ROW13, "--type", "Z", "--workers", "1"],
        ["table2", "1", "--workers", "1"],
    ], ids=["table2", "confine", "params-workers", "distance-workers",
            "ssdist-workers", "table2-workers"])
    def test_removed_option(self, argv, capsys):
        err = self.expect_usage_error(argv, capsys)
        assert argv[-2] in err

    def test_search_workers_flag_zero(self, tmp_path, capsys):
        p = tmp_path / "search.json"
        p.write_text(json.dumps({"t": 2, "orders": [[4]]}))
        self.expect_usage_error(["search", str(p), "--workers", "0"], capsys)

    def test_q_override_must_be_an_integer(self, tmp_path, capsys):
        p = tmp_path / "q.json"
        p.write_text(json.dumps(dict(ROW1, q_override="1")))
        err = self.expect_usage_error(["verify", str(p)], capsys)
        assert "q_override" in err

    @pytest.mark.parametrize(
        "patch",
        [
            {"variables": 5},
            {"orders": [3.7]},
            {"t": "2"},
            {"t": 2.0},
            {"t": True, "generators": ["1+x"]},
            {"generators": "ab"},
        ],
        ids=["variables", "orders-float", "t-str", "t-float", "t-bool",
             "generators-str"],
    )
    def test_code_config_field_is_checked(self, patch, tmp_path, capsys):
        """Each of these used to be coerced or to end in a traceback:
        variables 5 raised TypeError, orders [3.7] built a code over Z_3, "2",
        2.0 and true were taken as t, and "ab" was split into two generators."""
        config = {"t": 2, "orders": [3], "generators": ["1+x", "1+x"], **patch}
        p = tmp_path / "code.json"
        p.write_text(json.dumps(config))
        err = self.expect_usage_error(["verify", str(p)], capsys)
        assert next(iter(patch)) in err

    @pytest.mark.parametrize("variables, generators", [
        (["x", "x"], ["1+x", "1+x"]),
        (["1", "y"], ["1+y", "1+y"]),
    ], ids=["repeated", "digit"])
    def test_variable_names_are_distinct_letters(self, variables, generators,
                                                 tmp_path, capsys):
        """Both used to pass ``verify`` and leave the first variable with no
        name a generator could use; with ["x", "x"], p_x and p_z had the same
        hash."""
        p = tmp_path / "code.json"
        p.write_text(json.dumps({"t": 2, "orders": [3, 3], "generators": generators,
                                 "variables": variables}))
        err = self.expect_usage_error(["verify", str(p)], capsys)
        assert "distinct single letters" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t", 4.0),
            ("orders", [[2, 2, 2, 2.0]]),
            ("term_range", [1, 3.5]),
            ("require_k_min", "2"),
            ("require_d_min", 3.0),
            ("distance_budget", [3.0, 10]),
            ("distance_budget", [3, 10.5]),
            ("distance_budget", [3, 10, 1]),
            ("confinement_w_max", 2.5),
            ("max_candidates", 4.0),
            ("seed", 1.5),
            ("workers", True),
        ],
    )
    def test_search_config_field_must_be_integer(self, field, value, tmp_path, capsys):
        config = {
            "t": 4,
            "orders": [[2, 2, 2, 2]],
            "structured_families": ["(1+v_a)(1+v_b v_c)", "1+v_a v_b"],
            "distance_budget": [3, 10],
            "require_k_min": 2,
            "require_d_min": 3,
            "confinement_w_max": 2,
            "max_candidates": 4,
            field: value,
        }
        p = tmp_path / "search.json"
        p.write_text(json.dumps(config))
        err = self.expect_usage_error(["search", str(p)], capsys)
        assert field in err

    @pytest.mark.parametrize("value", ["abc", "-1", "0", "1.5", "\u00b2"])
    @pytest.mark.parametrize("argv", [
        ["distance", ROW13, "--type", "Z", "--w-exhaustive", "2"],
        ["table2", "1", "--iterations", "0"],
    ], ids=["distance", "table2"])
    def test_budget_env_must_be_positive_integer(self, argv, value, monkeypatch,
                                                 capsys):
        monkeypatch.setenv("MMCODES_BUDGET", value)
        err = self.expect_usage_error(argv, capsys)
        assert err.startswith(f"mmcodes {argv[0]}: error: MMCODES_BUDGET")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_search_exhaustive_weight_over_the_budget(self, workers, tmp_path, capsys):
        """A ``distance_budget[0]`` whose search is charged over the default
        budget exits 3 with a hint to lower it, on a pool too; every
        candidate used to count as a stage-3 rejection, with exit 0.  The
        hint does not name MMCODES_BUDGET, which ``search`` does not read."""
        p = tmp_path / "search.json"
        p.write_text(json.dumps({
            "t": 4, "orders": [[2, 2, 2, 2]], "distance_budget": [7, 0],
            "max_candidates": 5, "require_k_min": 0, "workers": workers,
        }))
        rc, out = run(["search", str(p)])
        assert rc == EXIT_BUDGET and out == ""
        assert capsys.readouterr().err == (
            "error: enumeration needs ~1.29e+10 steps, over the budget 1e+09\n"
            "hint: lower distance_budget[0]\n")

    def test_table2_budget_below_one_weight(self, monkeypatch, capsys):
        monkeypatch.setenv("MMCODES_BUDGET", "7")
        rc, out = run(["table2", "1", "--iterations", "0"])
        err = capsys.readouterr().err
        assert rc == EXIT_BUDGET and out == ""
        assert err.startswith("error: enumeration needs") and "Traceback" not in err
        assert "hint: raise MMCODES_BUDGET" in err and "--w-" not in err
        assert "w_max" not in err

    @pytest.mark.parametrize("argv, flag, budget", [
        (["params", ROW13, "--w-exhaustive", "4"], "--w-exhaustive", "100"),
        (["ssdist", ROW13, "--type", "Z", "--w-max", "4"], "--w-max", "100"),
        # weight 1 is charged the n = 324 steps; the single-shot search at
        # weight 4 is the one refused
        (["params", ROW13, "--w-exhaustive", "1", "--ss-w", "4"],
         "--w-exhaustive or --ss-w", "324"),
    ], ids=["params", "ssdist", "params-ss-w"])
    def test_budget_hint_names_the_command_option(self, argv, flag, budget,
                                                  monkeypatch, capsys):
        monkeypatch.setenv("MMCODES_BUDGET", budget)
        rc, out = run(argv)
        err = capsys.readouterr().err
        assert rc == EXIT_BUDGET and out == ""
        assert f"hint: lower {flag} or raise MMCODES_BUDGET\n" in err
        assert err.count("--w-") == 1

    def test_group_size_budget_has_no_flag_hint(self, tmp_path, capsys):
        p = tmp_path / "big.json"
        p.write_text(json.dumps(dict(ROW1, t=2, orders=[8193], generators=["1+x"] * 2)))
        rc, out = run(["verify", str(p)])
        err = capsys.readouterr().err
        assert rc == EXIT_BUDGET and out == ""
        assert "4096" in err and "--w-exhaustive" not in err
        assert len(err.splitlines()) == 1

    def test_group_size_budget_before_the_chain_cap(self, tmp_path, capsys):
        """At t = 4 the chain, 2^4 * 8193 basis elements, is past its cap
        too; the group size is still the refusal named."""
        p = tmp_path / "big.json"
        p.write_text(json.dumps(dict(ROW1, t=4, orders=[8193], generators=["1+x"] * 4)))
        rc, out = run(["verify", str(p)])
        assert rc == EXIT_BUDGET and out == ""
        assert capsys.readouterr().err == (
            "error: group size 8193 exceeds the size budget 4096\n")

    @pytest.mark.parametrize("argv", [
        ["confine", BGA16, "--type", "Z", "--w-max", "17"],
        ["params", BGA16, "--confinement-w", "17"],
    ], ids=["confine", "params"])
    def test_confinement_weight_past_the_qubit_count(self, argv, capsys):
        """bga16 has 16 qubits; both commands used to run at w = 17."""
        err = self.expect_usage_error(argv, capsys)
        assert err == f"error: {argv[-2]} 17 exceeds the 16 qubits of the code\n"

    def test_weight_past_n_is_charged_without_a_loop_over_it(self, tmp_path):
        """Past n the charge is C(n, 1) + ... + C(n, n): tt72 at w = 10^12 is
        refused at once with the same message as at w = 72, and a code
        without logicals is certified up to 10^12 without walking the
        weights in between.  Both used to loop once per weight."""
        proc = run_under_memory_limit(
            ["distance", TT72, "--type", "Z", "--w-exhaustive", str(10**12)],
            1_000_000 * 1024)
        assert proc.returncode == EXIT_BUDGET and proc.stdout == ""
        assert proc.stderr == ("error: enumeration needs ~4.72e+21 steps, over the "
                               "budget 1e+09\nhint: lower --w-exhaustive or raise "
                               "MMCODES_BUDGET\n")
        p = tmp_path / "k0.json"
        p.write_text(json.dumps({"t": 2, "orders": [2], "generators": ["1", "1"]}))
        proc = run_under_memory_limit(
            ["distance", str(p), "--type", "Z", "--w-exhaustive", str(10**12)],
            1_000_000 * 1024)
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["lower"] == 10**12 + 1

    def test_chain_size_budget_under_an_address_space_limit(self, tmp_path):
        """t = 26 generators used to list all 2^26 subsets and end in a
        MemoryError traceback under a 1 GB limit.  The refusal names the
        chain size and the cap, with no flag hint; about 0.4 s in a fresh
        process."""
        p = tmp_path / "t26.json"
        p.write_text(json.dumps({"t": 26, "orders": [2], "generators": ["1+x"] * 26}))
        proc = run_under_memory_limit(["verify", str(p)], 1_000_000 * 1024)
        assert proc.returncode == EXIT_BUDGET and proc.stdout == ""
        assert proc.stderr == ("error: the chain complex has 134217728 basis "
                               "elements, over the cap 65536\n")

    @pytest.mark.parametrize("generator", ["1+x^" + "9" * 5000, "x" + "1" * 5000])
    def test_overlong_number_in_a_generator(self, generator, tmp_path, capsys):
        """Past int()'s digit limit a number used to end in a traceback."""
        p = tmp_path / "long.json"
        p.write_text(json.dumps(dict(ROW1, generators=[generator] * 4)))
        err = self.expect_usage_error(["verify", str(p)], capsys)
        assert err.startswith("error: integer of 5000 digits is too long (at offset")

    def test_overlong_number_in_a_search_template(self, tmp_path, capsys):
        p = tmp_path / "search.json"
        p.write_text(json.dumps({"t": 2, "orders": [[4]], "max_candidates": 2,
                                 "structured_families": ["1+v_a^" + "9" * 5000]}))
        err = self.expect_usage_error(["search", str(p)], capsys)
        assert err == ("error: structured_families[0] over orders [4]: integer of "
                       "5000 digits is too long (at offset 6)\n")

    @pytest.mark.parametrize("command, what", [("verify", "config"),
                                               ("search", "search config")])
    @pytest.mark.parametrize("text", [b'{"t": ' + b"1" * 5000 + b"}", b"\xff",
                                      b"[" * 100_000])
    def test_config_json_cannot_decode(self, command, what, text, tmp_path, capsys):
        """A number past int()'s digit limit, text that is not UTF-8, or
        nesting past the recursion limit used to end in a traceback."""
        p = tmp_path / "bad.json"
        p.write_bytes(text)
        err = self.expect_usage_error([command, str(p)], capsys)
        assert err.startswith(f"error: {what} {p} is not valid JSON: ")

    @pytest.mark.parametrize("command, what", [("verify", "config"),
                                               ("search", "search config")])
    def test_config_path_open_refuses(self, command, what, capsys):
        """``open`` refuses a NUL byte with a ValueError, not an OSError."""
        err = self.expect_usage_error([command, "a\0b.json"], capsys)
        assert err == f"error: cannot read {what} a\0b.json: embedded null byte\n"

    def test_unreadable_search_config(self, capsys):
        err = self.expect_usage_error(["search", "/nonexistent/s.json"], capsys)
        assert err.startswith("error: cannot read search config /nonexistent/s.json: ")

    def test_build_into_a_file_path(self, row1_config, tmp_path, capsys):
        """An output directory below a regular file used to end in a
        traceback with exit 1."""
        (tmp_path / "file").write_text("")
        err = self.expect_usage_error(
            ["build", row1_config, "--out", str(tmp_path / "file" / "bundle")], capsys)
        assert err.startswith("error: cannot write") and "Not a directory" in err

    def test_export_into_a_missing_directory(self, row1_config, tmp_path, capsys):
        dest = tmp_path / "missing" / "x.alist"
        err = self.expect_usage_error(
            ["export", row1_config, "--matrix", "p_x", "--out", str(dest)], capsys)
        assert err == f"error: cannot write {dest}: No such file or directory\n"

    @pytest.mark.parametrize("patch, message", [
        ({"t": 1, "generators": ["1+wx"]}, "config t=1 leaves no qubit degree"),
        ({"t": 0, "generators": []}, "config t=0 leaves no qubit degree"),
        ({"q_override": 9}, "config q_override 9 is out of range 1..3"),
        ({"q_override": 0}, "config q_override 0 is out of range 1..3"),
    ], ids=["t1", "t0", "q9", "q0"])
    def test_config_without_a_qubit_degree(self, patch, message, tmp_path, capsys):
        """These used to fail in the build and exit 1, the code of a
        verification failure."""
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(dict(ROW1, **patch)))
        err = self.expect_usage_error(["verify", str(p)], capsys)
        assert err.startswith(f"error: {message}")

    def test_search_order_past_the_group_size_budget(self, tmp_path, capsys):
        """numpy cannot draw monomials of a group of 10^22 elements: this
        used to end in an OverflowError traceback with exit 1."""
        p = tmp_path / "search.json"
        p.write_text(json.dumps({"t": 2, "orders": [[10**22]], "term_range": [2, 3]}))
        err = self.expect_usage_error(["search", str(p)], capsys)
        assert err == (f"error: orders [{10**22}] at t=2: group size {10**22} "
                       "exceeds the size budget 4096\n")

    def test_search_t_past_the_chain_cap_is_refused_at_once(self, tmp_path):
        """Every candidate at t = 10^9 is a stage-1 rejection, after its t
        generators are drawn; the config is now refused without forming
        2^t, in about 0.4 s of process start-up."""
        p = tmp_path / "search.json"
        p.write_text(json.dumps({"t": 10**9, "orders": [[4]], "term_range": [1, 2],
                                 "max_candidates": 1}))
        proc = run_under_memory_limit(["search", str(p)], 1_000_000 * 1024, timeout=5)
        assert proc.returncode == EXIT_USAGE and proc.stdout == ""
        assert proc.stderr.startswith("error: t must be in 2..16")
        assert len(proc.stderr.splitlines()) == 1

    def test_search_into_a_missing_directory(self, tmp_path, capsys):
        p = tmp_path / "search.json"
        p.write_text(json.dumps({"t": 2, "orders": [[4]], "max_candidates": 2}))
        dest = tmp_path / "missing" / "o.jsonl"
        err = self.expect_usage_error(["search", str(p), "--out", str(dest)], capsys)
        assert err == f"error: cannot write {dest}: No such file or directory\n"


ROW20 = str(resources.files("mmcodes") / "fixtures" / "table2_row20.json")


def run_under_memory_limit(argv, limit, timeout=60):
    """``mmcodes argv`` in a fresh process with an address space of at most
    ``limit`` bytes, given ``timeout`` seconds."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(Path(cp.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "mmcodes.cli", *argv],
                          capture_output=True, text=True, timeout=timeout, env=env,
                          preexec_fn=cap_memory)


def test_runs_without_numpy(tmp_path):
    """With numpy blocked from import, a report and a search still run: the
    package needs Python alone."""
    config = tmp_path / "search.json"
    config.write_text(json.dumps({
        "t": 4, "orders": [[2, 2, 2, 2]],
        "structured_families": ["(1+v_a)(1+v_b v_c)", "1+v_a v_b"],
        "distance_budget": [3, 30], "max_candidates": 5}))
    code = ("import sys; sys.modules['numpy'] = None; "
            "from mmcodes.cli import main; sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(Path(cp.__file__).parents[1]))
    for argv in (["params", BGA16, "--iterations", "5", "--ss-w", "2"],
                 ["search", str(config)]):
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout


HAAH1024 = str(resources.files("mmcodes") / "fixtures" / "haah1024.json")


class TestCountsPastFloatRange:
    """A refusal prints a count past float range as the nearest power of
    two; each of these used to end in a traceback with exit 1."""

    @pytest.mark.parametrize("argv, message", [
        (["distance", HAAH1024, "--type", "Z", "--w-exhaustive", "1024"],
         "error: enumeration needs ~2^1024 steps, over the budget 1e+09"),
        (["confine", HAAH1024, "--type", "Z", "--w-max", "1024"],
         "error: the confinement table needs ~2^1024 entries, over the cap 2e+07"),
    ], ids=["distance", "confine"])
    def test_charge_past_float_range(self, argv, message, capsys):
        """Formatting these charges with ``.3g`` raised OverflowError."""
        rc, out = run(argv)
        err = capsys.readouterr().err
        assert rc == EXIT_BUDGET and out == "" and "Traceback" not in err
        assert err.splitlines()[0] == message
        assert [ln.split()[0] for ln in err.splitlines()] == ["error:", "hint:"]

    @pytest.mark.parametrize("doc, message", [
        ({"t": 15000, "orders": [2], "generators": ["1"] * 15000},
         "the chain complex has ~2^15001 basis elements, over the cap 65536"),
        ({"t": 2, "orders": [10**4000 - 1] * 2, "generators": ["1", "1"]},
         "group size ~2^26575 exceeds the size budget 4096"),
    ], ids=["chain", "group"])
    def test_size_past_the_digit_limit(self, doc, message, tmp_path, capsys):
        """``str`` refuses an int of more than 4,300 digits with a
        ValueError, raised while the exception was being built."""
        p = tmp_path / "big.json"
        p.write_text(json.dumps(doc))
        rc, out = run(["verify", str(p)])
        assert rc == EXIT_BUDGET and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"


class TestConfinementTableCap:
    """Each command that computes a confinement profile refuses a coset
    table past ``CONFINEMENT_TABLE_CAP`` with exit 3, an error line and a
    hint naming its confinement weight, before building the table."""

    def expect_table_refused(self, argv, knob, capsys):
        rc, out = run(argv)
        err = capsys.readouterr().err
        assert rc == EXIT_BUDGET and out == ""
        assert err.startswith("error: the confinement table needs ~")
        assert err.endswith(f"\nhint: lower {knob}\n") and len(err.splitlines()) == 2
        assert "MMCODES_BUDGET" not in err

    def test_row20_at_w5_exits_3_under_an_address_space_limit(self):
        """Row 20's table at w=5 holds 4.5e7 entries, about 4-5 GB; it used
        to end in a MemoryError traceback under a 1.5 GB limit.  About 0.3 s
        in a fresh process."""
        proc = run_under_memory_limit(
            ["confine", ROW20, "--type", "Z", "--w-max", "5"], 1_500_000 * 1024)
        assert proc.returncode == EXIT_BUDGET and proc.stdout == ""
        assert proc.stderr == ("error: the confinement table needs ~4.54e+07 entries, "
                               "over the cap 2e+07\nhint: lower --w-max\n")

    def test_params_confinement_w(self, monkeypatch, capsys):
        monkeypatch.setattr(cp, "CONFINEMENT_TABLE_CAP", 72)
        self.expect_table_refused(
            ["params", TT72, "--w-exhaustive", "1", "--confinement-w", "3"],
            "--confinement-w", capsys)

    def test_search_confinement_w_max(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cp, "CONFINEMENT_TABLE_CAP", 1)
        p = tmp_path / "search.json"
        p.write_text(json.dumps({
            "t": 2, "orders": [[4], [6]], "term_range": [1, 3], "require_k_min": 1,
            "require_d_min": 2, "distance_budget": [3, 5], "max_candidates": 15,
            "confinement_w_max": 3, "workers": 1,
        }))
        self.expect_table_refused(["search", str(p), "--seed", "3"],
                                  "confinement_w_max", capsys)


# Every subcommand's positionals and option strings.  A new option, or one
# nothing reads, has to show up here.
CLI_SURFACE = {
    "build": {"config", "--out", "--format"},
    "verify": {"config"},
    "params": {"config", "--w-exhaustive", "--iterations", "--confinement-w",
               "--ss-w", "--seed"},
    "distance": {"config", "--type", "--w-exhaustive", "--iterations", "--seed"},
    "ssdist": {"config", "--type", "--w-max", "--iterations", "--seed"},
    "confine": {"config", "--type", "--w-max", "--mode", "--seed"},
    "search": {"config", "--out", "--seed", "--workers"},
    "export": {"config", "--matrix", "--format", "--out"},
    "table2": {"rows", "--iterations", "--seed"},
}


def test_cli_surface():
    commands = next(a for a in make_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    surface = {
        name: {s for a in sp._actions if not isinstance(a, argparse._HelpAction)
               for s in a.option_strings or [a.dest]}
        for name, sp in commands.items()
    }
    assert surface == CLI_SURFACE


# (w, --iterations) -> row 01's (d_lower, d_upper, d_status) with
# MMCODES_BUDGET the charge of the search up to w, as recorded while table2
# still chose its own exhaustive weight from the budget.
ROW01_AT_BUDGET = {
    (1, 0): (2, None, "upper-bound only (certified > 1)"),
    (1, 2): (2, 4, "upper bound met"),
    (2, 0): (3, None, "upper-bound only (certified > 2)"),
    (2, 2): (3, 4, "upper bound met"),
    (3, 0): (4, None, "upper-bound only (certified > 3)"),
    (3, 2): (4, 4, "exact"),
    (4, 0): (4, 4, "exact"),
    (4, 2): (4, 4, "exact"),
    (5, 0): (4, 4, "exact"),
    (5, 2): (4, 4, "exact"),
}


class TestFixturesAndTable:
    def test_all_fixtures_load_and_build(self):
        names = fixture_names()
        assert len([n for n in names if n.startswith("table2_row")]) == 21
        assert len(names) == 30 and all(load_fixture(n).published for n in names)
        for name in ("toric4d.json", "tt72.json", "bga16.json"):
            cfg = load_fixture(name)
            code = build_from_config(cfg)
            assert code.n == cfg.published["n"]

    def test_table2_rows_publish_every_checked_value(self):
        """``table2`` compares each of these with the recomputed row."""
        rows = [n for n in fixture_names() if n.startswith("table2_row")]
        assert len(rows) == 21
        for name in rows:
            pub = load_fixture(name).published
            for key in ("n", "k", "d", "w_med", "w_max"):
                assert type(pub.get(key)) is int, (name, key)

    def test_table2_selected_rows(self):
        rc, out = run(["table2", "1", "4", "--iterations", "0"])
        assert rc == EXIT_OK
        rows = [json.loads(ln) for ln in out.splitlines()]
        assert [r["row"] for r in rows] == ["table2_row01", "table2_row04"]
        assert all(r["match"] for r in rows)
        assert rows[0]["d_status"] == "exact"

    def test_table2_rows_have_q_half_of_even_t(self):
        """Every row has even t and q = t/2, so every row's code is marked
        ``self_dual`` and ``table2`` certifies its Z distance alone."""
        for name in fixture_names():
            if name.startswith("table2_row"):
                cfg = load_fixture(name)
                assert cfg.t % 2 == 0 and cfg.q_override in (None, cfg.t // 2)
                assert build_from_config(cfg).self_dual

    def test_table2_certifies_z_only(self, monkeypatch):
        """No X search runs, also where Z falls short of the published d:
        row 01's Z search reaches d = 4 exactly, and row 03's stops at the
        budget below d = 8.  X used to be searched while Z fell short."""
        kinds, search = [], cp._lightest

        def recorded(code, kind, *args, **kwargs):
            kinds.append(kind)
            return search(code, kind, *args, **kwargs)

        monkeypatch.setattr(cp, "_lightest", recorded)
        rc, out = run(["table2", "1", "3", "--iterations", "0"])
        rows = [json.loads(line) for line in out.splitlines()]
        assert rc == EXIT_OK and rows[0]["d_status"] == "exact"
        assert rows[1]["d_status"].startswith("upper-bound only")
        assert kinds and set(kinds) == {"Z"}

    @pytest.mark.parametrize("w, iterations", sorted(ROW01_AT_BUDGET))
    def test_table2_row01_at_the_budget_edge(self, w, iterations, monkeypatch):
        """With ``MMCODES_BUDGET`` the charge of the search up to w, row 01
        (n = 96, d = 4) is certified up to exactly w."""
        monkeypatch.setenv("MMCODES_BUDGET", str(cp._enum_cost(96, w)))
        rc, out = run(["table2", "1", "--iterations", str(iterations)])
        row = json.loads(out)
        assert rc == EXIT_OK
        assert (row["d_lower"], row["d_upper"], row["d_status"]) == \
            ROW01_AT_BUDGET[w, iterations]

    def test_table2_unknown_row(self):
        rc, _ = run(["table2", "99"])
        assert rc == EXIT_USAGE
