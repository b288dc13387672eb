import csv
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reference_values import GOLDEN_BOUNDS, log10_close
from telecert import cli, reporting, scenarios, simulator, stats
from telecert.ensembles import to_document, trine


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_records(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestScenarios:
    def test_lists_five_scenarios(self, capsys, tmp_path):
        out_path = tmp_path / "scenarios.json"
        code, out, _ = run_cli(
            capsys, ["scenarios", "--format", "records", "--out", str(out_path)]
        )
        assert code == 0
        doc = load_records(out_path)
        rows = doc["rows"]
        assert len(rows) == 5
        by_name = {row["name"]: row for row in rows}
        assert by_name["qutrit-mubs"]["f_th_cla"] == pytest.approx(0.5, abs=1e-9)
        assert by_name["helstrom"]["note"] == "target arbitrarily set"
        assert by_name["trine"]["default_target"] == 0.865
        assert doc["manifest"]["command"] == "scenarios"

    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, ["scenarios"])
        assert code == 0
        assert "trine" in out and "qutrit-mubs" in out


class TestBounds:
    def test_golden_trine_rows(self, capsys, tmp_path):
        out_path = tmp_path / "bounds.json"
        code, _, _ = run_cli(
            capsys,
            [
                "bounds",
                "--scenario",
                "trine",
                "--n",
                "100,1000,5000",
                "--format",
                "records",
                "--out",
                str(out_path),
            ],
        )
        assert code == 0
        rows = load_records(out_path)["rows"]
        for row, (n_runs, golden) in zip(rows, GOLDEN_BOUNDS[("trine", 0.865)]):
            assert row["n_runs"] == n_runs
            assert log10_close(row["log10_bound"], golden)
            assert row["bound"] == pytest.approx(10.0 ** row["log10_bound"])

    def test_near_unity_target(self, capsys, tmp_path):
        out_path = tmp_path / "bounds.json"
        code, _, _ = run_cli(
            capsys,
            [
                "bounds",
                "--scenario",
                "trine",
                "--target",
                str(1.0 - 1e-5),
                "--n",
                "50,100,500",
                "--format",
                "records",
                "--out",
                str(out_path),
            ],
        )
        assert code == 0
        rows = load_records(out_path)["rows"]
        for row, (n_runs, golden) in zip(rows, GOLDEN_BOUNDS[("trine", 1.0 - 1e-5)]):
            assert row["n_runs"] == n_runs
            assert log10_close(row["log10_bound"], golden)

    def test_target_one_ulp_below_unity(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bounds", "--scenario", "trine", "--target", "0.9999999999999999", "--n", "10"],
        )
        assert code == 0
        assert "inf" not in out and "nan" not in out

    def test_target_below_classical_fidelity(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["bounds", "--scenario", "trine", "--target", "0.7", "--n", "100"],
        )
        assert code == cli.EXIT_PRECONDITION
        assert "does not exceed" in err

    def test_unknown_scenario(self, capsys):
        code, _, err = run_cli(capsys, ["bounds", "--scenario", "nope", "--n", "10"])
        assert code == cli.EXIT_VALIDATION
        assert "unknown scenario" in err

    def test_bad_n_entry(self, capsys):
        code, _, err = run_cli(capsys, ["bounds", "--scenario", "trine", "--n", "1,x"])
        assert code == cli.EXIT_VALIDATION
        assert "integers" in err

    def test_csv_format(self, capsys, tmp_path):
        out_path = tmp_path / "bounds.csv"
        code, _, _ = run_cli(
            capsys,
            [
                "bounds",
                "--scenario",
                "qutrit-mubs",
                "--n",
                "50,100",
                "--format",
                "csv",
                "--out",
                str(out_path),
            ],
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("command: bounds" in ln for ln in comments)
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0].split(",")[0] == "n_runs"
        assert len(data) == 3


class TestSimulate:
    def test_rounds_up_indivisible_runs(self, capsys, tmp_path):
        out_path = tmp_path / "sim.json"
        code, out, err = run_cli(
            capsys,
            [
                "simulate",
                "--scenario",
                "trine",
                "--n",
                "101",
                "--trials",
                "2000",
                "--seed",
                "1",
                "--format",
                "records",
                "--out",
                str(out_path),
            ],
        )
        assert code == 0
        assert "rounded up to 102" in err
        doc = load_records(out_path)
        assert doc["report"]["n_runs"] == 102
        assert doc["report"]["n_trials"] == 2000

    def test_deterministic_documents(self, capsys, tmp_path):
        argv = [
            "simulate",
            "--scenario",
            "trine",
            "--n",
            "60",
            "--trials",
            "5000",
            "--seed",
            "7",
            "--format",
            "records",
        ]
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        path_c = tmp_path / "c.json"
        assert run_cli(capsys, argv + ["--out", str(path_a)])[0] == 0
        assert run_cli(capsys, argv + ["--out", str(path_b)])[0] == 0
        assert (
            run_cli(capsys, argv + ["--workers", "4", "--out", str(path_c)])[0] == 0
        )
        docs = [load_records(p) for p in (path_a, path_b, path_c)]
        for doc in docs:
            doc["manifest"].pop("timestamp")
        canon = [json.dumps(d, sort_keys=True) for d in docs]
        assert canon[0] == canon[1] == canon[2]

    def test_threshold_zero_exceeds_everywhere(self, capsys, tmp_path):
        out_path = tmp_path / "sim.json"
        code, _, _ = run_cli(
            capsys,
            [
                "simulate",
                "--scenario",
                "qutrit-mubs",
                "--n",
                "12",
                "--trials",
                "500",
                "--threshold",
                "0",
                "--seed",
                "3",
                "--format",
                "records",
                "--out",
                str(out_path),
            ],
        )
        assert code == 0
        doc = load_records(out_path)
        assert doc["report"]["exceedance_count"] == 500
        # threshold 0 leaves no valid exceedance bound, only a note
        assert doc["bound"] is None
        assert doc["bound_note"]

    def test_bound_and_exact_embedded(self, capsys, tmp_path):
        out_path = tmp_path / "sim.json"
        code, _, _ = run_cli(
            capsys,
            [
                "simulate",
                "--scenario",
                "trine",
                "--n",
                "102",
                "--trials",
                "2000",
                "--seed",
                "2",
                "--format",
                "records",
                "--out",
                str(out_path),
            ],
        )
        assert code == 0
        doc = load_records(out_path)
        assert doc["bound"]["log10_bound"] < 0
        bound = 10.0 ** doc["bound"]["log10_bound"]
        assert doc["exact_exceedance"] <= bound
        assert doc["report"]["exceedance_frequency"] <= bound
        hist = doc["report"]["pass_count_histogram"]
        counts = hist["counts"]
        # the histogram spans exactly the observed pass counts, within 0..N
        assert hist["offset"] >= 0 and hist["offset"] + len(counts) <= 103
        assert counts[0] > 0 and counts[-1] > 0
        assert sum(counts) == 2000
        passes = sum((hist["offset"] + k) * c for k, c in enumerate(counts))
        assert passes / (102 * 2000) == pytest.approx(doc["report"]["mean_fidelity"], rel=1e-12)

    def test_env_var_seed_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "99")
        out_path = tmp_path / "sim.json"
        code, _, _ = run_cli(
            capsys,
            [
                "simulate",
                "--scenario",
                "trine",
                "--n",
                "12",
                "--trials",
                "100",
                "--format",
                "records",
                "--out",
                str(out_path),
            ],
        )
        assert code == 0
        assert load_records(out_path)["report"]["seed"] == 99


class TestHypothesis:
    def test_midpoint_symmetry(self, capsys, tmp_path):
        out_path = tmp_path / "hyp.json"
        code, _, _ = run_cli(
            capsys,
            [
                "hypothesis",
                "--f-qm",
                "0.865",
                "--f-cla",
                "0.75",
                "--f-crit",
                "0.8075",
                "--sigma",
                "0.3",
                "--n",
                "25,50,100,200",
                "--format",
                "records",
                "--out",
                str(out_path),
            ],
        )
        assert code == 0
        rows = load_records(out_path)["rows"]
        assert len(rows) == 4
        alphas = [row["alpha"] for row in rows]
        for row in rows:
            assert row["alpha"] == pytest.approx(row["beta"], abs=1e-12)
        assert alphas == sorted(alphas, reverse=True)
        assert rows[2]["alpha"] == pytest.approx(0.02762, abs=1e-4)

    def test_invalid_critical_value(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "hypothesis",
                "--f-qm",
                "0.8",
                "--f-cla",
                "0.7",
                "--f-crit",
                "0.95",
                "--sigma",
                "0.3",
                "--n",
                "10",
            ],
        )
        assert code == cli.EXIT_VALIDATION
        assert "between" in err


class TestLln:
    def test_single_row(self, capsys, tmp_path):
        out_path = tmp_path / "lln.json"
        code, _, _ = run_cli(
            capsys,
            [
                "lln",
                "--scenario",
                "trine",
                "--n",
                "30",
                "--trials",
                "2000",
                "--seed",
                "5",
                "--format",
                "records",
                "--out",
                str(out_path),
            ],
        )
        assert code == 0
        doc = load_records(out_path)
        assert len(doc["rows"]) == 1
        assert doc["rms_loglog_slope"] is None

    def test_one_distinct_run_count_has_no_slope(self, capsys):
        argv = ["lln", "--scenario", "trine", "--n", "60,60", "--trials", "10", "--format", "records"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        assert [row["n_runs"] for row in doc["rows"]] == [60, 60]
        assert doc["rms_loglog_slope"] is None

    def test_short_ladder_slope(self, capsys, tmp_path):
        out_path = tmp_path / "lln.json"
        code, _, _ = run_cli(
            capsys,
            [
                "lln",
                "--scenario",
                "trine",
                "--n",
                "60,240,960",
                "--trials",
                "20000",
                "--seed",
                "5",
                "--format",
                "records",
                "--out",
                str(out_path),
            ],
        )
        assert code == 0
        doc = load_records(out_path)
        assert -0.6 <= doc["rms_loglog_slope"] <= -0.4
        assert doc["rows"][0]["mean_fidelity"] == pytest.approx(0.75, abs=0.01)

    def test_indivisible_ladder_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["lln", "--scenario", "trine", "--n", "100", "--trials", "100"],
        )
        assert code == cli.EXIT_PRECONDITION
        assert "multiple" in err


SIMULATE = ["simulate", "--scenario", "trine", "--n", "12", "--trials", "100"]
LLN = ["lln", "--scenario", "trine", "--n", "12", "--trials", "100"]
BOUNDS = ["bounds", "--scenario", "trine", "--n", "12"]
HYPOTHESIS = ["hypothesis", "--f-qm", "0.9", "--f-cla", "0.7", "--f-crit", "0.8"]


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv,code",
        [
            (SIMULATE + ["--threshold", "nan"], 2),
            (SIMULATE + ["--workers", "0"], 2),
            (LLN + ["--workers", "-3"], 2),
            (BOUNDS + ["--target", "nan"], 2),
            (BOUNDS + ["--target", "inf"], 2),
            (HYPOTHESIS + ["--sigma", "nan", "--n", "12"], 2),
            (["hypothesis", "--f-qm", "inf", "--f-cla", "0.7", "--f-crit", "0.8",
              "--sigma", "0.3", "--n", "10"], 2),
            (["hypothesis", "--f-qm", "5", "--f-cla", "0.5", "--f-crit", "0.6",
              "--sigma", "0.3", "--n", "10"], 2),
            (SIMULATE + ["--out", "/nonexistent-dir/x.json"], 4),
            (BOUNDS + ["--n", ""], 2),
            (LLN + ["--n", ","], 2),
            (HYPOTHESIS + ["--sigma", "0.3", "--n", ""], 2),
            (SIMULATE + ["--trials", "9223372036854775808"], 2),
            (LLN + ["--trials", "9223372036854775808"], 2),
            (["simulate", "--scenario", "trine", "--n", "0"], 2),
            (["simulate", "--scenario", "trine", "--n", "-5"], 2),
            (["simulate", "--scenario", "trine", "--n", "30000000000000001", "--trials", "10"], 3),
            (["simulate", "--scenario", "trine", "--n", "100", "--trials", "0"], 2),
            (["simulate", "--scenario", "trine", "--n", "100", "--threshold", "nan"], 2),
            (["simulate", "--scenario", "trine", "--n", "100", "--workers", "0"], 2),
        ],
    )
    def test_rejected_before_any_output(self, capsys, argv, code):
        got, out, err = run_cli(capsys, argv)
        assert got == code
        assert out == ""
        assert "rounded up" not in err

    @pytest.mark.parametrize(
        "argv", [SIMULATE[:3], LLN[:3], BOUNDS[:3], HYPOTHESIS + ["--sigma", "0.3"]],
        ids=["simulate", "lln", "bounds", "hypothesis"],
    )
    def test_zero_runs_refused_with_one_line(self, capsys, argv):
        got, out, err = run_cli(capsys, argv + ["--n", "0"])
        assert got == cli.EXIT_VALIDATION
        assert out == ""
        assert err.splitlines() == ["validation error: n_runs must be positive, got 0"]

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_nonpositive_runs_named_as_given(self, capsys, n):
        _, _, err = run_cli(capsys, ["simulate", "--scenario", "trine", "--n", n])
        assert f"n_runs must be positive, got {n}" in err

    def test_failed_replace_keeps_the_old_document(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "sim.json"
        target.write_text("old document\n")

        def refuse(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", refuse)
        got, out, err = run_cli(capsys, SIMULATE + ["--format", "records", "--out", str(target)])
        assert got == cli.EXIT_IO
        assert out == ""
        assert "simulated rename failure" in err
        assert target.read_text() == "old document\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sim.json"]

    def test_stale_temp_file_does_not_block_the_write(self, capsys, tmp_path):
        # a run killed between its open and its rename leaves the sibling behind
        target = tmp_path / "bounds.json"
        stale = tmp_path / f"bounds.json.{os.getpid()}.tmp"
        stale.write_text("left by a killed run\n")
        got, out, _ = run_cli(capsys, BOUNDS + ["--format", "records", "--out", str(target)])
        assert got == cli.EXIT_OK and out != ""
        assert load_records(target)["manifest"]["command"] == "bounds"
        assert stale.read_text() == "left by a killed run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bounds.json", stale.name]

    @pytest.mark.usefixtures("cold_products")
    @pytest.mark.parametrize("argv", [SIMULATE, LLN], ids=["simulate", "lln"])
    def test_tables_out_of_memory(self, capsys, monkeypatch, argv):
        def refuse(laws):
            raise MemoryError("Unable to allocate 7.02 GiB")

        monkeypatch.setattr(simulator, "_binomial_table", refuse)
        got, out, err = run_cli(capsys, argv)
        assert got == cli.EXIT_PRECONDITION
        assert out == ""
        assert err.splitlines() == ["precondition error: out of memory: Unable to allocate 7.02 GiB"]


    @pytest.mark.parametrize("verb", ["simulate", "lln"])
    def test_oversized_tables_refused_before_sampling(self, capsys, monkeypatch, verb):
        # N = 3e16 on trine would need a 7 GiB cdf table
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        for entry in ("stream", "_thread_stream"):
            monkeypatch.setattr(simulator, entry, no_sampling)
        # the ladder's first point is small, so lln must check every point first
        n = "30000000000000000" if verb == "simulate" else "60,30000000000000000"
        got, out, err = run_cli(capsys, [verb, "--scenario", "trine", "--n", n, "--trials", "10"])
        assert got == cli.EXIT_PRECONDITION
        assert out == ""
        assert err.startswith("precondition error: sampling Binomial(10000000000000000, ")
        assert "n_runs is too large to simulate" in err


    @pytest.mark.parametrize(
        "argv,code,message",
        [
            (BOUNDS[:-1] + [str(10**400)], 2, "validation error: n_runs is too large"),
            (BOUNDS[:-1] + ["60," + str(10**400)], 2, "validation error: n_runs is too large"),
            (HYPOTHESIS + ["--sigma", "0.3", "--n", str(10**400)], 2,
             "validation error: n_runs is too large"),
            (["simulate", "--scenario", "trine", "--n", str(3 * 10**400)], 3,
             "precondition error: the limit is 9223372036854775806 runs;"),
            (["lln", "--scenario", "trine", "--n", "60," + str(3 * 10**400)], 3,
             "precondition error: the limit is 9223372036854775806 runs;"),
            # below the float range, where m p +/- the window's half-width
            # would round to one float
            (["simulate", "--scenario", "trine", "--n", str(3 * 10**300)], 3,
             "precondition error: the limit is 9223372036854775806 runs;"),
            (["lln", "--scenario", "trine", "--n", "60," + str(3 * 2**113)], 3,
             "precondition error: the limit is 9223372036854775806 runs;"),
        ],
        ids=["bounds", "bounds-ladder", "hypothesis", "simulate", "lln", "simulate-1e300",
             "lln-2**113"],
    )
    def test_run_counts_beyond_float_refused_before_any_work(self, capsys, monkeypatch, argv, code, message):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        for entry in ("stream", "_thread_stream"):
            monkeypatch.setattr(simulator, entry, no_sampling)
        got, out, err = run_cli(capsys, argv)
        assert got == code
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith(message)
        if code == cli.EXIT_PRECONDITION:
            assert line.endswith("n_runs is too large to simulate")


class TestBadOutRefusedBeforeWork:
    """An ``--out`` that no write could create is refused before the verb computes anything."""

    #: Each verb's arguments, and the (module, attribute) of the computation it runs.
    VERBS = {
        "scenarios": (["scenarios"], cli, "builtin_scenarios"),
        "bounds": (BOUNDS, stats, "scenario_bound_report"),
        "simulate": (SIMULATE, simulator, "run_experiment"),
        "hypothesis": (HYPOTHESIS + ["--sigma", "0.3", "--n", "12"], stats, "type_one_error"),
        "lln": (LLN, simulator, "lln_sweep"),
        "ensemble-validate": (["ensemble", "validate", "ensemble.json"], cli, "load_ensemble"),
    }

    @pytest.mark.parametrize("out", ["", "folder", os.path.join("missing", "x.json")],
                             ids=["empty", "directory", "missing-directory"])
    @pytest.mark.parametrize("verb", list(VERBS))
    def test_exit_4_before_any_work(self, capsys, tmp_path, monkeypatch, verb, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "folder").mkdir()
        (tmp_path / "ensemble.json").write_text(json.dumps(to_document(trine())))
        argv, module, name = self.VERBS[verb]
        calls = []
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
        got, stdout, err = run_cli(capsys, argv + ["--out", out])
        assert got == cli.EXIT_IO
        assert stdout == ""
        assert calls == []
        assert err.splitlines() == [
            f"i/o error: --out must name a file in an existing directory, got {out!r}"
        ]
        assert not list(tmp_path.rglob("*.tmp"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ensemble.json", "folder"]


class TestParserSurface:
    """Each verb's parsed options: every dest of a minimal request, and the required flags."""

    SAMPLING = {"trials": 100_000, "seed": None, "workers": 1}
    #: verb -> (its words, the arguments a request cannot leave out, every dest but scenario)
    VERBS = {
        "scenarios": (["scenarios"], [], {"command": "scenarios", "func": cli.cmd_scenarios}),
        "bounds": (
            ["bounds"], [["--scenario", "trine"], ["--n", "60, 600,"]],
            {"command": "bounds", "n": [60, 600], "target": None, "func": cli.cmd_bounds},
        ),
        "simulate": (
            ["simulate"], [["--scenario", "trine"], ["--n", "60"]],
            {"command": "simulate", "n": 60, **SAMPLING, "threshold": None,
             "func": cli.cmd_simulate},
        ),
        "hypothesis": (
            ["hypothesis"],
            [["--f-qm", "0.9"], ["--f-cla", "0.7"], ["--f-crit", "0.8"], ["--sigma", "0.3"],
             ["--n", "60,600"]],
            {"command": "hypothesis", "n": [60, 600], "f_qm": 0.9, "f_cla": 0.7, "f_crit": 0.8,
             "sigma": 0.3, "func": cli.cmd_hypothesis},
        ),
        "lln": (
            ["lln"], [["--scenario", "trine"], ["--n", "60,600"]],
            {"command": "lln", "n": [60, 600], **SAMPLING, "func": cli.cmd_lln},
        ),
        "ensemble-validate": (
            ["ensemble", "validate"], [["ensemble.json"]],
            {"command": "ensemble", "ensemble_command": "validate", "file": "ensemble.json",
             "func": cli.cmd_ensemble_validate},
        ),
    }

    @pytest.mark.parametrize("verb", list(VERBS))
    def test_minimal_request(self, capsys, verb):
        words, required, dests = self.VERBS[verb]
        args = vars(cli.build_parser().parse_args(words + sum(required, [])))
        if ["--scenario", "trine"] in required:
            assert args.pop("scenario") is scenarios.builtin_scenario("trine")
        assert args == {**dests, "format": "table", "out": None}
        for left_out in required:
            rest = sum((group for group in required if group is not left_out), [])
            with pytest.raises(SystemExit) as usage:
                cli.build_parser().parse_args(words + rest)
            assert usage.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("first", ["scenario", "out"])
    @pytest.mark.parametrize("verb", ["bounds", "simulate", "lln"])
    def test_the_first_of_two_bad_values_is_refused(self, capsys, verb, first):
        bad = {"scenario": ["--scenario", "nope"], "out": ["--out", ""]}
        second = "out" if first == "scenario" else "scenario"
        got, out, err = run_cli(capsys, [verb, *bad[first], *bad[second], "--n", "12"])
        assert out == ""
        if first == "scenario":
            assert got == cli.EXIT_VALIDATION
            assert err.splitlines() == [
                "validation error: unknown scenario 'nope'; choose from "
                + ", ".join(scenarios.BUILTIN_CONSTRUCTORS)
            ]
        else:
            assert got == cli.EXIT_IO
            assert err.splitlines() == [
                "i/o error: --out must name a file in an existing directory, got ''"
            ]


class TestRepeatedRequests:
    """Requests in one process share a parser that carries nothing over."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_parser_is_not_built_at_import(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = "import telecert.cli as c; print(c.build_parser.cache_info().currsize)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    def test_warm_products_repeat_the_document_byte_for_byte(self, capsys, tmp_path, cold_products):
        argv = ["simulate", "--scenario", "qutrit-mubs", "--n", "600", "--trials", "3000",
                "--seed", "7", "--format", "records", "--out"]
        texts = []
        for name in ("cold.json", "warm.json"):
            assert run_cli(capsys, argv + [str(tmp_path / name)])[0] == 0
            assert cold_products.cache_info().currsize > 0
            lines = (tmp_path / name).read_bytes().splitlines(keepends=True)
            texts.append(b"".join(line for line in lines if not line.lstrip().startswith(b'"timestamp"')))
        assert texts[0] == texts[1]
        assert b'"exact_exceedance": null' not in texts[0]

    def test_documents_repeat_across_other_requests(self, capsys, tmp_path):
        argv = SIMULATE + ["--seed", "7", "--format", "records", "--out"]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert run_cli(capsys, argv + [str(first)])[0] == 0
        with pytest.raises(SystemExit) as usage:
            cli.main(["simulate", "--scenario", "qutrit-mubs", "--threshold", "0.9", "--n", "x"])
        assert usage.value.code == 2
        assert run_cli(capsys, ["simulate", "--scenario", "nope", "--n", "12"])[0] == 2
        with pytest.raises(SystemExit) as version:
            cli.main(["--version"])
        assert version.value.code == 0
        assert run_cli(capsys, LLN + ["--seed", "3"])[0] == 0
        assert run_cli(capsys, argv + [str(second)])[0] == 0
        docs = [load_records(p) for p in (first, second)]
        for doc in docs:
            doc["manifest"].pop("timestamp")
        assert docs[0] == docs[1]


class TestSeedEnvironment:
    """An invalid TELECERT_SEED matters only where it would be the seed."""

    @pytest.fixture(autouse=True)
    def bad_seed(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")

    @pytest.mark.parametrize(
        "argv",
        [["scenarios"], BOUNDS, HYPOTHESIS + ["--sigma", "0.3", "--n", "12"], SIMULATE + ["--seed", "5"]],
    )
    def test_unused_by_the_verb(self, capsys, argv):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out != ""

    @pytest.mark.parametrize("argv", [SIMULATE, LLN])
    def test_rejected_when_it_is_the_seed(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert "validation error: TELECERT_SEED must be an integer, got 'abc'" in err

    @pytest.mark.parametrize("raw", ["-1", str(2**64)])
    @pytest.mark.parametrize("argv", [SIMULATE, LLN])
    def test_out_of_range_is_refused_under_its_own_name(self, monkeypatch, capsys, argv, raw):
        monkeypatch.setenv(cli.SEED_ENV_VAR, raw)
        code, out, err = run_cli(capsys, argv)
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err == f"validation error: TELECERT_SEED must lie in [0, 2**64), got {raw}\n"
        # and it is still read only where it would be the seed
        assert run_cli(capsys, argv + ["--seed", "5"])[0] == 0


class TestManifest:
    #: The manifest's fields in the order every document writes them.
    KEYS = ["command", "parameters", "artifact_version", "seed", "timestamp",
            "python", "numpy", "platform", "bit_generator", "sampler"]

    def test_key_order(self, capsys, tmp_path):
        texts = {}
        for fmt in ("records", "csv", "table"):
            path = tmp_path / f"sim.{fmt}"
            assert run_cli(capsys, SIMULATE + ["--format", fmt, "--out", str(path)])[0] == 0
            texts[fmt] = path.read_text(encoding="utf-8")
        manifest = json.loads(texts["records"])["manifest"]
        assert list(manifest) == self.KEYS
        for fmt in ("csv", "table"):
            comments = [ln[2:] for ln in texts[fmt].splitlines() if ln.startswith("# ")]
            names = [ln.split(":", 1)[0].split(" ", 1)[0] for ln in comments]
            assert names == [k for k in self.KEYS if k != "parameters"] + ["parameter"] * len(
                manifest["parameters"]
            )

    def test_records_sampler_and_platform(self, capsys, tmp_path):
        path = tmp_path / "sim.json"
        assert run_cli(capsys, SIMULATE + ["--format", "records", "--out", str(path)])[0] == 0
        manifest = load_records(path)["manifest"]
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["platform"] == platform.platform()
        assert manifest["bit_generator"] == "Philox"
        assert manifest["sampler"] == simulator.SAMPLER
        assert "workers" not in manifest

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_comment_lines(self, capsys, tmp_path, fmt):
        path = tmp_path / f"bounds.{fmt}"
        assert run_cli(capsys, BOUNDS + ["--format", fmt, "--out", str(path)])[0] == 0
        comments = [ln for ln in path.read_text().splitlines() if ln.startswith("#")]
        for line in (
            f"# python: {platform.python_version()}",
            f"# numpy: {np.__version__}",
            f"# platform: {platform.platform()}",
            "# bit_generator: Philox",
            f"# sampler: {simulator.SAMPLER}",
        ):
            assert line in comments

    def test_lln_records_name_the_histogram_sampler(self, capsys, tmp_path):
        path = tmp_path / "lln.json"
        assert run_cli(capsys, LLN + ["--format", "records", "--out", str(path)])[0] == 0
        assert load_records(path)["manifest"]["sampler"] == simulator.HISTOGRAM_SAMPLER
        assert simulator.HISTOGRAM_SAMPLER != simulator.SAMPLER

    def test_lln_csv_names_the_histogram_sampler(self, capsys, tmp_path):
        path = tmp_path / "lln.csv"
        assert run_cli(capsys, LLN + ["--format", "csv", "--out", str(path)])[0] == 0
        comments = [ln for ln in path.read_text().splitlines() if ln.startswith("#")]
        assert f"# sampler: {simulator.HISTOGRAM_SAMPLER}" in comments
        assert f"# sampler: {simulator.SAMPLER}" not in comments


class TestRecordsBytes:
    """Every verb's records document is byte for byte ``json.dumps(doc, indent=2)``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenarios"],
            BOUNDS + ["--n", "12,120,1200"],
            SIMULATE,
            ["simulate", "--scenario", "qutrit-mubs", "--n", "600", "--trials", "3000", "--seed", "7"],
            SIMULATE + ["--threshold", "0.5"],  # no bound: a note instead
            ["simulate", "--scenario", "helstrom", "--n", "4472", "--trials", "100"],  # no exact value
            HYPOTHESIS + ["--sigma", "0.3", "--n", "10,100"],
            LLN + ["--n", "60,129,279,600,1293,2787,6000"],
            LLN,  # one point: no slope
            ["ensemble", "validate"],
        ],
        ids=["scenarios", "bounds", "simulate", "simulate-qutrit", "simulate-no-bound",
             "simulate-no-exact", "hypothesis", "lln", "lln-one-point", "ensemble-validate"],
    )
    def test_records_are_json_dumps_indent_2(self, capsys, tmp_path, argv):
        if argv[0] == "ensemble":
            path = tmp_path / "ensemble.json"
            doc = {"dim": 2, "states": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "priors": [0.25, 0.75],
                   "name": "paar-é-中-😀"}
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv = argv + [str(path)]
        code, out, _ = run_cli(capsys, argv + ["--format", "records"])
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestEnsembleValidate:
    def _write(self, tmp_path, doc):
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"dim": 2, "states": [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}, "finite"),
            ({"dim": 2, "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, -math.inf]]]}, "finite"),
            ({"dim": 2, "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
              "priors": [math.nan, 0.5]}, "finite"),
            ({"dim": True, "states": [[[1.0, 0.0]], [[0.0, 1.0]]]}, "dim"),
            ({"dim": 1, "states": [[[True, 0]], [[0.0, 1.0]]]}, "finite numbers"),
            ({"dim": 1, "states": [[[1.0, 0.0]], [[0.0, 1.0]]], "priors": [True, False]}, "priors"),
            ({"dim": 10**12, "states": [[[1.0, 0.0]], [[0.0, 1.0]]]}, "amplitude pairs"),
        ],
        ids=["nan-amplitude", "inf-amplitude", "nan-prior", "bool-dim", "bool-amplitude",
             "bool-priors", "absurd-dim"],
    )
    def test_rejected_with_exit_2_and_empty_stdout(self, capsys, tmp_path, doc, message):
        code, out, err = run_cli(capsys, ["ensemble", "validate", self._write(tmp_path, doc)])
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err.startswith("validation error: ") and message in err

    def test_valid_document(self, capsys, tmp_path):
        path = self._write(
            tmp_path,
            {
                "dim": 2,
                "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "name": "basis",
            },
        )
        code, out, _ = run_cli(capsys, ["ensemble", "validate", path])
        assert code == 0
        assert "valid" in out and "yes" in out

    def test_unnormalized_state(self, capsys, tmp_path):
        path = self._write(
            tmp_path,
            {"dim": 2, "states": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
        )
        code, _, err = run_cli(capsys, ["ensemble", "validate", path])
        assert code == cli.EXIT_VALIDATION
        assert "norm" in err

    def test_bad_priors(self, capsys, tmp_path):
        path = self._write(
            tmp_path,
            {
                "dim": 2,
                "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "priors": [0.6, 0.6],
            },
        )
        code, _, err = run_cli(capsys, ["ensemble", "validate", path])
        assert code == cli.EXIT_VALIDATION
        assert "sum" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["ensemble", "validate", str(tmp_path / "missing.json")]
        )
        assert code == cli.EXIT_IO
        assert "i/o error" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        code, _, err = run_cli(capsys, ["ensemble", "validate", str(path)])
        assert code == cli.EXIT_VALIDATION
        assert "JSON" in err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[" * 200_000, "validation error: document nests too deeply: "),
            ('{"dim":2,"states":[[[1e200,0],[0,0]],[[0,0],[1,0]]]}',
             "validation error: state 0 has norm inf, expected 1 within 1e-06\n"),
        ],
        ids=["deep-nesting", "huge-amplitude"],
    )
    def test_refused_with_one_line_on_stderr(self, capsys, tmp_path, text, message):
        path = tmp_path / "ensemble.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, ["ensemble", "validate", str(path)])
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1 and err.endswith("\n")


def _columns(lines):
    """Cells of a ``reporting.format_table`` rendering, split at its dash line."""
    header, dashes, *body = lines
    starts = [0]
    for dash in dashes.split("  ")[:-1]:
        starts.append(starts[-1] + len(dash) + 2)
    bounds = list(zip(starts, starts[1:] + [None]))
    return [[line[a:b].rstrip() for a, b in bounds] for line in [header, *body]]


def _record_rows(argv, doc):
    """The rows a records document holds, keyed by the table's headers."""
    if argv[0] == "ensemble":
        return [{"field": k, "value": v} for k, v in doc.items() if k != "manifest"]
    if argv[0] != "simulate":
        return doc["rows"]
    report, bound = doc["report"], doc["bound"] or {}
    row = {"scenario": doc["manifest"]["parameters"]["scenario"]}
    for name in ("n_runs", "n_trials", "seed", "threshold", "mean_fidelity",
                 "exceedance_count", "exceedance_frequency"):
        row[name] = report[name]
    row["exact_exceedance"] = doc["exact_exceedance"]
    row["log10_bound"] = bound.get("log10_bound")
    row["bound"] = bound.get("bound")
    if doc["bound_note"]:
        row["bound_note"] = doc["bound_note"]
    return [row]


class TestCrossFormat:
    """The table, csv and records renderings of one request agree cell for cell."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenarios"],
            BOUNDS[:-1] + ["12,120,1200"],
            SIMULATE + ["--seed", "4"],
            SIMULATE + ["--threshold", "0.5"],  # no bound: a note instead
            ["simulate", "--scenario", "helstrom", "--n", "4472", "--trials", "100"],
            HYPOTHESIS + ["--sigma", "0.3", "--n", "10,100"],
            LLN + ["--n", "60,129,279", "--seed", "3"],
            ["ensemble", "validate"],
        ],
        ids=["scenarios", "bounds", "simulate", "simulate-no-bound", "simulate-no-exact",
             "hypothesis", "lln", "ensemble-validate"],
    )
    def test_cells_and_manifest_agree(self, capsys, tmp_path, argv):
        if argv[0] == "ensemble":
            path = tmp_path / "ensemble.json"
            doc = {"dim": 2, "states": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                   "priors": [0.25, 0.75], "name": "paar-é-中"}
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv = argv + [str(path)]
        texts = {}
        for fmt in ("table", "csv", "records"):
            out_path = tmp_path / f"doc.{fmt}"
            code, out, _ = run_cli(capsys, argv + ["--format", fmt, "--out", str(out_path)])
            assert code == 0
            texts[fmt] = out_path.read_text(encoding="utf-8")
        assert out == run_cli(capsys, argv)[1]  # stdout does not depend on --out
        records = json.loads(texts["records"])
        rows = _record_rows(argv, records)
        expected = [list(rows[0])] + [[reporting.fmt(v) for v in row.values()] for row in rows]

        if argv[0] == "simulate":  # stdout shows the one row as key/value pairs
            width = max(map(len, rows[0]))
            pairs = [[line[:width].rstrip(), line[width + 2:]] for line in out.splitlines()]
            assert pairs == [list(cells) for cells in zip(*expected)]
        else:
            assert _columns(out.splitlines()) == expected
        tables = {}
        for fmt in ("table", "csv"):
            lines = texts[fmt].splitlines()
            tables[fmt] = [ln for ln in lines if not ln.startswith("# ")]
            comments = [ln for ln in lines if ln.startswith("# ") and "# timestamp: " not in ln]
            manifest = dict(records["manifest"])
            parameters = manifest.pop("parameters")
            del manifest["timestamp"]
            assert comments == (
                [f"# {key}: {reporting.fmt(value)}" for key, value in manifest.items()]
                + [f"# parameter {key}: {reporting.fmt(value)}" for key, value in parameters.items()]
            )
        assert _columns(tables["table"]) == expected
        assert list(csv.reader(tables["csv"])) == expected
