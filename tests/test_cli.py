import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from normtest import cli, nulldist, samplers
from normtest.cli import build_parser, main
from normtest.nulldist import limit_quantile
from conftest import make_rng

IRIS = pathlib.Path(__file__).parent / "data" / "iris.csv"
ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _write_normal_csv(path, n=60, d=2, seed=1):
    np.savetxt(path, make_rng(seed).standard_normal((n, d)), delimiter=",")
    return str(path)


class TestTestCommand:
    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "test",
                "--input", str(IRIS), "--header",
                "--a", "0.5",
                "--reps", "400",
                "--seed", "7",
                "--format", "json",
                "--output", str(out),
                "--workers", "1",
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())[0]
        assert report["n"] == 150 and report["d"] == 4 and report["a"] == 0.5
        assert 0.0 < report["p_value"] <= 1.0
        assert report["reject"] == (report["p_value"] <= 0.05)
        stdout = capsys.readouterr().out
        assert json.loads(stdout) == [report]

    def test_rerun_byte_identical(self, tmp_path):
        data = _write_normal_csv(tmp_path / "x.csv")
        outs = []
        for run in (1, 2):
            out = tmp_path / f"r{run}.json"
            main(
                ["test", "--input", data, "--a", "1.0", "--reps", "300",
                 "--seed", "3", "--format", "json", "--output", str(out), "--workers", "2"]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_one_draw_for_every_a(self, monkeypatch, capsys):
        # R draws for three a, not 3R, and one progress line; each row is its a run alone
        draws = []
        monkeypatch.setattr(nulldist, "_draw", lambda *args: draws.append(1) or samplers._draw(*args))
        argv = ["test", "--input", str(IRIS), "--header", "--reps", "50", "--seed", "4", "--workers", "1",
                "--format", "json"]
        assert main([*argv, "--a", "0.25", "--a", "1", "--a", "10"]) == 0
        out, err = capsys.readouterr()
        assert len(draws) == 50
        assert [line for line in err.splitlines() if "simulating null" in line] == [
            "simulating null for a=0.25, 1, 10 (50 replications)"
        ]
        alone = []
        for a in ("0.25", "1", "10"):
            assert main([*argv, "--a", a]) == 0
            alone += json.loads(capsys.readouterr().out)
        assert json.loads(out) == alone

    def test_several_a_checkpoint_in_one_file(self, tmp_path, capsys):
        chk = tmp_path / "state"
        argv = ["test", "--input", str(IRIS), "--header", "--a", "0.5", "--a", "2", "--reps", "60",
                "--workers", "1", "--checkpoint", str(chk)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert len(list(chk.iterdir())) == 1
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out == first and err.count("resumed 60/60 replications") == 1

    def test_table_format_prints_aligned(self, tmp_path, capsys):
        data = _write_normal_csv(tmp_path / "x.csv", n=30, d=1)
        main(["test", "--input", data, "--a", "0.5", "--reps", "100", "--workers", "1"])
        out = capsys.readouterr().out
        assert "p_value" in out and "statistic" in out

    def test_table_prints_small_and_huge_floats_in_exponent_form(self):
        values = (1e-5, 1 / 100001, 5e-5, 1.0329754167015873e-4, 1e-3, 0.0, 0.5, 999999.9, 1e200)
        text = cli._render_rows("table", [{"x": v} for v in values])
        assert text.split() == ["x", "1.0000e-05", "9.9999e-06", "5.0000e-05", "1.0330e-04", "0.0010", "0.0000",
                                "0.5000", "999999.9000", "1.0000e+200"]

    @pytest.mark.parametrize("command", [
        ["test", "--input", str(IRIS), "--header", "--a", "1", "--reps", "3000"],
        ["crit-table", "--d", "2", "--n", "20", "--a", "1", "--reps", "3000"],
    ], ids=["test", "crit-table"])
    def test_output_into_a_missing_directory_refused_first(self, tmp_path, capsys, command):
        # refused before the simulation, not after it
        target = tmp_path / "missing" / "x.json"
        assert main([*command, "--workers", "1", "--output", str(target)]) == 1
        assert capsys.readouterr() == (
            "", f"error: --output {target}: directory {target.parent} does not exist\n"
        )

    def test_missing_file_errors(self, capsys):
        assert main(["test", "--input", "/nonexistent.csv", "--a", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text,flags", [("", []), ("x\n", ["--header"])], ids=["empty", "header-only"])
    def test_file_without_data_is_one_error_line(self, tmp_path, capsys, text, flags):
        # refused by name, with no numpy warning before it
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["test", "--input", str(path), *flags, "--a", "1", "--workers", "1"]) == 1
        assert capsys.readouterr() == ("", f"error: {path} holds no data rows\n")

    @pytest.mark.parametrize("command", [["test", "--a", "1"], ["power", "--alt", "std", "--n", "20", "--a", "1"]])
    def test_negative_seed_refused_before_simulating(self, tmp_path, capsys, command):
        data = ["--input", _write_normal_csv(tmp_path / "x.csv", n=30)] if command[0] == "test" else []
        with pytest.raises(SystemExit) as exit_:
            main([*command, *data, "--seed", "-3"])
        err = capsys.readouterr().err
        assert exit_.value.code == 2 and "--seed" in err and "simulating" not in err

    def test_negative_workers_refused_before_simulating(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["test", "--input", str(IRIS), "--header", "--a", "1", "--reps", "50", "--workers", "-3"])
        err = capsys.readouterr().err
        assert exit_.value.code == 2 and "--workers: must be a non-negative integer" in err
        assert "simulating" not in err


class TestCritTable:
    def test_json_round_trip_and_rerun(self, tmp_path):
        out = tmp_path / "table.json"
        args = [
            "crit-table", "--d", "1", "--n", "15", "--a", "1.0", "--a", "2.0",
            "--reps", "500", "--seed", "11", "--format", "json", "--output", str(out),
            "--workers", "2",
        ]
        assert main(args) == 0
        first = out.read_bytes()
        obj = json.loads(first)
        assert [e["a"] for e in obj] == [1.0, 2.0]
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_inf_rows_via_limit_sampler(self, tmp_path, capsys):
        # an n = inf row is the exact limit law's quantile, whatever the seed
        out = tmp_path / "table.csv"
        code = main(
            ["crit-table", "--d", "1", "--n", "inf", "--a", "1.0", "--seed", "7", "--format", "csv",
             "--output", str(out), "--workers", "1"]
        )
        assert code == 0
        q = limit_quantile(1, 1.0, 0.05)
        assert out.read_text().splitlines() == [
            "d,n,a,alpha,quantile,replications,seed",
            f"1,inf,1.0,0.05,{q!r},0,7",
        ]

    def test_inf_row_where_one_eigenvalue_dominates(self, capsys):
        # d = 1 at large a: the exact law is served, one row
        assert main(["crit-table", "--d", "1", "--n", "inf", "--a", "1000", "--format", "csv"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "d,n,a,alpha,quantile,replications,seed" and len(rows) == 1

    def test_progress_line_keeps_a_small_quantile(self, monkeypatch, capsys):
        # the stderr line formats the quantile as the table row does
        monkeypatch.setattr(cli, "limit_quantile", lambda d, a, alpha: 1.033e-4)
        assert main(["crit-table", "--d", "1", "--n", "inf", "--a", "1"]) == 0
        assert capsys.readouterr().err == "d=1 n=inf a=1: quantile 1.0330e-04\n"

    def test_inf_row_reports_the_sampler_draws(self, monkeypatch, capsys):
        # an n = inf row simulates nothing: it reports 0 replications, and --reps plays no part in it
        monkeypatch.setattr(cli, "limit_quantile", lambda d, a, alpha: 1.5)
        argv = ["crit-table", "--d", "1", "--n", "12", "--n", "inf", "--a", "1", "--reps", "500", "--workers", "1",
                "--format", "csv"]
        assert main(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(n, reps) for _d, n, _a, _alpha, _q, reps, _seed in rows] == [("12", "500"), ("inf", "0")]

    def test_rows_in_flag_order_with_every_column(self, capsys):
        argv = ["crit-table", "--d", "2", "--d", "1", "--n", "20", "--n", "12", "--a", "1", "--reps", "100",
                "--seed", "3", "--workers", "1", "--format"]
        assert main([*argv, "csv"]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[:2] for line in lines] == [["2", "20"], ["2", "12"], ["1", "20"], ["1", "12"]]
        assert main([*argv, "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [list(row) for row in rows] == [sorted(header.split(","))] * 4
        assert [[str(row[k]) for k in header.split(",")] for row in rows] == [line.split(",") for line in lines]
        assert main([*argv, "table"]) == 0
        assert capsys.readouterr().out.split("\n")[0].split() == header.split(",")

    def test_alpha_beyond_the_inversion_refused_before_any_simulation(self, capsys):
        # one line naming the floor, before the n = 20 cell's progress line
        argv = ["crit-table", "--d", "1", "--n", "20", "--n", "inf", "--a", "1", "--alpha", "1e-12", "--workers", "1"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: alpha=1e-12 is beyond the limit law's inversion: alpha and "
                                           "1 - alpha must be at least 1e-07, 1e3 times its CDF tolerance 1e-10\n")

    def test_inf_row_defaults_its_limit_flags(self, monkeypatch):
        # an n = inf row asks the limit law for its cell and --alpha, and for nothing else
        calls = []
        monkeypatch.setattr(cli, "limit_quantile", lambda *args, **kwargs: calls.append((args, kwargs)) or 1.0)
        assert main(["crit-table", "--d", "1", "--n", "inf", "--a", "1", "--alpha", "0.1", "--format", "json"]) == 0
        assert calls == [((1, 1.0, 0.1), {})]

    def test_json_text_of_one_row(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "limit_quantile", lambda d, a, alpha: 0.625)
        assert main(["crit-table", "--d", "2", "--n", "inf", "--a", "3", "--seed", "5", "--format", "json"]) == 0
        assert capsys.readouterr().out == (
            '[\n'
            '  {\n'
            '    "a": 3.0,\n'
            '    "alpha": 0.05,\n'
            '    "d": 2,\n'
            '    "n": "inf",\n'
            '    "quantile": 0.625,\n'
            '    "replications": 0,\n'
            '    "seed": 5\n'
            '  }\n'
            ']\n'
        )

    def test_checkpoint_directory(self, tmp_path):
        out = tmp_path / "t.json"
        chk = tmp_path / "state"
        args = ["crit-table", "--d", "1", "--n", "14", "--a", "1.0", "--reps", "300",
                "--seed", "6", "--format", "json", "--output", str(out),
                "--checkpoint", str(chk), "--workers", "1"]
        assert main(args) == 0
        first = out.read_bytes()
        assert any(chk.iterdir())  # state file written
        assert main(args) == 0  # rerun resumes from the saved state
        assert out.read_bytes() == first

    def test_invalid_run_config(self, tmp_path):
        data = _write_normal_csv(tmp_path / "x.csv", n=20, d=1)
        assert main(["test", "--input", data, "--a", "1.0", "--reps", "0"]) == 1
        assert main(["test", "--input", data, "--a", "1.0", "--alpha", "1.5"]) == 1

    def test_checkpoint_reuses_cells(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        base = ["crit-table", "--d", "1", "--a", "1.0", "--reps", "400", "--seed", "2", "--format", "json",
                "--output", str(out), "--checkpoint", str(tmp_path / "state"), "--workers", "1"]
        main(base + ["--n", "12"])
        first = json.loads(out.read_text())
        capsys.readouterr()
        main(base + ["--n", "12", "--n", "16"])
        second = json.loads(out.read_text())
        assert len(second) == 2
        e12 = [e for e in second if e["n"] == 12][0]
        assert e12 == first[0]
        assert capsys.readouterr().err.count("resumed 400/400 replications") == 1

    def test_checkpoint_serves_another_alpha_and_format(self, tmp_path, capsys):
        # a checkpoint holds a cell's whole null sample, so any alpha and format reads it
        base = ["crit-table", "--d", "1", "--d", "2", "--n", "12", "--a", "1.0", "--a", "2.0", "--reps", "300",
                "--seed", "4", "--workers", "1"]
        chk = ["--checkpoint", str(tmp_path / "state")]
        assert main(base + chk + ["--format", "json"]) == 0
        capsys.readouterr()
        assert main(base + chk + ["--alpha", "0.1", "--format", "csv"]) == 0
        out, err = capsys.readouterr()
        assert err.count("resumed 300/300 replications") == 4
        assert "\r" not in err  # no replication was simulated
        assert main(base + ["--alpha", "0.1", "--format", "csv"]) == 0
        assert capsys.readouterr().out == out

    def test_damaged_checkpoint_is_recomputed(self, tmp_path, capsys):
        chk = tmp_path / "state"
        args = ["crit-table", "--d", "1", "--n", "20", "--a", "1.0", "--reps", "300", "--seed", "2",
                "--format", "json", "--checkpoint", str(chk), "--workers", "1"]
        assert main(args) == 0
        fresh = capsys.readouterr().out
        [path] = chk.iterdir()
        saved = path.read_bytes()
        for damaged in [saved[:cut] for cut in (0, 1, 30, 300, len(saved) // 2, len(saved) - 1)] + [
            b"PK\x03\x04garbage", b"plain text\n"
        ]:
            path.write_bytes(damaged)
            assert main(args) == 0
            out, err = capsys.readouterr()
            assert out == fresh
            assert err.count("warning:") == 1 and f"warning: cannot read checkpoint {path} (" in err
            assert "resumed" not in err
            assert path.read_bytes() == saved  # recomputed and overwritten


class TestPowerCommand:
    def test_small_study(self, tmp_path):
        out = tmp_path / "power.csv"
        code = main(
            [
                "power", "--alt", "std", "--alt", "uniform",
                "--d", "1", "--n", "20", "--a", "1.0",
                "--competitor", "bhep:1",
                "--alpha", "0.05", "--reps", "400", "--crit-reps", "2000",
                "--seed", "5", "--format", "csv", "--output", str(out), "--workers", "2",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alternative,t:1,bhep:1"
        null_row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert null_row["alternative"] == "std"
        assert 1.0 < float(null_row["t:1"]) < 10.0  # ~5% nominal size
        rerun = tmp_path / "power2.csv"
        main(
            [
                "power", "--alt", "std", "--alt", "uniform",
                "--d", "1", "--n", "20", "--a", "1.0",
                "--competitor", "bhep:1",
                "--alpha", "0.05", "--reps", "400", "--crit-reps", "2000",
                "--seed", "5", "--format", "csv", "--output", str(rerun), "--workers", "1",
            ]
        )
        assert rerun.read_bytes() == out.read_bytes()

    def test_bad_alternative_refused_before_any_simulation(self, capsys):
        code = main(["power", "--alt", "std", "--alt", "t", "--d", "1", "--n", "20", "--a", "1.0",
                     "--reps", "50", "--crit-reps", "200", "--seed", "5", "--workers", "1"])
        err = capsys.readouterr().err
        assert code == 1 and "error:" in err and "critical value" not in err

    @pytest.mark.parametrize("d,n,comp", [(2, 2, "bhep"), (1, 1, "bcmr")])
    def test_too_few_observations_refused_before_any_simulation(self, capsys, d, n, comp):
        code = main(["power", "--alt", "std", "--d", str(d), "--n", str(n), "--competitor", comp,
                     "--reps", "50", "--crit-reps", "200", "--workers", "1"])
        err = capsys.readouterr().err
        assert code == 1 and f"need at least d+1={d + 1} observations, got n={n}" in err
        assert "critical value" not in err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--a", "1.0", "--crit-reps", "0"], "critical-value replications must be >= 1, got 0"),
            (["--competitor", "bcmr:5"], "bcmr takes no tuning, got 5.0"),
            (["--competitor", "hvinf:2"], "hv_inf takes no tuning, got 2.0"),
            ([], "a power study needs at least one column: an a or a competitor"),
            # json keys each row by label, so a repeated one would drop a column
            (["--a", "0.1234567", "--a", "0.1234568", "--competitor", "bhep", "--competitor", "bhep:1",
              "--crit-reps", "50", "--format", "json"],
             "power column t:0.123457 is asked for 2 times: one label per column"),
            # both rows would draw from the one row key (ALT, d, n): the same row twice
            (["--a", "1", "--alt", "nmix(0.1)", "--alt", "nmix(0.1,0)"],
             "alternatives nmix(p=0.1) and nmix(p=0.1,mu=0.0) draw the same law: one row per law"),
            # at d >= 2 the named covariance I and the variance 1 give one Cholesky factor, so one draw
            (["--d", "2", "--a", "1", "--alt", "nmix:p=0.1,sigma=I", "--alt", "nmix:p=0.1,sigma=1"],
             "alternatives nmix(p=0.1,sigma=I) and nmix(p=0.1,sigma=1.0) draw the same law: one row per law"),
        ],
        ids=["crit-reps-0", "bcmr-tuned", "hvinf-tuned", "no-column", "repeated-label", "same-law",
             "same-law-covariance"],
    )
    def test_ignored_input_refused_before_any_simulation(self, capsys, flags, message):
        # the one line on stderr is the error: no critical value was simulated
        code = main(["power", "--alt", "std", "--d", "1", "--n", "20", "--reps", "50", "--workers", "1", *flags])
        assert code == 1 and capsys.readouterr().err == f"error: {message}\n"

    def test_two_covariances_are_two_laws(self, capsys):
        argv = ["power", "--alt", "nmix:p=0.1,sigma=Bd", "--alt", "nmix:p=0.1,sigma=1", "--d", "2", "--n", "20",
                "--a", "1", "--reps", "20", "--crit-reps", "20", "--workers", "1", "--format", "json"]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["alternative"] for row in rows] == ["nmix(p=0.1,sigma=Bd)", "nmix(p=0.1,sigma=1.0)"]

    @pytest.mark.parametrize("comp", ["be", "bcmr"])
    def test_univariate_competitor_refused_at_d2(self, capsys, comp):
        code = main(["power", "--alt", "std", "--d", "2", "--n", "20", "--competitor", comp,
                     "--reps", "50", "--crit-reps", "200", "--workers", "1"])
        assert code == 1 and f"{comp} is univariate" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [("delta-ci", "--seed"), ("delta-ci", "--workers"),
                                          ("validate", "--seed"), ("validate", "--workers"),
                                          ("limit-quantile", "--workers"), ("limit-quantile", "--jitter"),
                                          ("crit-table", "--resume"), ("crit-table", "--m"),
                                          ("crit-table", "--ell")])
def test_unread_flag_refused(tmp_path, capsys, command, flag):
    # a flag the command would ignore is an argparse error (exit code 2)
    data = _write_normal_csv(tmp_path / "x.csv", n=30, d=1)
    argv = {"delta-ci": ["--input", data, "--a", "0.5"],
            "validate": ["--input", data, "--a", "0.5", "--delta0", "0.1"],
            "limit-quantile": ["--d", "1", "--a", "1.0"],
            "crit-table": ["--d", "1", "--n", "12", "--a", "1.0", "--reps", "100"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, flag, "1"])
    assert exc.value.code == 2 and f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["test", "crit-table", "power", "delta-ci", "validate"])
def test_simplex_sample_refused(tmp_path, capsys, command):
    # 3 rows in d = 2 standardize to the same triangle, up to rotation, whatever the data
    data = _write_normal_csv(tmp_path / "x.csv", n=3, d=2)
    argv = {"test": ["--input", data, "--a", "1.0", "--reps", "200", "--workers", "1"],
            "crit-table": ["--d", "2", "--n", "3", "--a", "1.0", "--reps", "200", "--workers", "1"],
            "power": ["--alt", "std", "--d", "2", "--n", "3", "--a", "1.0", "--competitor", "bhep",
                      "--reps", "50", "--crit-reps", "100", "--workers", "1"],
            "delta-ci": ["--input", data, "--a", "0.5"],
            "validate": ["--input", data, "--a", "0.5", "--delta0", "0.1"]}[command]
    code = main([command, *argv])
    assert code == 1 and capsys.readouterr().err == (
        "error: n=3 observations in dimension d=2 standardize to the same points up to rotation, "
        "so every statistic is constant: need n >= d+2=4\n"
    )


class TestDeltaCi:
    def test_json_round_trip(self, tmp_path, capsys):
        data = _write_normal_csv(tmp_path / "x.csv", n=80, d=1, seed=9)
        out = tmp_path / "ci.json"
        code = main(
            ["delta-ci", "--input", data, "--a", "0.5", "--alpha", "0.05",
             "--format", "json", "--output", str(out)]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        est, ci = obj["estimate"], obj["confidence_interval"]
        assert ci["lower"] <= est["delta_hat"] <= ci["upper"]
        assert json.loads(json.dumps(obj, indent=2, sort_keys=True)) == obj

    def test_csv_is_one_row(self, tmp_path, capsys):
        data = _write_normal_csv(tmp_path / "x.csv", n=80, d=1, seed=9)
        argv = ["delta-ci", "--input", data, "--a", "0.5", "--alpha", "0.05", "--format"]
        assert main(argv + ["json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert main(argv + ["csv"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == "delta_hat,sigma_hat,n,d,a,clipped,lower,upper,alpha"
        want = {**obj["estimate"], **obj["confidence_interval"]}
        assert row.split(",") == [str(want[k]) for k in header.split(",")]


class TestValidate:
    def test_exit_codes(self, tmp_path):
        near_normal = _write_normal_csv(tmp_path / "normal.csv", n=500, d=1, seed=13)
        # delta0 well above the tiny estimated distance: reject (= validated)
        assert main(
            ["validate", "--input", near_normal, "--a", "1.0", "--delta0", "0.5",
             "--format", "json"]
        ) == 2
        # uniform data is far from normal: retain against a tiny delta0
        rng = make_rng(14)
        far = tmp_path / "uniform.csv"
        np.savetxt(far, rng.uniform(-np.sqrt(3), np.sqrt(3), size=(400, 1)), delimiter=",")
        assert main(
            ["validate", "--input", str(far), "--a", "0.1", "--delta0", "0.05",
             "--format", "json"]
        ) == 0
        assert main(["validate", "--input", "/missing.csv", "--a", "1", "--delta0", "0.1"]) == 1

    @pytest.mark.parametrize("delta0", ["nan", "inf", "0", "-0.1"])
    def test_bad_delta0_refused(self, tmp_path, capsys, delta0):
        data = _write_normal_csv(tmp_path / "x.csv", n=30, d=1)
        assert main(["validate", "--input", data, "--a", "1", f"--delta0={delta0}"]) == 1
        err = capsys.readouterr().err
        assert "delta0 must be a positive finite real" in err


class TestLimitQuantileCommand:
    def test_runs_small(self, tmp_path):
        out = tmp_path / "lq.csv"
        code = main(["limit-quantile", "--d", "1", "--a", "1.0", "--format", "csv", "--output", str(out)])
        assert code == 0
        header, row = out.read_text().splitlines()
        assert header == "d,a,alpha,quantile"
        assert float(row.split(",")[-1]) == pytest.approx(1.760102, abs=1e-6)

    def test_sampler_flags_are_parsed_and_ignored(self, capsys):
        # the benchmark still passes them; the exact law reads none of them
        argv = ["limit-quantile", "--d", "2", "--a", "3", "--format", "json"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--m", "200", "--ell", "2000", "--seed", "32"]) == 0
        assert capsys.readouterr().out == plain
        assert json.loads(plain)[0]["quantile"] == pytest.approx(0.598870, abs=1e-6)
        with pytest.raises(SystemExit):
            main(["limit-quantile", "--help"])
        assert re.search(r"--(m|ell|seed)\b", capsys.readouterr().out) is None

    def test_progress_line_keeps_a_small_quantile(self, capsys):
        # the stderr line formats the quantile as the table row does, not as 0.0001
        assert main(["limit-quantile", "--d", "5", "--a", "3e4"]) == 0
        out, err = capsys.readouterr()
        assert err == "d=5 a=30000: limit quantile 1.0330e-04\n"
        assert out.splitlines()[1].split()[-1] == "1.0330e-04"

    def test_unresolved_law_is_one_error_line(self, capsys):
        # at a = 1e-80 the kernel overflows: one refusal naming the cell, no numpy warning
        assert main(["limit-quantile", "--d", "3", "--a", "1e-80"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: the limit law at d=3, a=1e-80 ")
        assert "trace error nan" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["limit-quantile", "--d", "0", "--a", "1.0"],
        ["limit-quantile", "--d", "1", "--d", "0", "--a", "1.0"],
        ["crit-table", "--d", "0", "--n", "inf", "--a", "1.0"],
        ["crit-table", "--d", "1", "--d", "0", "--n", "10", "--a", "1.0", "--reps", "50", "--workers", "1"],
        ["power", "--alt", "std", "--d", "0", "--n", "10", "--a", "1.0", "--reps", "50", "--workers", "1"],
    ],
    ids=["limit-quantile", "limit-quantile-second-d", "crit-table-inf", "crit-table-second-d", "power"],
)
def test_zero_dimension_refused_before_any_simulation(capsys, argv):
    # one message, before the progress line of any cell
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: need dimension d >= 1, got d=0\n"


def _never(*args, **kwargs):
    raise AssertionError("the O(n^2) estimate ran before the input was checked")


_SECOND_A = "tuning parameter a must be a positive finite real, got -1.0"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["crit-table", "--d", "1", "--n", "10", "--a", "1", "--a", "-1", "--reps", "200", "--workers", "1"],
         _SECOND_A),
        (["limit-quantile", "--d", "1", "--a", "1", "--a", "-1"], _SECOND_A),
        (["test", "--input", str(IRIS), "--header", "--a", "1", "--a", "-1", "--reps", "200", "--workers", "1"],
         _SECOND_A),
        (["power", "--alt", "std", "--d", "2", "--n", "20", "--a", "1", "--competitor", "be", "--reps", "50",
          "--workers", "1"], "be is univariate"),
        (["power", "--alt", "std", "--alt", "t:nu=3", "--d", "2", "--n", "20", "--a", "1", "--a", "2",
          "--competitor", "bhep", "--reps", "50", "--crit-reps", "200", "--workers", "1"],
         "t is univariate; use prod:t(nu=3.0) for d=2"),
        (["power", "--alt", "std", "--d", "2", "--n", "20", "--a", "1", "--competitor", "bhep:abc", "--reps", "50",
          "--workers", "1"], "bhep requires a finite a > 0, got 'abc'"),
        (["delta-ci", "--input", str(IRIS), "--header", "--a", "0.5", "--alpha", "2"], "alpha must be in (0, 1)"),
        (["validate", "--input", str(IRIS), "--header", "--a", "0.5", "--delta0", "-1"],
         "delta0 must be a positive finite real, got -1.0"),
        (["power", "--alt", "nmix:p=0.1,sigma=I", "--d", "1", "--n", "20", "--a", "1", "--reps", "50",
          "--crit-reps", "100", "--workers", "1"], "nmix sigma=I is a matrix, for d >= 2; give a variance at d = 1"),
        # a repeated value would run the same cell again and print the same row twice
        (["test", "--input", str(IRIS), "--header", "--a", "1", "--a", "1.0", "--reps", "20", "--workers", "1"],
         "--a 1 is given 2 times: one row per value"),
        (["limit-quantile", "--d", "1", "--a", "1", "--a", "1"],
         "--a 1 is given 2 times: one row per value"),
        (["limit-quantile", "--d", "1", "--d", "1", "--a", "1"],
         "--d 1 is given 2 times: one row per value"),
        (["crit-table", "--d", "1", "--d", "1", "--n", "12", "--a", "1", "--reps", "20", "--workers", "1"],
         "--d 1 is given 2 times: one row per value"),
        (["crit-table", "--d", "1", "--n", "12", "--n", "12", "--a", "1", "--reps", "20", "--workers", "1"],
         "--n 12 is given 2 times: one row per value"),
        (["crit-table", "--d", "1", "--n", "inf", "--n", "inf", "--a", "1"],
         "--n inf is given 2 times: one row per value"),
        (["crit-table", "--d", "1", "--n", "12", "--a", "1", "--a", "1.0", "--reps", "20", "--workers", "1"],
         "--a 1 is given 2 times: one row per value"),
        # z at 1 - alpha/2 (delta-ci) or 1 - alpha (validate) is infinite where that p rounds to 1
        (["delta-ci", "--input", str(IRIS), "--header", "--a", "1", "--alpha", "1e-17", "--format", "json"],
         "--alpha 1e-17 is too small: 1 - 5e-18 rounds to 1, where z is infinite"),
        (["validate", "--input", str(IRIS), "--header", "--a", "1", "--delta0", "0.5", "--alpha", "1e-17",
          "--format", "json"], "--alpha 1e-17 is too small: 1 - 1e-17 rounds to 1, where z is infinite"),
    ],
    ids=["crit-table-second-a", "limit-quantile-second-a", "test-second-a", "power-univariate-competitor",
         "power-univariate-alternative", "power-non-numeric-tuning", "delta-ci-alpha",
         "validate-delta0", "power-nmix-matrix-sigma-at-d1", "test-repeated-a", "limit-quantile-repeated-a",
         "limit-quantile-repeated-d", "crit-table-repeated-d", "crit-table-repeated-n", "crit-table-repeated-inf",
         "crit-table-repeated-a", "delta-ci-tiny-alpha", "validate-tiny-alpha"],
)
def test_late_input_refused_before_any_simulation(capsys, monkeypatch, argv, message):
    # stderr holds the error alone: no progress, critical-value or quantile line came before it
    monkeypatch.setattr(cli, "delta_estimate", _never)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _setosa(tmp_path):
    """The 50 setosa rows of the iris data (d = 4), with the header."""
    path = tmp_path / "setosa.csv"
    path.write_text("".join(IRIS.read_text().splitlines(keepends=True)[:51]))
    return str(path)


_T_RANGE = "takes the constants of T out of the float range at d=4"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["test", "--a", "1e100", "--reps", "50", "--workers", "1"], f"a=1e+100 {_T_RANGE}"),
        (["test", "--a", "1e-200", "--reps", "50", "--workers", "1"], f"a=1e-200 {_T_RANGE}"),
        (["test", "--a", "1e-100", "--a", "1e-200", "--reps", "50", "--workers", "1"], f"a=1e-200 {_T_RANGE}"),
        (["crit-table", "--d", "4", "--n", "20", "--a", "1e100", "--reps", "50", "--workers", "1"],
         f"a=1e+100 {_T_RANGE}"),
        (["power", "--d", "4", "--n", "20", "--alt", "std", "--a", "1", "--a", "1e100", "--reps", "50",
          "--workers", "1"], f"a=1e+100 {_T_RANGE}"),
        (["delta-ci", "--a", "1e-100"], "a=1e-100 takes sigma_hat^2 out of the float range at n=50, d=4"),
        (["validate", "--a", "1e62", "--delta0", "0.1"],
         "a=1e+62 takes sigma_hat^2 out of the float range at n=50, d=4"),
    ],
    ids=["test-large-a", "test-small-a", "test-second-a", "crit-table", "power-second-a", "delta-ci", "validate"],
)
def test_out_of_range_tuning_refused_before_any_simulation(tmp_path, capsys, argv, message):
    # one error line and no output: no traceback, no progress line, no inf
    if argv[0] in ("test", "delta-ci", "validate"):
        argv = [argv[0], "--input", _setosa(tmp_path), "--header", *argv[1:]]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


# numpy warns as it computes the nan replicates; the error line comes last
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_tuning_out_of_range_in_a_competitor_gives_no_power(capsys):
    # bhep:1e160 is nan on every replicate: its critical value is refused, not a 0% power
    code = main(["power", "--alt", "std", "--d", "2", "--n", "20", "--competitor", "bhep:1e160", "--reps", "50",
                 "--workers", "1"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == "error: 50 of 50 replicates are nan; a critical value needs all of them"


@pytest.mark.parametrize("argv", [
    ["crit-table", "--d", "4", "--n", "50", "--a", "1e-153", "--reps", "200"],
    ["power", "--d", "4", "--n", "50", "--a", "1e-153", "--alt", "mt:nu=5", "--reps", "100", "--crit-reps", "200"],
], ids=["crit-table", "power"])
def test_overflowing_null_gives_no_critical_value(capsys, argv):
    # every null replicate is inf at this a: the quantile is refused, not printed as inf or a 0% power
    assert main([*argv, "--workers", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "error: 200 of 200 replicates overflowed; the critical value is inf"


def test_checkpoint_rerun_in_a_fresh_process_resumes(tmp_path):
    data = _write_normal_csv(tmp_path / "x.csv", n=10, d=1)
    chk = tmp_path / "state"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = [
        subprocess.run(
            [sys.executable, "-m", "normtest.cli", "test", "--input", data, "--a", "1", "--reps", "25000",
             "--seed", "2", "--workers", "1", "--checkpoint", str(chk)],
            env=env | {"PYTHONHASHSEED": str(hashseed)}, capture_output=True, text=True, check=True, timeout=120,
        )
        for hashseed in (1, 2)
    ]
    assert runs[1].stdout == runs[0].stdout
    assert "resumed 25000/25000 replications" in runs[1].stderr
    # the engine names the file from the run's description
    assert [re.fullmatch(r"[0-9a-f]{16}\.npz", p.name) is not None for p in chk.iterdir()] == [True]


def _run_python(script: str, *argv: str) -> str:
    """Standard output of ``script`` run in a fresh interpreter on the package in src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Runs each command through cli.main in one process; prints, as json, whether
# scipy was loaded after the import and after each command, with its exit code.
_SCIPY_PROBE = """
import contextlib, io, json, sys
import normtest, normtest.cli
iris = sys.argv[1]
runs = {
    "test": ["test", "--input", iris, "--header", "--a", "1", "--reps", "20"],
    "crit-table": ["crit-table", "--d", "2", "--n", "10", "--a", "1", "--reps", "20"],
    "power": ["power", "--alt", "std", "--d", "2", "--n", "10", "--a", "1", "--competitor", "bhep",
              "--competitor", "hv", "--competitor", "hjg", "--competitor", "hvinf", "--reps", "20"],
    "delta-ci": ["delta-ci", "--input", iris, "--header", "--a", "1"],
    "validate": ["validate", "--input", iris, "--header", "--a", "1", "--delta0", "0.1"],
    "limit-quantile": ["limit-quantile", "--d", "1", "--a", "1", "--m", "20", "--ell", "100"],
    "power-be": ["power", "--alt", "std", "--d", "1", "--n", "10", "--competitor", "be", "--reps", "20"],
}
seen = {"import": [0, "scipy" in sys.modules]}
for name, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = normtest.cli.main(argv + (["--workers", "1"] if "--reps" in argv else []))
    seen[name] = [code, "scipy" in sys.modules]
print(json.dumps(seen))
"""


def test_commands_without_bcmr_or_be_never_load_scipy():
    seen = json.loads(_run_python(_SCIPY_PROBE, str(IRIS)))
    # validate exits 0 or 2 by its verdict; every other command exits 0
    assert {name: loaded for name, (_code, loaded) in seen.items()} == {
        "import": False, "test": False, "crit-table": False, "power": False, "delta-ci": False,
        "validate": False, "limit-quantile": False, "power-be": True,
    }
    assert all(code in ((0, 2) if name == "validate" else (0,)) for name, (code, _loaded) in seen.items())


# Records, when a pool starts, whether the parent has loaded scipy.special and
# numpy.random, and whether bcmr's weights for the cell's n are cached.
_POOL_PROBE = """
import json, sys
from normtest import competitors, nulldist, parallel
n = 30
seen = []

class Recording(parallel.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        hits = competitors._bcmr_weights.cache_info().hits
        loaded = ["scipy.special" in sys.modules, "numpy.random" in sys.modules]
        competitors._bcmr_weights(n)
        seen.append(loaded + [competitors._bcmr_weights.cache_info().hits > hits])
        super().__init__(*args, **kwargs)

parallel.ProcessPoolExecutor = Recording
column = 1.0 if sys.argv[1] == "t" else competitors.CompetitorSpec(sys.argv[1])
nulldist._cell(nulldist._NULL, 1, n, (column,), 200, 0, workers=2)
print(json.dumps(seen))
"""


@pytest.mark.parametrize("kind", ["t", "bcmr", "be"])
def test_pooled_cells_load_what_their_workers_call_in_the_parent(kind):
    # forked workers inherit what the parent loaded, and bcmr's weights for n, instead of each redoing it;
    # T's cell loads no scipy, and every cell draws from numpy.random
    assert json.loads(_run_python(_POOL_PROBE, kind)) == [[kind != "t", True, kind == "bcmr"]]


def _cli_flags() -> set[str]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        flag
        for parser in sub.choices.values()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }


def test_readme_names_every_cli_flag_and_no_other():
    readme = set(re.findall(r"--[a-z][a-z0-9-]*", README.read_text())) - {"--no-build-isolation"}
    cli = _cli_flags()
    assert len(cli) > 10
    assert sorted(cli - readme) == [], "flags the README never mentions"
    assert sorted(readme - cli) == [], "README flags the CLI lacks"
