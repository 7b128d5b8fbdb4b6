import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from normtest import cli
from normtest.cli import build_parser, main
from normtest.nulldist import LimitSamplerConfig, limit_quantile
from normtest.parallel import LIMIT, derive_seed, float_key
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

    def test_workers_env_override_does_not_change_values(self, tmp_path, monkeypatch):
        data = _write_normal_csv(tmp_path / "x.csv")
        out1 = tmp_path / "a.json"
        main(["test", "--input", data, "--a", "1.0", "--reps", "200",
              "--seed", "3", "--format", "json", "--output", str(out1), "--workers", "1"])
        monkeypatch.setenv("NORMTEST_THREADS", "4")
        out2 = tmp_path / "b.json"
        main(["test", "--input", data, "--a", "1.0", "--reps", "200",
              "--seed", "3", "--format", "json", "--output", str(out2), "--workers", "1"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_table_format_prints_aligned(self, tmp_path, capsys):
        data = _write_normal_csv(tmp_path / "x.csv", n=30, d=1)
        main(["test", "--input", data, "--a", "0.5", "--reps", "100", "--workers", "1"])
        out = capsys.readouterr().out
        assert "p_value" in out and "statistic" in out

    def test_missing_file_errors(self, capsys):
        assert main(["test", "--input", "/nonexistent.csv", "--a", "1"]) == 1
        assert "error:" in capsys.readouterr().err

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
        assert {e["a"] for e in obj["entries"]} == {1.0, 2.0}
        # parse -> serialize -> parse fixed point
        from normtest import CriticalValueTable

        table = CriticalValueTable.from_json(first.decode())
        assert CriticalValueTable.from_json(table.to_json()).to_json() == table.to_json()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_inf_rows_via_limit_sampler(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = main(
            ["crit-table", "--d", "1", "--n", "inf", "--a", "1.0", "--m", "80",
             "--ell", "4000", "--format", "csv", "--output", str(out), "--workers", "1"]
        )
        assert code == 0
        seed = derive_seed(0, LIMIT, 1, float_key(1.0))
        q = limit_quantile(1, 1.0, 0.05, LimitSamplerConfig(m=80, ell=4000, seed=seed))
        assert out.read_text().splitlines() == [
            "d,n,a,alpha,quantile,replications,seed",
            f"1,inf,1.0,0.05,{q!r},100000,0",
        ]

    @pytest.mark.parametrize(
        "flags,named", [(["--m", "1"], "--m"), (["--ell", "500"], "--ell"), (["--m", "50", "--ell", "500"], "--m or --ell")]
    )
    def test_limit_flags_refused_without_an_inf_row(self, capsys, flags, named):
        args = ["crit-table", "--d", "1", "--n", "10", "--a", "1", "--reps", "100", "--workers", "1"]
        assert main(args + flags) == 1
        assert capsys.readouterr().err == f"error: nothing reads {named}: no --n inf row was asked for\n"

    def test_inf_row_defaults_its_limit_flags(self, monkeypatch):
        configs = []
        monkeypatch.setattr(cli, "limit_quantile", lambda d, a, alpha, config: configs.append(config) or 1.0)
        assert main(["crit-table", "--d", "1", "--n", "inf", "--a", "1", "--format", "json"]) == 0
        assert [(c.m, c.ell) for c in configs] == [(1000, 100_000)]

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

    def test_resume_reuses_cells(self, tmp_path):
        out = tmp_path / "table.json"
        base = ["crit-table", "--d", "1", "--a", "1.0", "--reps", "400",
                "--seed", "2", "--format", "json", "--output", str(out), "--resume",
                "--workers", "1"]
        main(base + ["--n", "12"])
        first = json.loads(out.read_text())
        main(base + ["--n", "12", "--n", "16"])
        second = json.loads(out.read_text())
        assert len(second["entries"]) == 2
        e12 = [e for e in second["entries"] if e["n"] == 12][0]
        assert e12 == first["entries"][0]

    def test_resume_refuses_other_reps_or_seed(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        base = ["crit-table", "--d", "1", "--a", "1.0", "--format", "json", "--output", str(out),
                "--resume", "--workers", "1"]
        assert main(base + ["--n", "12", "--reps", "200", "--seed", "2"]) == 0
        first = out.read_bytes()
        capsys.readouterr()
        for flags in (["--reps", "300", "--seed", "2"], ["--reps", "200", "--seed", "3"]):
            assert main(base + ["--n", "16"] + flags) == 1
            err = capsys.readouterr().err
            assert "error:" in err and "replications=200, seed=2" in err
            assert f"replications={flags[1]}, seed={flags[3]}" in err
            assert out.read_bytes() == first

    def test_resume_warns_on_unreadable_output(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        base = ["crit-table", "--d", "1", "--a", "1.0", "--n", "12", "--reps", "200",
                "--seed", "2", "--format", "json", "--output", str(out), "--resume",
                "--workers", "1"]
        assert main(base) == 0
        assert "warning" not in capsys.readouterr().err
        out.write_text("{not json")
        assert main(base) == 0
        assert "warning: cannot resume from" in capsys.readouterr().err
        assert len(json.loads(out.read_text())["entries"]) == 1

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_resume_needs_json_format(self, tmp_path, capsys, fmt):
        out = tmp_path / "table.out"
        args = ["crit-table", "--d", "1", "--n", "12", "--a", "1.0", "--reps", "100",
                "--format", fmt, "--output", str(out), "--resume", "--workers", "1"]
        assert main(args) == 1
        # refused before any cell: no progress line precedes the error
        assert capsys.readouterr().err.startswith("error: --resume needs --format json")
        assert not out.exists()

    def test_resume_needs_output(self, capsys):
        args = ["crit-table", "--d", "1", "--n", "12", "--a", "1.0", "--reps", "100",
                "--format", "json", "--resume", "--workers", "1"]
        assert main(args) == 1
        # refused before any cell: no progress line precedes the error
        assert capsys.readouterr().err.startswith("error: --resume needs --output")


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
        ],
        ids=["crit-reps-0", "bcmr-tuned", "hvinf-tuned", "no-column"],
    )
    def test_ignored_input_refused_before_any_simulation(self, capsys, flags, message):
        # the one line on stderr is the error: no critical value was simulated
        code = main(["power", "--alt", "std", "--d", "1", "--n", "20", "--reps", "50", "--workers", "1", *flags])
        assert code == 1 and capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("comp", ["be", "bcmr"])
    def test_univariate_competitor_refused_at_d2(self, capsys, comp):
        code = main(["power", "--alt", "std", "--d", "2", "--n", "20", "--competitor", comp,
                     "--reps", "50", "--crit-reps", "200", "--workers", "1"])
        assert code == 1 and f"{comp} is univariate" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [("delta-ci", "--seed"), ("delta-ci", "--workers"),
                                          ("validate", "--seed"), ("validate", "--workers"),
                                          ("limit-quantile", "--workers"), ("limit-quantile", "--jitter")])
def test_unread_flag_refused(tmp_path, capsys, command, flag):
    # a flag the command would ignore is an argparse error (exit code 2)
    data = _write_normal_csv(tmp_path / "x.csv", n=30, d=1)
    argv = {"delta-ci": ["--input", data, "--a", "0.5"],
            "validate": ["--input", data, "--a", "0.5", "--delta0", "0.1"],
            "limit-quantile": ["--d", "1", "--a", "1.0", "--m", "20", "--ell", "100"]}[command]
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
        code = main(
            ["limit-quantile", "--d", "1", "--a", "1.0", "--m", "60", "--ell", "3000",
             "--seed", "3", "--format", "csv", "--output", str(out)]
        )
        assert code == 0
        header, row = out.read_text().splitlines()
        assert header.startswith("d,a,alpha,m,ell,seed,quantile")
        assert float(row.split(",")[-1]) > 0.5


@pytest.mark.parametrize(
    "argv",
    [
        ["limit-quantile", "--d", "0", "--a", "1.0", "--m", "20", "--ell", "100"],
        ["limit-quantile", "--d", "1", "--d", "0", "--a", "1.0", "--m", "20", "--ell", "100"],
        ["crit-table", "--d", "0", "--n", "inf", "--a", "1.0", "--m", "20", "--ell", "100"],
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
        (["limit-quantile", "--d", "1", "--a", "1", "--a", "-1", "--m", "50", "--ell", "500"], _SECOND_A),
        (["test", "--input", str(IRIS), "--header", "--a", "1", "--a", "-1", "--reps", "200", "--workers", "1"],
         _SECOND_A),
        (["power", "--alt", "std", "--d", "2", "--n", "20", "--a", "1", "--competitor", "be", "--reps", "50",
          "--workers", "1"], "be is univariate"),
        (["power", "--alt", "std", "--alt", "t:nu=3", "--d", "2", "--n", "20", "--a", "1", "--a", "2",
          "--competitor", "bhep", "--reps", "50", "--crit-reps", "200", "--workers", "1"],
         "t is univariate; use prod:t(nu=3.0) for d=2"),
        (["crit-table", "--d", "1", "--n", "10", "--n", "inf", "--a", "1", "--reps", "200", "--m", "1",
          "--workers", "1"], "need at least m=2 support points"),
        (["power", "--alt", "std", "--d", "2", "--n", "20", "--a", "1", "--competitor", "bhep:abc", "--reps", "50",
          "--workers", "1"], "bhep requires a finite a > 0, got 'abc'"),
        (["delta-ci", "--input", str(IRIS), "--header", "--a", "0.5", "--alpha", "2"], "alpha must be in (0, 1)"),
        (["validate", "--input", str(IRIS), "--header", "--a", "0.5", "--delta0", "-1"],
         "delta0 must be a positive finite real, got -1.0"),
        (["power", "--alt", "nmix:p=0.1,sigma=I", "--d", "1", "--n", "20", "--a", "1", "--reps", "50",
          "--crit-reps", "100", "--workers", "1"], "nmix sigma=I is a matrix, for d >= 2; give a variance at d = 1"),
    ],
    ids=["crit-table-second-a", "limit-quantile-second-a", "test-second-a", "power-univariate-competitor",
         "power-univariate-alternative", "crit-table-inf-m", "power-non-numeric-tuning", "delta-ci-alpha",
         "validate-delta0", "power-nmix-matrix-sigma-at-d1"],
)
def test_late_input_refused_before_any_simulation(capsys, monkeypatch, argv, message):
    # stderr holds the error alone: no progress, critical-value or quantile line came before it
    monkeypatch.setattr(cli, "delta_estimate", _never)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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
