import csv
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from normtest.cli import main
from normtest.samplers import parse_spec

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(name, relpath):
    spec = importlib.util.spec_from_file_location(name, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _run_script(name, args, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return proc.stdout


def test_coverage_study_reproducible_across_processes():
    args = ["--reps", "40", "--n", "8", "--n", "12", "--seed", "3"]
    first = _run_script("coverage_study.py", args, hashseed=1)
    assert first.splitlines()[0] == "n,uniform,laplace,logistic"
    assert _run_script("coverage_study.py", args, hashseed=2) == first


def test_power_study_alternatives_parse():
    study = _load("power_study", "scripts/power_study.py")
    for text in study.MULTIVARIATE_ALTS + study.UNIVARIATE_ALTS:
        parse_spec(text)


_T_COLUMNS = "t:0.1,t:0.25,t:0.5,t:1,t:2,t:3,t:5,t:10"


@pytest.mark.parametrize("flags,alts,header", [
    (["--d", "2"], "MULTIVARIATE_ALTS", f"alternative,{_T_COLUMNS},bhep:0.5,bhep:1,hv:5,hv_inf,hjg:1.5"),
    (["--d", "1", "--univariate"], "UNIVARIATE_ALTS", f"alternative,{_T_COLUMNS},bhep:1,bcmr,be:1"),
], ids=["multivariate", "univariate"])
def test_power_study_runs_small(tmp_path, flags, alts, header):
    out = tmp_path / "power.csv"
    _run_script("power_study.py", [*flags, "--n", "12", "--reps", "20", "--crit-reps", "40", "--workers", "1",
                                   "--out", str(out)], hashseed=0)
    assert out.read_text().splitlines()[0] == header
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    study = _load("power_study", "scripts/power_study.py")
    labels = [parse_spec(text).label() for text in getattr(study, alts)]
    assert len(labels) == 16
    # a label holding a comma is quoted, so each row keeps one field per column
    assert [row[0] for row in rows[1:]] == labels
    assert {len(row) for row in rows} == {len(header.split(","))}


def test_benchmark_tracing_boundaries_resolve():
    # perfbench wraps these module attributes; renaming one must fail here too
    tracing = _load("tracing", "perfbench/tracing.py")
    for module, attr, _, _ in tracing.BOUNDARIES:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def _benchmark_checks_pass(name, seed, tmp_path, capsys):
    # the workload's smoke-size commands on one worker, each judged by its own check
    workloads = _load("workloads", "perfbench/workloads.py")
    for cmd in workloads.build(name, seed, str(tmp_path), 1, True).commands:
        assert main(cmd.argv) == 0, cmd.label
        assert cmd.check(capsys.readouterr().out) == [], cmd.label


@pytest.mark.parametrize("seed", range(8))
def test_benchmark_delta_ci_check_passes(seed, tmp_path, capsys):
    # delta-ci is checked against its stored outputs at its own tolerance
    _benchmark_checks_pass("delta_ci_large", seed, tmp_path, capsys)


@pytest.mark.parametrize("name,seed", [
    ("iris_test", 0), ("iris_test", 1), ("power_cell", 0), ("power_cell", 1), ("limit_quantile", 0),
    ("limit_quantile", 1),
])
def test_benchmark_check_passes(name, seed, tmp_path, capsys):
    _benchmark_checks_pass(name, seed, tmp_path, capsys)
