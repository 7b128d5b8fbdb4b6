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


def test_benchmark_tracing_boundaries_resolve():
    # perfbench wraps these module attributes; renaming one must fail here too
    tracing = _load("tracing", "perfbench/tracing.py")
    for module, attr, _, _ in tracing.BOUNDARIES:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


@pytest.mark.parametrize("seed", range(8))
def test_benchmark_delta_ci_check_passes(seed, tmp_path, capsys):
    # the benchmark's smoke-size delta-ci command, judged by its own check
    # against its stored outputs at its own tolerance
    workloads = _load("workloads", "perfbench/workloads.py")
    (cmd,) = workloads.build("delta_ci_large", seed, str(tmp_path), 1, True).commands
    assert main(cmd.argv) == 0
    assert cmd.check(capsys.readouterr().out) == []
