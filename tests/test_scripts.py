import importlib.util
import os
import pathlib
import subprocess
import sys

from normtest.samplers import parse_spec

ROOT = pathlib.Path(__file__).resolve().parents[1]


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
    spec = importlib.util.spec_from_file_location("power_study", ROOT / "scripts" / "power_study.py")
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    for text in study.MULTIVARIATE_ALTS + study.UNIVARIATE_ALTS:
        parse_spec(text)


def test_benchmark_tracing_boundaries_resolve():
    # perfbench wraps these module attributes; renaming one must fail here too
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _, _ in tracing.BOUNDARIES:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
