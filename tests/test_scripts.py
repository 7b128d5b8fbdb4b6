import os
import pathlib
import subprocess
import sys

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
