"""Smoke test of the benchmark itself: every workload, untraced and traced, at
tiny sizes.  Takes about half a minute:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--smoke", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def _assert_emitted(result: dict, specs: list[dict], prefix: str = "") -> None:
    for spec in specs:
        got = result["metrics"][prefix + spec["name"]]
        assert got["unit"] == spec["unit"], spec["name"]
        assert isinstance(got["value"], (int, float)), spec["name"]


def test_all_workloads_emit_every_end_to_end_metric():
    lines, result = _result(_run("--workload", "all", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    for wl in BENCH["workloads"]:
        _assert_emitted(result, BENCH["end_to_end"], prefix=wl["name"] + ".")
    assert sum("failed_frac" in line for line in lines) == len(BENCH["workloads"])


def test_traced_run_emits_every_per_layer_metric():
    lines, result = _result(_run("--workload", "all", "--trace", "1"))
    assert result["correct"]
    for wl in BENCH["workloads"]:
        _assert_emitted(result, BENCH["per_layer"], prefix=wl["name"] + ".")
    names = {m["name"] for m in BENCH["per_layer"]}
    assert {k.split(".", 1)[1] for k in result["metrics"]} == names
    overhead = [line for line in lines if "trace.overhead_pct" in line]
    assert len(overhead) == len(BENCH["workloads"])


def test_single_workload_result_has_exactly_the_contract_keys():
    _, result = _result(_run("--workload", "delta_ci_large", "--seed", "3", "--trace", "0"))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCH["end_to_end"])
    _assert_emitted(result, BENCH["end_to_end"])


def _copy_benchmark(dest) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))


def test_fails_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    proc = _run("--workload", "iris_test", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_delta_ci_output_differing_from_stored_value_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "perfbench" / "data" / "delta_ci_expected.json"
    stored = json.loads(path.read_text())
    stored["400"]["3"]["sigma_hat"] *= 1.0 + 1e-6
    path.write_text(json.dumps(stored))
    # seed 67 draws the sample of data seed 67 mod 64 = 3
    lines, result = _result(_run("--workload", "delta_ci_large", "--seed", "67", "--trace", "0", cwd=str(tmp_path)))
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1
    assert any("sigma_hat" in line and "differs from stored" in line for line in lines)
