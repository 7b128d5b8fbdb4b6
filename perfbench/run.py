#!/usr/bin/env python3
"""Benchmark of the normtest command line on four closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload iris_test --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload all --trace 1  # per-layer metrics
    python3 perfbench/run.py --workload all --smoke    # tiny sizes, a few seconds each

Each workload runs in its own process.  ``--trace 0`` measures set-up time,
the wall time of the workload's command sequence, Monte Carlo replications per
second and peak resident memory, with tracing off.  ``--trace 1`` gives the
per-layer metrics (see tracing.py) and the tracing overhead.  Every command's
output is checked; a failed check counts the command as failed.  Human-readable
lines come first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Named here rather than imported from workloads.py: that module loads numpy,
# and the BLAS thread cap must be set before numpy loads.
WORKLOADS = ("iris_test", "power_cell", "delta_ci_large", "limit_quantile")
# (pool workers, BLAS threads) of each workload, each capped at nproc; workers
# times BLAS threads stays within nproc.  iris_test carries the pooled path.
# power_cell runs in one process: at 2 workers it starts 25 pools a sequence and
# hands them tasks of about 64 replications, and its wall time spread 27-35%
# between runs on a shared 2-vCPU host.  In one process with 2 BLAS threads,
# its 50 x 50 matrices made sequences take 4.1-7.3 s, against 5.8-7.0 s with 1.
# limit_quantile's m x m eigh and GEMM run 1.4x faster and steadier with 2 BLAS
# threads than with 1.
LOAD = {"iris_test": (2, 1), "power_cell": (1, 1), "delta_ci_large": (1, 2), "limit_quantile": (1, 2)}
PROBE_WORKERS = 2  # worker count of the traced run's parallel-efficiency probe
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workers(workload: str) -> int:
    return min(LOAD[workload][0], nproc())


def pin_load(workload: str) -> int:
    """Fix the load before numpy is imported; returns the BLAS thread cap.

    NORMTEST_THREADS would silently override --workers, so it is cleared.
    """
    os.environ.pop("NORMTEST_THREADS", None)
    cap = min(LOAD[workload][1], nproc())
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_sample(args, workdir: str) -> float:
    """Seconds from the start of a fresh process until normtest is imported and the inputs exist."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only", workdir] + (["--smoke"] if args.smoke else [])
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - start


class Runner:
    """Runs a workload's command sequence through normtest.cli.main and checks it."""

    def __init__(self, wl, record: dict):
        from normtest import cli

        self.cli = cli
        self.wl = wl
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def sequence(self, tracer=None) -> float:
        """Run every command once, in order; returns the summed time of the CLI calls."""
        total = 0.0
        for cmd in self.wl.commands:
            self.attempted += 1
            out, err = io.StringIO(), io.StringIO()
            problems = []
            start = time.perf_counter()
            try:
                span = contextlib.nullcontext() if tracer is None else tracer.span("cli.main")
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                    code = self.cli.main(list(cmd.argv))
            except Exception as exc:  # a raising command is a failed operation, not a crash of the run
                code, problems = None, [f"{cmd.label}: raised {exc!r}"]
            total += time.perf_counter() - start
            if code not in (0, None):
                problems = [f"{cmd.label}: exit code {code}: {err.getvalue().strip()[-300:]}"]
            elif code == 0:
                try:
                    problems = cmd.check(out.getvalue())
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    problems = [f"{cmd.label}: unreadable output ({exc!r})"]
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        return total


def provenance(args, wl, blas_cap: int) -> dict:
    import numpy
    import scipy

    import normtest
    from normtest import parallel

    return {"workload": wl.name, "seed": args.seed, "smoke": args.smoke, "params": wl.params,
            "workers": workers(wl.name), "resolved_workers": parallel.resolve_workers(workers(wl.name)),
            "blas_threads": blas_cap, "nproc": nproc(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "normtest": normtest.__version__}


def end_to_end(args, runner, setup: list[float]) -> dict:
    """Repeat the command sequence untraced until --seconds is used up.

    The first sequence is a warm-up: it is checked but not timed.
    """
    start = time.perf_counter()
    walls = [runner.sequence()]
    while len(walls) < 2 or time.perf_counter() - start + statistics.median(walls) <= args.seconds:
        walls.append(runner.sequence())
    walls = walls[1:]
    work = sum(cmd.work for cmd in runner.wl.commands)
    rss_kb = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    runner.record.update(setup_samples=setup, walls=walls)
    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh processes"),
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} sequences"),
        "reps_per_s": (statistics.median([work / w for w in walls]), "1/s", f"median of {len(walls)} sequences"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", "max of the driving process and its children"),
    }


def per_layer(args, runner, workdir: str) -> dict:
    """Traced run: layer spans from the command sequence, then the layer probes."""
    import tracing

    tracer = tracing.Tracer(runner.wl.name)
    untraced, traced = [], []
    start = time.perf_counter()
    # After one warm-up sequence, untraced and traced sequences alternate, so
    # their difference is the tracing overhead; the probes take the rest.
    runner.sequence()
    k = 0
    while k == 0 or (time.perf_counter() - start + statistics.median(untraced) + statistics.median(traced)
                     <= 0.8 * args.seconds):
        for traced_now in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_now:
                tracer.request = f"seq-{k}"
                with tracer.installed():
                    traced.append(runner.sequence(tracer))
            else:
                untraced.append(runner.sequence())
        k += 1
    # One more traced sequence records the memory peaks, so that none of the
    # timed sequences ran under tracemalloc.
    tracer.request, tracer.peaks = "mem", True
    with tracer.installed():
        runner.sequence(tracer)
    tracer.peaks = False
    probe_workers = min(PROBE_WORKERS, nproc())
    tracing.probe(tracer, runner.wl, args.seed, probe_workers, 200 if args.smoke else 1000, workdir)
    layers = tracing.layer_metrics(tracer, probe_workers, untraced, traced)
    tracer.write(os.path.join(OUT, f"spans_{runner.wl.name}_seed{args.seed}.json"), {"seed": args.seed})
    runner.record.update(untraced_walls=untraced, traced_walls=traced,
                         layer_sources={name: source for name, (_v, source, _n) in layers.items()})
    units = tracing.metric_names()
    return {name: (v, units[name][0], f"{source}, n={n}, should move {units[name][2]}")
            for name, (v, source, n) in layers.items()}


def run_one(args) -> int:
    blas_cap = pin_load(args.workload)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    if args.setup_only:
        import normtest  # noqa: F401  (set-up time includes the package import)

        workloads.build(args.workload, args.seed, args.setup_only, workers(args.workload), args.smoke)
        print(repr(time.monotonic()))
        return 0

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    try:
        setup = []
        if not args.trace:
            for k in range(1 if args.smoke else SETUP_SAMPLES):
                setup.append(setup_sample(args, os.path.join(workdir, f"setup{k}")))
        wl = workloads.build(args.workload, args.seed, workdir, workers(args.workload), args.smoke)
        runner = Runner(wl, provenance(args, wl, blas_cap))
        metrics = per_layer(args, runner, workdir) if args.trace else end_to_end(args, runner, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = runner.record
    record.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems,
                  metrics={k: {"value": v, "unit": u, "how": how} for k, (v, u, how) in metrics.items()})
    with open(os.path.join(OUT, f"{wl.name}_seed{args.seed}_trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  smoke {args.smoke}")
    print("load     " + "  ".join(f"{k}={record[k]}" for k in
                                  ("nproc", "workers", "resolved_workers", "blas_threads", "numpy", "scipy", "normtest")))
    print("params   " + json.dumps(wl.params))
    for name, (value, unit, how) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} ({how})")
    frac = runner.failed / runner.attempted
    print(f"  {'failed_frac':40s} {frac:14.6g} {'1':6s} ({runner.failed} of {runner.attempted} commands)")
    for problem in runner.problems:
        print(f"  FAILED: {problem}")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _how) in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another; prints a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"workload {name} exited with code {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
