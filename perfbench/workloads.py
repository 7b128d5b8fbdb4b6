"""The four benchmark workloads: inputs made from a seed, the CLI commands run
on them, and the check applied to every command's output.

A workload is a closed loop with a single driving process, which calls
``normtest.cli.main`` for each command in turn, and a command starts only
after the previous one has returned.  The program sees only generated inputs,
as CSV files written here and as command-line flags.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
IRIS_CSV = os.path.join(os.path.dirname(HERE), "tests", "data", "iris.csv")

# criterion 11 of the acceptance suite: (rows of the flower data, a, reference p-value)
IRIS_CASES = (("setosa", 0, 50, 0.5, 0.0706), ("versicolor", 50, 100, 0.25, 0.4402), ("all", 0, 150, 10.0, 0.0150))
IRIS_REF_REPS = 10_000  # replications behind the reference p-values

POWER_ALTS = ("std", "nmix:p=0.1,mu=3,sigma=I", "mt:nu=5", "spherical:exp(1)")
POWER_A = (0.5, 2.0)
POWER_COMPETITORS = ("bhep:0.5", "hv:5", "hjg:1.5")
# criterion 10 of the acceptance suite: nmix powers (%) at 10^4 / 10^5 replications, +-3 points
POWER_NMIX_REF = {"t:0.5": 82.0, "bhep:0.5": 88.0}
POWER_NMIX_TOL = 3.0
# A critical value estimated from C null replications moves the null rejection
# rate by sqrt(0.05 * 0.95 / C); under an alternative the rate moves by that
# times the ratio of the alternative's to the null's density at the critical
# value, about 2.5 for a normal shift with 82% power.  3 bounds it.
POWER_DENSITY_RATIO = 3.0

LIMIT_REF, LIMIT_TOL = 0.598, 0.05  # criterion 5: d=2, a=3
LIMIT_SEED = 31  # --seed 0 runs the criterion 5 cell itself

DELTA_N, DELTA_SMOKE_N = 8000, 400
# delta_ci_large draws its sample from --seed modulo STORED_SEEDS, and
# data/delta_ci_expected.json holds the outputs for every such sample at both
# sizes, so every run, smoke runs too, is checked against stored values.
STORED_SEEDS = 64
DELTA_REL_TOL = 1e-9


@dataclass
class Command:
    """One CLI invocation and the check of its standard output."""

    label: str
    argv: list[str]
    work: int  # units of work counted by reps_per_s
    check: Callable[[str], list[str]]  # output -> failure messages, empty when correct


@dataclass
class Probe:
    """Per-replication shape of a workload, used by the traced run's layer probes.

    ``blocks`` are data matrices cut from the workload's own input; when it has
    none, probes draw samples of size ``n`` in dimension ``d`` from ``alts``.
    """

    n: int
    d: int
    a: list[float]
    alts: list[str]
    blocks: list[np.ndarray] | None
    csv: str | None


@dataclass
class Workload:
    name: str
    params: dict
    commands: list[Command]
    probe: Probe


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _iris(seed: int, workdir: str, workers: int, smoke: bool) -> Workload:
    reps = 200 if smoke else 10_000
    with open(IRIS_CSV) as f:
        rows = f.read().splitlines()[1:]
    commands, blocks, paths = [], [], []
    for label, lo, hi, a, ref in IRIS_CASES:
        path = os.path.join(workdir, f"iris_{label}.csv")
        with open(path, "w") as f:
            f.write("\n".join(rows[lo:hi]) + "\n")
        paths.append(path)
        blocks.append(np.loadtxt(path, delimiter=",", ndmin=2))
        # Both our p-value and the reference are Monte Carlo estimates: the
        # tolerance is 4 standard errors of their difference, at least 0.01.
        tol = max(0.01, 4.0 * math.sqrt(ref * (1.0 - ref) * (1.0 / reps + 1.0 / IRIS_REF_REPS)))

        def check(text: str, label=label, ref=ref, tol=tol) -> list[str]:
            (row,) = json.loads(text)
            p = row["p_value"]
            if not _finite(p, row["statistic"], row["scaled"], row["critical_value"]):
                return [f"{label}: non-finite output {row}"]
            if abs(p - ref) > tol:
                return [f"{label}: p-value {p:.4f} outside {ref} +- {tol:.4f}"]
            return []

        argv = ["test", "--input", path, "--a", repr(a), "--reps", str(reps), "--seed", str(seed),
                "--workers", str(workers), "--format", "json"]
        commands.append(Command(f"test {label} a={a:g}", argv, reps, check))
    params = {"n": [hi - lo for _, lo, hi, _, _ in IRIS_CASES], "d": 4, "a": [c[3] for c in IRIS_CASES],
              "replications": reps, "workers": workers}
    probe = Probe(n=50, d=4, a=params["a"], alts=["std"], blocks=blocks, csv=paths[-1])
    return Workload("iris_test", params, commands, probe)


def _power(seed: int, workdir: str, workers: int, smoke: bool) -> Workload:
    reps, crit_reps = (100, 200) if smoke else (600, 1200)
    ncols = len(POWER_A) + len(POWER_COMPETITORS)
    size_tol = 400.0 * math.sqrt(0.05 * 0.95 * (1.0 / reps + 1.0 / crit_reps))

    def nmix_tol(ref: float) -> float:
        p = ref / 100.0
        return POWER_NMIX_TOL + 400.0 * math.sqrt(
            p * (1.0 - p) / reps + POWER_DENSITY_RATIO**2 * 0.05 * 0.95 / crit_reps
        )

    def check(text: str) -> list[str]:
        rows = json.loads(text)
        if len(rows) != len(POWER_ALTS):
            return [f"power: {len(rows)} rows for {len(POWER_ALTS)} alternatives"]
        problems = []
        for row in rows:
            for col, v in row.items():
                if col != "alternative" and not (_finite(v) and 0.0 <= v <= 100.0):
                    problems.append(f"power: {row['alternative']} {col} = {v}")
        std, nmix = rows[0], rows[1]
        for col, v in std.items():
            if col != "alternative" and abs(v - 5.0) > size_tol:
                problems.append(f"power: size {col} = {v:.2f}% outside 5 +- {size_tol:.2f}")
        for col, ref in POWER_NMIX_REF.items():
            if abs(nmix[col] - ref) > nmix_tol(ref):
                problems.append(f"power: nmix {col} = {nmix[col]:.2f}% outside {ref} +- {nmix_tol(ref):.2f}")
        return problems

    argv = ["power", "--d", "2", "--n", "50", "--reps", str(reps), "--crit-reps", str(crit_reps),
            "--seed", str(seed), "--workers", str(workers), "--format", "json"]
    for alt in POWER_ALTS:
        argv += ["--alt", alt]
    for a in POWER_A:
        argv += ["--a", repr(a)]
    for comp in POWER_COMPETITORS:
        argv += ["--competitor", comp]
    work = ncols * crit_reps + len(POWER_ALTS) * ncols * reps  # null plus alternative replications
    params = {"n": 50, "d": 2, "a": list(POWER_A), "replications": reps, "crit_replications": crit_reps,
              "workers": workers, "size_tol_points": size_tol,
              "nmix_tol_points": {c: nmix_tol(r) for c, r in POWER_NMIX_REF.items()}}
    probe = Probe(n=50, d=2, a=list(POWER_A), alts=list(POWER_ALTS), blocks=None, csv=None)
    return Workload("power_cell", params, [Command("power d=2 n=50", argv, work, check)], probe)


def delta_ci_data(seed: int, n: int) -> np.ndarray:
    """n x 3 multivariate t sample with nu=10, from the seed alone."""
    rng = np.random.default_rng(seed)
    nu = 10.0
    z = rng.standard_normal((n, 3))
    return z / np.sqrt(rng.chisquare(nu, size=n) / nu)[:, None]


EXPECTED_DELTA_CI = os.path.join(DATA, "delta_ci_expected.json")


def _delta_ci(seed: int, workdir: str, workers: int, smoke: bool) -> Workload:
    n = DELTA_SMOKE_N if smoke else DELTA_N
    data_seed = seed % STORED_SEEDS
    x = delta_ci_data(data_seed, n)
    path = os.path.join(workdir, "delta_ci.csv")
    np.savetxt(path, x, delimiter=",", fmt="%.17g")

    def check(text: str) -> list[str]:
        obj = json.loads(text)
        est, ci = obj["estimate"], obj["confidence_interval"]
        got = {"delta_hat": est["delta_hat"], "sigma_hat": est["sigma_hat"], "lower": ci["lower"], "upper": ci["upper"]}
        if not _finite(*got.values()):
            return [f"delta-ci: non-finite output {got}"]
        problems = []
        if est["clipped"]:
            problems.append("delta-ci: variance clipped")
        if not got["lower"] <= got["delta_hat"] <= got["upper"]:
            problems.append(f"delta-ci: delta_hat outside its interval {got}")
        with open(EXPECTED_DELTA_CI) as f:
            stored = json.load(f).get(str(n), {}).get(str(data_seed))
        if stored is None:
            return problems + [f"delta-ci: no stored values for n={n}, data seed {data_seed}"]
        for key, want in stored.items():
            if abs(got[key] - want) > DELTA_REL_TOL * abs(want):
                problems.append(f"delta-ci: {key} {got[key]!r} differs from stored {want!r}")
        return problems

    argv = ["delta-ci", "--input", path, "--a", "0.5", "--format", "json"]
    params = {"n": n, "d": 3, "a": 0.5, "replications": 0, "workers": 1, "data_seed": data_seed}
    blocks = [x[i : i + 50] for i in range(0, n, 50)]
    probe = Probe(n=50, d=3, a=[0.5], alts=["mt:nu=10"], blocks=blocks, csv=path)
    return Workload("delta_ci_large", params, [Command("delta-ci n=%d" % n, argv, n, check)], probe)


def _limit(seed: int, workdir: str, workers: int, smoke: bool) -> Workload:
    # m and ell stay at the CLI defaults (1000, 10^5) in a full run
    sizes = ["--m", "200", "--ell", "2000"] if smoke else []
    ell = 2000 if smoke else 100_000

    def check(text: str) -> list[str]:
        (row,) = json.loads(text)
        q = row["quantile"]
        if not _finite(q) or abs(q - LIMIT_REF) > LIMIT_TOL:
            return [f"limit-quantile: {q!r} outside {LIMIT_REF} +- {LIMIT_TOL}"]
        return []

    argv = ["limit-quantile", "--d", "2", "--a", "3", "--seed", str(LIMIT_SEED + seed), "--format", "json"] + sizes
    params = {"n": None, "d": 2, "a": 3.0, "m": 200 if smoke else 1000, "replications": ell, "workers": 1,
              "sampler_seed": LIMIT_SEED + seed}
    probe = Probe(n=50, d=2, a=[3.0], alts=["std"], blocks=None, csv=None)
    return Workload("limit_quantile", params, [Command("limit-quantile d=2 a=3", argv, ell, check)], probe)


BUILDERS = {"iris_test": _iris, "power_cell": _power, "delta_ci_large": _delta_ci, "limit_quantile": _limit}


def build(name: str, seed: int, workdir: str, workers: int, smoke: bool) -> Workload:
    """Write the workload's inputs for ``seed`` into ``workdir`` and describe its commands."""
    os.makedirs(workdir, exist_ok=True)
    return BUILDERS[name](seed, workdir, workers, smoke)
