"""Acceptance suite: every release gate runs at its stated tolerance.

One test per criterion; `pytest -v` prints one pass/fail line each.  The
Monte Carlo criteria use fixed seeds, so outcomes are reproducible.
Set NORMTEST_ACCEPT_FAST=1 to run criterion 4 in its sanctioned fast mode
(10^4 replications at the widened +-0.04 tolerance).
"""

import importlib.util
import json
import os
import pathlib
import time

import numpy as np
import pytest

from normtest import (
    bhep,
    critical_value,
    delta_a_univariate,
    expected_limit,
    hjg,
    hv,
    hv_inf,
    limit_quantile,
    mc_null_sample,
    scaled_residuals,
    scaling_factor,
    sigma_hat_sq,
    sigma_hat_sq_quadrature,
    t_statistic,
    t_statistic_quadrature,
)
from normtest import power as power_mod
from normtest.cli import main
from normtest.inference import (
    laplace_cf_second_derivative,
    logistic_cf_second_derivative,
    uniform_cf_second_derivative,
)
from normtest.parallel import CRIT, derive_seed, float_key
from normtest.samplers import parse_spec
from normtest.statistic import mrs_skewness, mardia_kurtosis
from conftest import make_rng, random_invertible

ROOT = pathlib.Path(__file__).resolve().parents[1]
FAST = bool(os.environ.get("NORMTEST_ACCEPT_FAST"))
WORKERS = 2


def test_criterion_01_oracle_equivalence():
    """Closed form vs quadrature: rel diff < 1e-5 on 50 random samples, < 1 min."""
    start = time.time()
    grid_cells = [(d, n, a) for d in (1, 2) for n in (10, 30) for a in (0.5, 1.0, 2.0)]
    worst = 0.0
    for i in range(50):
        d, n, a = grid_cells[i % len(grid_cells)]
        sample = scaled_residuals(make_rng(9000 + i).normal(size=(n, d)))
        closed = t_statistic(sample, a).value
        quad = t_statistic_quadrature(sample, a)
        worst = max(worst, abs(closed - quad) / closed)
    elapsed = time.time() - start
    print(f"criterion 1: worst rel diff {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 60.0


def test_criterion_02_affine_invariance():
    """T, BHEP, HJG, HV, HV_inf change < 1e-8 under 20 random affine maps."""
    rng = make_rng(8100)
    x = rng.normal(size=(30, 3))
    stats = {
        "t": lambda s: t_statistic(s, 1.0).value,
        "bhep": lambda s: bhep(s, 0.5),
        "hjg": lambda s: hjg(s, 1.5),
        "hv": lambda s: hv(s, 5.0),
        "hv_inf": hv_inf,
    }
    base = {k: f(scaled_residuals(x)) for k, f in stats.items()}
    worst = 0.0
    for _ in range(20):
        a_mat = random_invertible(3, rng)
        b = rng.normal(size=3)
        moved = scaled_residuals(x @ a_mat.T + b)
        for k, f in stats.items():
            denom = max(abs(base[k]), 1e-12)
            worst = max(worst, abs(f(moved) - base[k]) / denom)
    print(f"criterion 2: worst rel change {worst:.2e}")
    assert worst < 1e-8


def test_criterion_03_limit_statements():
    """a->0 gap < 1e-6 (kurtosis limit); a->infty gap shrinks monotonically."""
    # kurtosis limit: remainder is O(a^{d/2} n), below 1e-6 for d >= 3 here
    for d in (3, 5):
        sample = scaled_residuals(make_rng(8200 + d).normal(size=(25, d)))
        a = 1e-8
        gap = abs((a / np.pi) ** (d / 2) * t_statistic(sample, a).value - mardia_kurtosis(sample))
        print(f"criterion 3 (a->0, d={d}): gap {gap:.2e}")
        assert gap < 1e-6
    for d in (1, 2):
        n = 20
        sample = scaled_residuals(make_rng(8210 + d).normal(size=(n, d)))
        target = mrs_skewness(sample)
        gaps = []
        for a in (1e4, 1e5, 1e6):
            norm = 2.0 * a ** (d / 2 + 1) / (n * np.pi ** (d / 2)) * t_statistic(sample, a).value
            gaps.append(abs(norm - target))
        print(f"criterion 3 (a->infty, d={d}): gaps {gaps}")
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3 * (2.0 * 1e6 * d**2)


TABLE1_CELLS = [
    (1, 20, 0.25, 2.730),
    (1, 20, 1.0, 1.597),
    (3, 50, 1.0, 0.904),
    (5, 20, 3.0, 0.263),
]


def test_criterion_04_table_critical_values():
    """Reference 95% critical values within +-0.02 at 1e5 replications."""
    reps, tol = (10_000, 0.04) if FAST else (100_000, 0.02)
    # the two d = 1 cells share the seed 2024_120: one draw gives both columns, each bit for bit its a alone
    both = mc_null_sample(1, 20, (0.25, 1.0), reps, seed=2024_120, workers=WORKERS)
    samples = [*both.T] + [
        mc_null_sample(d, n, a, reps, seed=2024_000 + d * 100 + n, workers=WORKERS) for d, n, a, _ in TABLE1_CELLS[2:]
    ]
    for (d, n, a, expect), vals in zip(TABLE1_CELLS, samples):
        q = critical_value(vals, 0.05)
        print(f"criterion 4: d={d} n={n} a={a} -> {q:.4f} (reference {expect})")
        assert q == pytest.approx(expect, abs=tol)


def test_criterion_05_limit_quantile_sampler():
    """Limit-distribution quantiles match the reference within +-0.05."""
    for d, a, expect in ((1, 1.0, 1.765), (2, 3.0, 0.598)):
        q = limit_quantile(d, a, 0.05)
        print(f"criterion 5: d={d} a={a} -> {q:.4f} (reference {expect})")
        assert q == pytest.approx(expect, abs=0.05)


def test_criterion_06_expected_limit_consistency():
    """Closed-form limit mean within 3 MC standard errors at n=2000."""
    for d, a in ((1, 1.0), (2, 1.0), (3, 0.5)):
        vals = mc_null_sample(d, 2000, a, 5000, seed=8300 + d, workers=WORKERS)
        factor = scaling_factor(d, a)
        mean = float(np.mean(vals)) / factor
        se = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) / factor
        closed = expected_limit(d, a)
        z = (mean - closed) / se
        print(f"criterion 6: d={d} a={a} closed {closed:.4f} mc {mean:.4f} z={z:+.2f}")
        assert abs(z) < 3.0
        if (d, a) == (3, 0.5):
            # the exact limit quantile lies in the order-statistic 95% interval of this sample's 0.95 quantile
            half = 1.96 * np.sqrt(len(vals) * 0.05 * 0.95)
            lo, hi = vals[int(np.floor(0.95 * len(vals) - half)) - 1], vals[int(np.ceil(0.95 * len(vals) + half)) - 1]
            q = limit_quantile(d, a, 0.05)
            print(f"criterion 6: d={d} a={a} limit quantile {q:.4f}, n=2000 interval [{lo:.4f}, {hi:.4f}]")
            assert lo <= q <= hi


def test_criterion_07_population_distance_values():
    """Quadrature distances for the three reference laws within +-0.002."""
    cases = [
        (uniform_cf_second_derivative, 0.3322, "uniform"),
        (laplace_cf_second_derivative, 0.127, "laplace"),
        (logistic_cf_second_derivative, 0.033, "logistic"),
    ]
    for cf2, expect, name in cases:
        val = delta_a_univariate(cf2, 0.1)
        print(f"criterion 7: {name} -> {val:.4f} (reference {expect})")
        assert val == pytest.approx(expect, abs=0.002)


DELTA_UNIFORM = 0.3321978029080993  # frozen from delta_a_univariate(uniform, 0.1)
DELTA_LAPLACE = 0.1270647554480677


def _coverage(dist: str, n: int, delta_true: float, reps: int, seed: int) -> float:
    # the coverage loop of scripts/coverage_study.py, on make_rng(seed + i) draws
    spec = importlib.util.spec_from_file_location("coverage_study", ROOT / "scripts" / "coverage_study.py")
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    rngs = (make_rng(seed + i) for i in range(reps))
    return study.coverage(parse_spec(dist), n, 0.1, 0.05, delta_true, rngs)


def test_criterion_08_coverage():
    """CI coverage matches the reference percentages within 2 points."""
    cov_u = _coverage("uniform", 100, DELTA_UNIFORM, 1000, 50_000)
    print(f"criterion 8: uniform n=100 coverage {cov_u:.1f}% (reference 94.4)")
    assert cov_u == pytest.approx(94.4, abs=2.0)
    cov_l = _coverage("laplace", 50, DELTA_LAPLACE, 1000, 60_000)
    print(f"criterion 8: laplace n=50 coverage {cov_l:.1f}% (reference 96.9)")
    assert cov_l == pytest.approx(96.9, abs=2.0)


def test_criterion_09_variance_estimator_oracle():
    """Closed-form variance estimator vs double quadrature, 1e-3 relative."""
    worst = 0.0
    for i in range(20):
        rng = make_rng(8400 + i)
        x = rng.normal(size=(20, 1)) + 0.4 * rng.normal(size=(20, 1)) ** 2
        sample = scaled_residuals(x)
        for a in (0.1, 0.5):
            closed = sigma_hat_sq(sample, a)
            oracle = sigma_hat_sq_quadrature(sample, a)
            worst = max(worst, abs(closed - oracle) / abs(oracle))
    print(f"criterion 9: worst rel diff {worst:.2e}")
    assert worst < 1e-3


def test_criterion_10_power_reproduction():
    """Null sizes 5 +- 1 and reference powers at 10^4 replications."""
    seed = 777
    std = parse_spec("std")
    cases = [
        # (alt spec, d, n, a, expected power %, tolerance)
        ("nmix:p=0.1,mu=3,sigma=I", 2, 50, 0.5, 82.0, 3.0),
        ("mt:nu=3", 3, 50, 0.1, 98.0, 2.0),
        ("chisq(5)", 1, 100, 1.0, 99.0, 1.0),
    ]
    for alt, d, n, a, expect, tol in cases:
        crit = power_mod.t_critical_value(d, n, a, 0.05, 100_000, seed, workers=WORKERS)
        size = 100.0 * power_mod.t_power(std, d, n, a, crit, 10_000, seed + 1, workers=WORKERS)
        print(f"criterion 10: null size d={d} n={n} a={a}: {size:.2f}%")
        assert size == pytest.approx(5.0, abs=1.0)
        pw = 100.0 * power_mod.t_power(parse_spec(alt), d, n, a, crit, 10_000, seed, workers=WORKERS)
        print(f"criterion 10: power {alt} d={d} n={n} a={a}: {pw:.1f}% (reference {expect})")
        assert pw == pytest.approx(expect, abs=tol)
    from normtest.competitors import CompetitorSpec

    comp = CompetitorSpec("bhep", 0.5)
    crit = power_mod.competitor_critical_value(comp, 2, 50, 0.05, 100_000, seed, workers=WORKERS)
    size = 100.0 * power_mod.competitor_power(std, comp, 2, 50, crit, 10_000, seed + 1, workers=WORKERS)
    print(f"criterion 10: bhep:0.5 null size d=2 n=50: {size:.2f}%")
    assert size == pytest.approx(5.0, abs=1.0)
    pw = 100.0 * power_mod.competitor_power(
        parse_spec("nmix:p=0.1,mu=3,sigma=I"), comp, 2, 50, crit, 10_000, seed, workers=WORKERS
    )
    print(f"criterion 10: bhep:0.5 power vs nmix d=2 n=50: {pw:.1f}% (reference 88)")
    assert pw == pytest.approx(88.0, abs=3.0)


IRIS_CASES = [
    # rows of the fixture, tuning, reference p-value
    (slice(0, 50), 0.5, 0.0706, "setosa"),
    (slice(50, 100), 0.25, 0.4402, "versicolor"),
    (slice(0, 150), 10.0, 0.0150, "mixed"),
]


def test_criterion_11_iris_pvalues():
    """Monte Carlo p-values for the flower data within +-0.01 of reference."""
    import pathlib

    from normtest import load_csv, pvalue_mc

    iris = load_csv(pathlib.Path(__file__).parent / "data" / "iris.csv", header=True)
    for rows, a, expect, label in IRIS_CASES:
        data = iris[rows]
        sample = scaled_residuals(data)
        stat = t_statistic(sample, a)
        p = pvalue_mc(stat, sample.d, sample.n, a, 10_000, seed=97, workers=WORKERS)
        print(f"criterion 11: {label} a={a} -> p={p:.4f} (reference {expect})")
        assert p == pytest.approx(expect, abs=0.01)


def test_criterion_12_determinism(tmp_path):
    """Bit-identical Monte Carlo output across reruns and worker counts."""
    base = mc_null_sample(2, 20, 1.0, 2000, seed=4242, workers=1)
    for workers in (4, 16):
        np.testing.assert_array_equal(base, mc_null_sample(2, 20, 1.0, 2000, seed=4242, workers=workers))
    np.testing.assert_array_equal(base, mc_null_sample(2, 20, 1.0, 2000, seed=4242, workers=1))
    outs = []
    for i, workers in enumerate((1, 4, 16)):
        out = tmp_path / f"t{i}.json"
        code = main(
            ["crit-table", "--d", "2", "--n", "20", "--a", "1.0", "--reps", "2000",
             "--seed", "4242", "--workers", str(workers), "--format", "json",
             "--output", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    # the CLI derives one substream per table cell from the master seed
    cell_seed = derive_seed(4242, CRIT, 2, 20, float_key(1.0))
    cell_vals = mc_null_sample(2, 20, 1.0, 2000, seed=cell_seed, workers=1)
    obj = json.loads(outs[0])
    assert obj[0]["quantile"] == critical_value(cell_vals, 0.05)
    print("criterion 12: bit-identical across reruns and worker counts 1/4/16")
