#!/usr/bin/env python3
"""Coverage of the distance confidence interval under reference alternatives.

For each sample size, draws replicated samples, builds the 95% interval for
the population distance and reports the empirical coverage percentage.
"""

import argparse

from normtest import confidence_interval, delta_a_univariate, delta_estimate, scaled_residuals
from normtest.inference import (
    laplace_cf_second_derivative,
    logistic_cf_second_derivative,
    uniform_cf_second_derivative,
)
from normtest.parallel import substream
from normtest.samplers import parse_spec, sample

# The unit-variance samplers, each with the second derivative of its characteristic function.
DISTS = {
    "uniform": uniform_cf_second_derivative,
    "laplace": laplace_cf_second_derivative,
    "logistic": logistic_cf_second_derivative,
}
# Fixed substream ids: str hashes are randomized per process.
DISTS_ID = {"uniform": 0, "laplace": 1, "logistic": 2}


def coverage(spec, n, a, alpha, target, rngs) -> float:
    """Percentage of samples, one of size n from each generator, whose interval covers target."""
    hits = reps = 0
    for rng in rngs:
        est = delta_estimate(scaled_residuals(sample(spec, n, rng)), a)
        ci = confidence_interval(est, alpha)
        hits += ci.lower <= target <= ci.upper
        reps += 1
    return 100.0 * hits / reps


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, default=0.1)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--reps", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n", type=int, action="append", default=None)
    args = ap.parse_args()
    sizes = args.n or [20, 50, 100, 200, 300]

    targets = {name: delta_a_univariate(cf2, args.a) for name, cf2 in DISTS.items()}
    print("n," + ",".join(DISTS))
    for n in sizes:
        row = [str(n)]
        for name in DISTS:
            rngs = (substream(args.seed, DISTS_ID[name], n, i) for i in range(args.reps))
            pct = coverage(parse_spec(name), n, args.a, args.alpha, targets[name], rngs)
            row.append(f"{pct:.1f}")
        print(",".join(row), flush=True)
