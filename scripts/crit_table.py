#!/usr/bin/env python3
"""Reproduce the 0.95 critical value table for the scaled statistic.

Runs a full (d, n, a) grid including the n = inf rows of the exact limit law, and writes the JSON table to --out.
Restartable: the null simulations are checkpointed in the directory <--out>.checkpoint, so a rerun with the same
arguments simulates only the finite-n cells it lacks (the n = inf rows, well under 1 s each, are recomputed).  The
table is written at the end.

    python scripts/crit_table.py --reps 100000 --out crit_table.json
"""

import argparse
import sys

from normtest.cli import main as cli_main

GRID_D = [1, 2, 3, 5, 10]
GRID_N = ["20", "50", "100", "inf"]
GRID_A = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0]

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="crit_table.json")
    ap.add_argument("--workers", type=int, default=0)
    args = ap.parse_args()

    argv = ["crit-table", "--reps", str(args.reps), "--seed", str(args.seed),
            "--workers", str(args.workers), "--format", "json",
            "--output", args.out, "--checkpoint", args.out + ".checkpoint"]
    for d in GRID_D:
        argv += ["--d", str(d)]
    for n in GRID_N:
        argv += ["--n", n]
    for a in GRID_A:
        argv += ["--a", str(a)]
    sys.exit(cli_main(argv))
