#!/usr/bin/env python3
"""Store the delta_ci_large outputs that every run is checked against.

    python3 perfbench/record_expected.py

Runs ``normtest delta-ci`` on the benchmark's input for each of the
``workloads.STORED_SEEDS`` data seeds, at the full and at the smoke size, and
writes perfbench/data/delta_ci_expected.json.  Rerun it only when a change to
the program is meant to change these values.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from normtest import cli  # noqa: E402


def main() -> int:
    out = {}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for smoke in (True, False):
            for seed in range(workloads.STORED_SEEDS):
                wl = workloads.build("delta_ci_large", seed, workdir, 1, smoke)
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(wl.commands[0].argv)
                if code != 0:
                    raise SystemExit(f"delta-ci failed for n={wl.params['n']}, seed {seed}")
                obj = json.loads(buf.getvalue())
                est, ci = obj["estimate"], obj["confidence_interval"]
                values = {"delta_hat": est["delta_hat"], "sigma_hat": est["sigma_hat"],
                          "lower": ci["lower"], "upper": ci["upper"]}
                out.setdefault(str(wl.params["n"]), {})[str(seed)] = values
                print(wl.params["n"], seed, values, flush=True)
    with open(workloads.EXPECTED_DELTA_CI, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
