"""Command-line harness.

Subcommands: test | crit-table | power | delta-ci | validate | limit-quantile.
Human-readable tables go to stdout (--format table, the default); csv/json
render machine output to stdout and, with --output, to a file.  Reruns with
identical flags and seed produce byte-identical primary output; the worker
count (--workers) never affects values.
Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from dataclasses import asdict

from . import power as power_mod
from .competitors import parse_competitor
from .inference import check_delta0, check_z_alpha, confidence_interval, delta_estimate, validation_test
from .nulldist import _check_cell, _check_limit_alpha, _pvalue, critical_value, limit_quantile, mc_null_sample
from .samplers import parse_spec
from .standardize import load_csv, scaled_residuals
from .statistic import check_alpha, t_statistic


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(args, text: str) -> None:
    print(text, end="")
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)


def _table_cell(v) -> str:
    """A float to 4 decimals, or in exponent form if nonzero and below 1e-3 or from 1e6 in magnitude."""
    if not isinstance(v, float):
        return str(v)
    return f"{v:.4e}" if v != 0.0 and not 1e-3 <= abs(v) < 1e6 else f"{v:.4f}"


def _render_rows(fmt: str, rows: list[dict]) -> str:
    """``rows``, dicts of one set of keys, as csv, json or an aligned table; the header is the first row's keys."""
    header = list(rows[0])
    if fmt == "csv":
        # quoted where a field holds a comma, as a label like nmix(p=0.1,mu=3.0,sigma=I) does
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row.values()] for row in rows)
        return buf.getvalue()
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    # aligned human table
    cells = [header] + [[_table_cell(v) for v in row.values()] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells]
    return "\n".join(lines) + "\n"


def _count(value: str) -> int:
    try:
        count = int(value)
    except ValueError:
        count = -1
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value!r}")
    return count


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_count, default=0)


def _add_workers(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=_count, default=0, help="0 = the CPUs this process may use")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--output", default=None, help="also write the rendered output to this file")


def _check_run_config(args) -> None:
    if args.reps < 1:
        raise ValueError("replications must be >= 1")
    check_alpha(args.alpha)


def _check_distinct(flag: str, values: list) -> None:
    """Refuse a value given twice for ``flag``, which would run the same cell twice."""
    for value in values:
        if (count := values.count(value)) > 1:
            raise ValueError(f"{flag} {value:g} is given {count} times: one row per value")


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="numeric CSV, one observation per row")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--header", action="store_true", help="skip a header line")


def cmd_test(args) -> int:
    _check_run_config(args)
    _check_distinct("--a", args.a)
    data = load_csv(args.input, delimiter=args.delimiter, header=args.header)
    sample = scaled_residuals(data)
    # every statistic before the first simulation, so any refusal comes first
    stats = [t_statistic(sample, _check_cell(sample.d, sample.n, a)) for a in args.a]
    # one draw for every a: each column is bit for bit the null of its a alone
    _progress(f"simulating null for a={', '.join(f'{a:g}' for a in args.a)} ({args.reps} replications)")
    nulls = mc_null_sample(
        sample.d, sample.n, tuple(args.a), args.reps, args.seed, workers=args.workers, progress=True,
        checkpoint=args.checkpoint,
    )
    rows = []
    for a, stat, null in zip(args.a, stats, nulls.T):
        pval = _pvalue(null, stat.scaled)
        crit = critical_value(null, args.alpha)
        rows.append(
            {
                "statistic": stat.value,
                "scaled": stat.scaled,
                "n": sample.n,
                "d": sample.d,
                "a": a,
                "alpha": args.alpha,
                "replications": args.reps,
                "seed": args.seed,
                "p_value": pval,
                "critical_value": crit,
                "reject": pval <= args.alpha,
            }
        )
    _emit(args, _render_rows(args.format, rows))
    return 0


def _parse_n(value: str) -> float:
    return math.inf if value.lower() in ("inf", "infinity") else int(value)


def cmd_crit_table(args) -> int:
    _check_run_config(args)
    _check_distinct("--d", args.d)
    _check_distinct("--n", args.n)
    _check_distinct("--a", args.a)
    cells = list(itertools.product(args.d, args.n, args.a))
    for d, n, a in cells:
        _check_cell(d, n, a)
    if math.inf in args.n:
        _check_limit_alpha(args.alpha)
    rows = []
    for d, n, a in cells:
        if math.isinf(n):
            # the exact limit law: nothing is simulated, so --reps plays no part
            q, reps = limit_quantile(d, a, args.alpha), 0
        else:
            q = power_mod.t_critical_value(
                d, n, a, args.alpha, args.reps, args.seed, workers=args.workers,
                checkpoint=args.checkpoint, progress=True,
            )
            reps = args.reps
        _progress(f"d={d} n={n} a={a:g}: quantile {q:.4f}")
        rows.append({"d": d, "n": "inf" if math.isinf(n) else n, "a": a, "alpha": args.alpha, "quantile": q,
                     "replications": reps, "seed": args.seed})
    _emit(args, _render_rows(args.format, rows))
    return 0


def cmd_power(args) -> int:
    _check_run_config(args)
    alts = [parse_spec(s) for s in args.alt]
    comps = [parse_competitor(s) for s in args.competitor]
    columns, rows = power_mod.power_matrix(
        alts,
        args.d,
        args.n,
        args.a,
        comps,
        args.alpha,
        args.reps,
        args.seed,
        crit_replications=args.crit_reps,
        workers=args.workers,
        progress=_progress,
    )
    body = [{"alternative": alt.label(), **dict(zip(columns, row))} for alt, row in zip(alts, rows)]
    _emit(args, _render_rows(args.format, body))
    return 0


def _estimate(args):
    # delta-ci's interval takes z at 1 - alpha/2, validate's threshold z at 1 - alpha
    check_z_alpha(args.alpha, args.command == "delta-ci", "--alpha")
    data = load_csv(args.input, delimiter=args.delimiter, header=args.header)
    return delta_estimate(scaled_residuals(data), args.a)


def _emit_estimate(args, est, name: str, result, table: str) -> None:
    """``table`` text, json nesting ``result`` under ``name``, or one csv row."""
    if args.format == "table":
        text = table
    elif args.format == "json":
        text = json.dumps({"estimate": asdict(est), name: asdict(result)}, indent=2, sort_keys=True) + "\n"
    else:
        text = _render_rows("csv", [asdict(est) | asdict(result)])
    _emit(args, text)


def cmd_delta_ci(args) -> int:
    est = _estimate(args)
    ci = confidence_interval(est, args.alpha)
    _emit_estimate(
        args, est, "confidence_interval", ci,
        f"delta_hat  {est.delta_hat:.6f}\n"
        f"sigma_hat  {est.sigma_hat:.6f}\n"
        f"{100 * (1 - args.alpha):g}% CI     [{ci.lower:.6f}, {ci.upper:.6f}]\n",
    )
    return 0


def cmd_validate(args) -> int:
    check_delta0(args.delta0)
    est = _estimate(args)
    result = validation_test(est, args.delta0, args.alpha)
    verdict = "reject (validated: within delta0 of normality)" if result.reject else "retain"
    _emit_estimate(
        args, est, "validation", result,
        f"delta_hat  {est.delta_hat:.6f}\n"
        f"threshold  {result.threshold:.6f}\n"
        f"decision   {verdict}\n",
    )
    return 2 if result.reject else 0


def cmd_limit_quantile(args) -> int:
    _check_distinct("--d", args.d)
    _check_distinct("--a", args.a)
    for d, a in itertools.product(args.d, args.a):
        _check_cell(d, math.inf, a)
    rows = []
    for d, a in itertools.product(args.d, args.a):
        q = limit_quantile(d, a, args.alpha)
        rows.append({"d": d, "a": a, "alpha": args.alpha, "quantile": q})
        _progress(f"d={d} a={a:g}: limit quantile {q:.4f}")
    _emit(args, _render_rows(args.format, rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="normtest", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="run the normality test on a CSV file")
    _add_input(p)
    p.add_argument("--a", type=float, action="append", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--checkpoint", default=None, help="directory for resumable null-simulation state")
    _add_seed(p)
    _add_workers(p)
    _add_common(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("crit-table", help="simulate critical value tables")
    p.add_argument("--d", type=int, action="append", required=True)
    p.add_argument("--n", type=_parse_n, action="append", required=True, help="sample size or 'inf'")
    p.add_argument("--a", type=float, action="append", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--checkpoint", default=None, help="directory for resumable null-simulation state")
    _add_seed(p)
    _add_workers(p)
    _add_common(p)
    p.set_defaults(func=cmd_crit_table)

    p = sub.add_parser("power", help="empirical power study")
    p.add_argument("--alt", action="append", required=True, help="alternative spec, e.g. nmix:p=0.1,mu=3,sigma=I")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, action="append", default=[])
    p.add_argument("--competitor", action="append", default=[], help="e.g. bhep:0.5, hv:5, hvinf, bcmr, be:1")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--crit-reps", type=int, default=None, help="null replications for critical values")
    _add_seed(p)
    _add_workers(p)
    _add_common(p)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("delta-ci", help="distance estimate with confidence interval")
    _add_input(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    _add_common(p)
    p.set_defaults(func=cmd_delta_ci)

    p = sub.add_parser("validate", help="neighborhood-of-model validation test")
    _add_input(p)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--delta0", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "limit-quantile",
        help="quantile of the limiting null distribution, from its exact eigenvalues (no simulation)",
    )
    p.add_argument("--d", type=int, action="append", required=True)
    p.add_argument("--a", type=float, action="append", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    # the deleted sampler's flags, parsed and ignored until ROADMAP item 1 frees the benchmark from them
    for flag in ("--m", "--ell", "--seed"):
        p.add_argument(flag, type=int, help=argparse.SUPPRESS)
    _add_common(p)
    p.set_defaults(func=cmd_limit_quantile)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # refused before the command runs, not after its work is done
        if args.output and not os.path.isdir(os.path.dirname(os.path.abspath(args.output))):
            raise ValueError(f"--output {args.output}: directory {os.path.dirname(args.output)} does not exist")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
