"""Spans around calls into normtest's modules, and the per-layer metrics made
from them.

The layers are the package's modules.  Spans are recorded only from the
benchmark's own files: ``Tracer.installed`` replaces, for the length of a
traced command sequence, the module attributes through which the CLI and the
modules reach each other with wrappers that open a span (name, start, end,
parent, workload, request).  Nothing inside ``src/normtest`` is changed, and
pool workers run untraced.  Spans stay in memory and are written when the run
ends.  The layers with a memory metric record their ``tracemalloc`` peak only
while ``Tracer.peaks`` is set, on calls made for that purpose, so that no span
used for a time runs under ``tracemalloc``.

A workload's command sequence does not call every layer, so the traced run
then probes each layer directly on the workload's own inputs: per-call times
of the per-replication functions, a small call of every orchestration layer,
and the parallel efficiency of one Monte Carlo call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name, record the call's peak traced memory)
BOUNDARIES = (
    ("normtest.cli", "load_csv", "standardize.load_csv", False),
    ("normtest.standardize", "load_csv", "standardize.load_csv", False),
    ("normtest.cli", "scaled_residuals", "standardize.scaled_residuals", False),
    ("normtest.cli", "t_statistic", "statistic.t_statistic", True),
    ("normtest.statistic", "t_statistic", "statistic.t_statistic", True),
    ("normtest.cli", "mc_null_sample", "nulldist.mc_null_sample", False),
    ("normtest.power", "mc_null_sample", "nulldist.mc_null_sample", False),
    ("normtest.nulldist", "mc_null_sample", "nulldist.mc_null_sample", False),
    ("normtest.cli", "limit_quantile", "nulldist.limit_quantile", True),
    ("normtest.nulldist", "limit_quantile", "nulldist.limit_quantile", True),
    ("normtest.cli", "delta_estimate", "inference.delta_estimate", False),
    ("normtest.inference", "delta_estimate", "inference.delta_estimate", False),
    ("normtest.inference", "p_aggregates", "inference.p_aggregates", True),
    ("normtest.parallel", "map_replications", "parallel.map_replications", False),
    ("normtest.power", "t_critical_value", "power.t_critical_value", False),
    ("normtest.power", "competitor_critical_value", "power.competitor_critical_value", False),
    ("normtest.power", "t_power", "power.t_power", False),
    ("normtest.power", "competitor_power", "power.competitor_power", False),
)

# Each per-layer metric: unit, "better", and the end-to-end metric it should
# move (README.md also lists the workloads where each layer does most and
# least of its work).
LAYERS = {
    "parallel.substream_us": ("us", "lower", "reps_per_s"),
    "parallel.map_replications_s": ("s", "lower", "wall_s"),
    "parallel.pools_started": ("count", "lower", "wall_s"),
    "parallel.efficiency": ("ratio", "higher", "wall_s"),
    "standardize.residuals_us": ("us", "lower", "reps_per_s"),
    "standardize.load_csv_s": ("s", "lower", "wall_s"),
    "statistic.t_statistic_us": ("us", "lower", "reps_per_s"),
    "statistic.t_statistic_s": ("s", "lower", "wall_s"),
    "statistic.t_statistic_peak_mb": ("MB", "lower", "peak_rss_mb"),
    "samplers.sample_us": ("us", "lower", "reps_per_s"),
    "competitors.bhep_us": ("us", "lower", "reps_per_s"),
    "competitors.hv_us": ("us", "lower", "reps_per_s"),
    "competitors.hjg_us": ("us", "lower", "reps_per_s"),
    "power.t_critical_value_s": ("s", "lower", "wall_s"),
    "power.competitor_critical_value_s": ("s", "lower", "wall_s"),
    "power.t_power_s": ("s", "lower", "wall_s"),
    "power.competitor_power_s": ("s", "lower", "wall_s"),
    "nulldist.mc_null_sample_s": ("s", "lower", "wall_s"),
    "nulldist.limit_quantile_s": ("s", "lower", "wall_s"),
    "nulldist.limit_quantile_peak_mb": ("MB", "lower", "peak_rss_mb"),
    "inference.p_aggregates_s": ("s", "lower", "wall_s"),
    "inference.p_aggregates_peak_mb": ("MB", "lower", "peak_rss_mb"),
    "inference.delta_estimate_s": ("s", "lower", "wall_s"),
    "cli.self_s": ("s", "lower", "wall_s"),
    "trace.overhead_pct": ("%", "lower", "-"),
}

US_PERCENTILES = ("p50", "p99")


def metric_names() -> dict[str, tuple[str, str, str]]:
    """Every per-layer metric a traced run emits: name -> (unit, better, end-to-end metric it should move)."""
    out = {}
    for name, (unit, better, moves) in LAYERS.items():
        if unit == "us":
            for q in US_PERCENTILES:
                out[f"{name}.{q}"] = (unit, better, moves)
        else:
            out[name] = (unit, better, moves)
    return out


class Tracer:
    """In-memory span recorder for one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.request = None
        self.peaks = False  # record tracemalloc peaks of the layers that have a memory metric
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None,
               "workload": self.workload, "request": self.request, "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name: str, peak: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                if not (peak and self.peaks) or tracemalloc.is_tracing():
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()

        return traced

    @contextmanager
    def installed(self):
        """Trace the module boundaries while the block runs; restore them after."""
        tracer = self

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                with tracer.span("parallel.pool_started"):
                    super().__init__(*args, **kwargs)

        saved = []
        try:
            for module, attr, name, peak in BOUNDARIES:
                mod = importlib.import_module(module)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, peak))
            mod = importlib.import_module("normtest.parallel")
            saved.append((mod, "ProcessPoolExecutor", mod.ProcessPoolExecutor))
            mod.ProcessPoolExecutor = CountingPool
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path: str, extra: dict) -> None:
        spans = [dict(s, start=s["start"] - self.t0, end=s["end"] - self.t0) for s in self.spans]
        with open(path, "w") as f:
            json.dump(dict(extra, workload=self.workload, spans=spans), f)


def _cycle(items, count):
    return itertools.islice(itertools.cycle(items), count)


def probe(tracer: Tracer, wl, seed: int, workers: int, calls: int, workdir: str) -> None:
    """Time every layer directly on the workload's own inputs (request "probe...")."""
    from normtest import competitors, inference, nulldist, parallel, power, samplers, standardize, statistic

    p = wl.probe
    rng = np.random.default_rng(seed)
    specs = [samplers.parse_spec(s) for s in p.alts]
    blocks = p.blocks or [samplers.sample(specs[k % len(specs)], p.n, rng, d=p.d) for k in range(32)]
    items = [(x, p.a[k % len(p.a)]) for k, x in enumerate(blocks)]
    whitened = [(standardize.scaled_residuals(x), a) for x, a in items]

    def timed(metric: str, fn, arglists) -> None:
        tracer.request = "probe." + metric
        for args in arglists:
            with tracer.span(metric):
                fn(*args)

    # Per-call times, through the unwrapped functions.
    timed("parallel.substream_us", parallel.substream, ((seed, i) for i in range(calls)))
    timed("samplers.sample_us", samplers.sample, ((s, p.n, rng, p.d) for s in _cycle(specs, calls)))
    timed("standardize.residuals_us", standardize.scaled_residuals, ((x,) for x, _ in _cycle(items, calls)))
    timed("statistic.t_statistic_us", statistic.t_statistic, _cycle(whitened, calls))
    for kind, tuning in (("bhep", 0.5), ("hv", 5.0), ("hjg", 1.5)):
        fn = getattr(competitors, kind)
        timed(f"competitors.{kind}_us", fn, ((s, tuning) for s, _ in _cycle(whitened, calls)))

    d, n, a = p.d, p.n, p.a[0]
    x0 = blocks[0]
    with tracer.installed():
        # One small call of each orchestration layer, for workloads whose
        # commands never reach it.
        tracer.request = "probe"
        csv = p.csv
        if csv is None:
            csv = os.path.join(workdir, "probe.csv")
            np.savetxt(csv, x0, delimiter=",", fmt="%.17g")
        standardize.load_csv(csv)
        inference.delta_estimate(standardize.scaled_residuals(x0), a)
        comp = competitors.parse_competitor("bhep:0.5")
        reps = 200
        crit = power.t_critical_value(d, n, a, 0.05, reps, seed, workers=1)
        ccrit = power.competitor_critical_value(comp, d, n, 0.05, reps, seed, workers=1)
        power.t_power(specs[-1], d, n, a, crit, reps, seed, workers=1)
        power.competitor_power(specs[-1], comp, d, n, ccrit, reps, seed, workers=1)
        limit_config = nulldist.LimitSamplerConfig(m=200, ell=2000, seed=seed)
        nulldist.limit_quantile(d, a, 0.05, limit_config)

        # Memory peaks on calls of their own (t_statistic and p_aggregates run
        # inside delta_estimate).
        tracer.request, tracer.peaks = "probe.mem", True
        inference.delta_estimate(standardize.scaled_residuals(x0), a)
        nulldist.limit_quantile(d, a, 0.05, limit_config)
        tracer.peaks = False

        # t_1 / (w t_w) for one null simulation, after a warm-up call.
        tracer.request = "probe.efficiency"
        reps = 5 * calls
        nulldist.mc_null_sample(d, n, a, 256, seed, workers=workers)
        for w in (1, workers):
            with tracer.span(f"parallel.efficiency.w{w}"):
                nulldist.mc_null_sample(d, n, a, reps, seed, workers=w)


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def layer_metrics(tracer: Tracer, workers: int, untraced: list[float], traced: list[float]) -> dict:
    """Per-layer metrics: name -> (value, source, sample count).

    The source is "sequence" when the workload's commands called the layer
    (a time is then the median over traced sequences of the per-sequence
    total, a peak the largest in the sequence run for memory peaks), else
    "probe".
    """
    by_request: dict = {}
    children: dict = {}
    for s in tracer.spans:
        by_request.setdefault(s["request"], []).append(s)
        children.setdefault(s["parent"], []).append(s)
    sequences = [spans for req, spans in by_request.items() if str(req).startswith("seq-")]

    def per_sequence(reduce) -> tuple[float, str, int]:
        values = [v for v in map(reduce, sequences) if v is not None]
        return statistics.median(values), "sequence", len(values)

    out = {}
    for name, (unit, _better, _moves) in LAYERS.items():
        if unit == "us":
            samples = [1e6 * _dur(s) for s in by_request["probe." + name]]
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            out[f"{name}.p50"] = (statistics.median(samples), "probe", len(samples))
            out[f"{name}.p99"] = (cuts[98], "probe", len(samples))
        elif name == "cli.self_s":
            out[name] = per_sequence(lambda spans: sum(
                _dur(s) - sum(_dur(c) for c in children.get(s["id"], [])) for s in spans if s["name"] == "cli.main"))
        elif name == "parallel.pools_started":
            out[name] = per_sequence(lambda spans: sum(s["name"] == "parallel.pool_started" for s in spans))
        elif name == "parallel.efficiency":
            eff = {s["name"]: _dur(s) for s in by_request["probe.efficiency"] if s["name"].startswith(name)}
            out[name] = (eff[f"{name}.w1"] / (workers * eff[f"{name}.w{workers}"]), "probe", 1)
        elif name == "trace.overhead_pct":
            base = statistics.median(untraced)
            out[name] = (100.0 * (statistics.median(traced) - base) / base, "sequence", min(len(untraced), len(traced)))
        elif name.endswith("_peak_mb"):
            span_name = name.removesuffix("_peak_mb")
            for request, source in (("mem", "sequence"), ("probe.mem", "probe")):
                peaks = [s["peak_mb"] for s in by_request.get(request, []) if s["name"] == span_name]
                if peaks:
                    out[name] = (max(peaks), source, len(peaks))
                    break
        else:
            span_name = name.removesuffix("_s")

            def reduce(spans):
                hits = [s for s in spans if s["name"] == span_name]
                return sum(_dur(s) for s in hits) if hits else None

            if any(reduce(spans) is not None for spans in sequences):
                out[name] = per_sequence(reduce)
            else:
                out[name] = (reduce(by_request["probe"]), "probe", 1)
    return out
