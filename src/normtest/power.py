"""Monte Carlo power and size studies.

Critical values are simulated under the null (valid for every statistic here
by affine invariance), then rejection rates are estimated under the chosen
alternatives.  All randomness flows through per-replication substreams of
seeds derived from (master seed, purpose, cell), so studies are reproducible
and independent of the worker count.
"""

from __future__ import annotations

import numpy as np

from . import parallel
from .competitors import CompetitorSpec, _evaluate
from .nulldist import critical_value, mc_null_sample
from .parallel import ALT, CRIT, derive_seed, float_key
from .samplers import AlternativeSpec, sample
from .standardize import _whiten
from .statistic import _scaled_t


def _alt_t_rep(rng: np.random.Generator, spec: AlternativeSpec, n: int, d: int, a: float) -> float:
    x = sample(spec, n, rng, d=d)
    return _scaled_t(_whiten(x)[0], a)


def _comp_rep(
    rng: np.random.Generator, spec: AlternativeSpec, n: int, d: int, comp: CompetitorSpec
) -> float:
    return _evaluate(comp, sample(spec, n, rng, d=d))


def t_critical_value(
    d: int, n: int, a: float, alpha: float, replications: int, seed: int, *, workers=1,
    checkpoint: str | None = None, progress: bool = False,
) -> float:
    vals = mc_null_sample(
        d, n, a, replications, derive_seed(seed, CRIT, d, n, float_key(a)),
        workers=workers, checkpoint=checkpoint, progress=progress,
    )
    return critical_value(vals, alpha)


def competitor_critical_value(
    comp: CompetitorSpec, d: int, n: int, alpha: float, replications: int, seed: int, *, workers=1
) -> float:
    tuning = float_key(comp.tuning) if comp.tuning is not None else 0
    vals = parallel.map_replications(
        _comp_rep,
        replications,
        derive_seed(seed, CRIT, d, n, KINDS_ID[comp.kind], tuning),
        args=(AlternativeSpec("std"), n, d, comp),
        workers=workers,
    )
    return critical_value(vals, alpha)


KINDS_ID = {"bhep": 10, "hjg": 11, "hv": 12, "hv_inf": 13, "bcmr": 14, "be": 15}


def t_power(
    alt: AlternativeSpec,
    d: int,
    n: int,
    a: float,
    crit: float,
    replications: int,
    seed: int,
    *,
    workers=1,
) -> float:
    """Rejection rate of the main statistic against ``alt`` at a fixed critical value."""
    vals = parallel.map_replications(
        _alt_t_rep,
        replications,
        derive_seed(seed, ALT, d, n, float_key(a)),
        args=(alt, n, d, a),
        workers=workers,
    )
    return float(np.mean(vals > crit))


def competitor_power(
    alt: AlternativeSpec,
    comp: CompetitorSpec,
    d: int,
    n: int,
    crit: float,
    replications: int,
    seed: int,
    *,
    workers=1,
) -> float:
    tuning = float_key(comp.tuning) if comp.tuning is not None else 0
    vals = parallel.map_replications(
        _comp_rep,
        replications,
        derive_seed(seed, ALT, d, n, KINDS_ID[comp.kind], tuning),
        args=(alt, n, d, comp),
        workers=workers,
    )
    return float(np.mean(vals > crit))


def power_matrix(
    alternatives: list[AlternativeSpec],
    d: int,
    n: int,
    a_list: list[float],
    competitors: list[CompetitorSpec],
    alpha: float,
    replications: int,
    seed: int,
    *,
    crit_replications: int | None = None,
    workers=1,
    progress=None,
) -> tuple[list[str], list[list[float]]]:
    """Rejection percentages, one row per alternative.

    Columns are the main statistic at each ``a`` followed by the competitors.
    ``crit_replications`` (default: same as ``replications``) controls the
    null simulations for the critical values, which are shared across rows.
    """
    crit_reps = crit_replications or replications
    columns = [f"t:{a:g}" for a in a_list] + [c.label() for c in competitors]
    t_crit = {}
    for a in a_list:
        t_crit[a] = t_critical_value(d, n, a, alpha, crit_reps, seed, workers=workers)
        if progress:
            progress(f"critical value t:{a:g} = {t_crit[a]:.4f}")
    c_crit = {}
    for comp in competitors:
        c_crit[comp] = competitor_critical_value(comp, d, n, alpha, crit_reps, seed, workers=workers)
        if progress:
            progress(f"critical value {comp.label()} = {c_crit[comp]:.4f}")
    rows = []
    for alt in alternatives:
        row = []
        for a in a_list:
            row.append(100.0 * t_power(alt, d, n, a, t_crit[a], replications, seed, workers=workers))
        for comp in competitors:
            row.append(
                100.0
                * competitor_power(alt, comp, d, n, c_crit[comp], replications, seed, workers=workers)
            )
        rows.append(row)
        if progress:
            progress(f"done {alt.label()}")
    return columns, rows
