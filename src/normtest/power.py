"""Monte Carlo power and size studies.

Critical values are simulated under the null (valid for every statistic here
by affine invariance), one null cell per column, on the same per-column keys
as ``crit-table``.  Rejection rates are then estimated under the chosen
alternatives, one cell per alternative row: every column of the row is
evaluated on the same replications, so the columns of a row are paired
comparisons, and a column's values do not depend on which other columns are
asked for.  All randomness flows through per-replication substreams of seeds
derived from (master seed, purpose, cell), so studies are reproducible and
independent of the worker count.
"""

from __future__ import annotations

import numpy as np

from .competitors import _TABLE, CompetitorSpec
from .nulldist import _NULL, Column, _cell, _check_cell, critical_value, mc_null_sample
from .parallel import ALT, CRIT, derive_seed, float_key
from .samplers import AlternativeSpec


def _cell_seed(seed: int, purpose: int, d: int, n: int, column: Column | None = None) -> int:
    """A study cell's seed; its key layouts are part of the reproducibility contract:
    (purpose, d, n, float_key(a)) for T at ``a``, (purpose, d, n, kind id, tuning) for a competitor,
    and (purpose, d, n) with no column, the key of a power row that all its columns share."""
    if column is None:
        key = ()
    elif isinstance(column, CompetitorSpec):
        tuning = float_key(column.tuning) if column.tuning is not None else 0
        key = (_TABLE[column.kind].seed_id, tuning)
    else:
        key = (float_key(column),)
    return derive_seed(seed, purpose, d, n, *key)


def _power_row(
    alt: AlternativeSpec, d: int, n: int, columns: tuple[Column, ...], replications: int, seed: int, *, workers
) -> np.ndarray:
    """The (replications, C) block of a power row: every column on the draws of the row key (ALT, d, n)."""
    return _cell(alt, d, n, columns, replications, _cell_seed(seed, ALT, d, n), workers=workers)


def _rate(values: np.ndarray, crit: float) -> float:
    """Share of ``values`` above ``crit``."""
    return float(np.mean(values > crit))


def t_critical_value(
    d: int, n: int, a: float, alpha: float, replications: int, seed: int, *, workers=1,
    checkpoint: str | None = None, progress: bool = False,
) -> float:
    vals = mc_null_sample(
        d, n, a, replications, _cell_seed(seed, CRIT, d, n, a),
        workers=workers, checkpoint=checkpoint, progress=progress,
    )
    return critical_value(vals, alpha)


def competitor_critical_value(
    comp: CompetitorSpec, d: int, n: int, alpha: float, replications: int, seed: int, *, workers=1
) -> float:
    vals = _cell(_NULL, d, n, (comp,), replications, _cell_seed(seed, CRIT, d, n, comp), workers=workers)
    return critical_value(vals[:, 0], alpha)


def t_power(
    alt: AlternativeSpec, d: int, n: int, a: float, crit: float, replications: int, seed: int, *, workers=1
) -> float:
    """Rejection rate of the main statistic against ``alt`` at a fixed critical value:
    its column of the power row, alone."""
    return _rate(_power_row(alt, d, n, (a,), replications, seed, workers=workers)[:, 0], crit)


def competitor_power(
    alt: AlternativeSpec, comp: CompetitorSpec, d: int, n: int, crit: float, replications: int, seed: int,
    *, workers=1,
) -> float:
    """Rejection rate of a competitor against ``alt`` at a fixed critical value:
    its column of the power row, alone."""
    return _rate(_power_row(alt, d, n, (comp,), replications, seed, workers=workers)[:, 0], crit)


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
    Each row is one cell: every column on the same replications, each column's
    values those of :func:`t_power` or :func:`competitor_power` run alone.
    ``crit_replications`` (default: same as ``replications``) controls the
    null simulations for the critical values, which are shared across rows.
    A study with no column, an invalid cell or no critical-value replication
    is refused before any simulation.
    """
    if not a_list and not competitors:
        raise ValueError("a power study needs at least one column: an a or a competitor")
    for alt in [_NULL, *alternatives]:
        for column in [*a_list, *competitors]:
            _check_cell(d, n, column, alt)
    crit_reps = replications if crit_replications is None else crit_replications
    if crit_reps < 1:
        raise ValueError(f"critical-value replications must be >= 1, got {crit_reps}")
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
    crits = [t_crit[a] for a in a_list] + [c_crit[comp] for comp in competitors]
    rows = []
    for alt in alternatives:
        block = _power_row(alt, d, n, (*a_list, *competitors), replications, seed, workers=workers)
        rows.append([100.0 * _rate(block[:, c], crit) for c, crit in enumerate(crits)])
        if progress:
            progress(f"done {alt.label()}")
    return columns, rows
