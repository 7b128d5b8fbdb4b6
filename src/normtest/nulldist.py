"""Null distribution services for the scaled test statistic.

Monte Carlo critical values and p-values are exact parametric simulations:
affine invariance makes the null distribution parameter free, so sampling
from the standard normal suffices.  The large-sample regime is served by the
covariance kernel K of the limiting Gaussian process, a sampler for the
limiting distribution at finitely many random support points, and the closed
form of the limit mean E(T_inf).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from . import parallel, statistic
from .competitors import _TABLE, CompetitorSpec
from .samplers import AlternativeSpec, _check_dimension, _draw
from .standardize import _whiten, check_not_simplex, check_sample_size
from .statistic import StatisticValue, _scaled_t, check_alpha, check_range, check_tuning, scaling_factor


class KernelNotPSD(ValueError):
    """Kernel matrix is indefinite beyond what roundoff repair can explain."""


def kernel_K(s, t, d: int | None = None) -> float:
    """Covariance kernel K(s, t) of the limiting Gaussian process under H0."""
    s = np.asarray(s, dtype=float).ravel()
    t = np.asarray(t, dtype=float).ravel()
    if d is None:
        d = s.size
    if s.size != d or t.size != d:
        raise ValueError("s and t must be d-vectors")
    return float(_kernel_matrix(np.vstack([s, t]), d)[0, 1])


def _kernel_matrix(u: np.ndarray, d: int) -> np.ndarray:
    """K evaluated on all pairs of rows of u, vectorized."""
    ns = np.einsum("ij,ij->i", u, u)
    g = u @ u.T
    d2, d4 = d + 2.0, d + 4.0
    dsq = np.maximum(ns[:, None] + ns[None, :] - 2.0 * g, 0.0)
    part1 = np.exp(-0.5 * dsq) * ((dsq - d2) ** 2 - 2.0 * d2)
    brace = (
        -0.5 * g**2 * (ns[:, None] - d4) * (ns[None, :] - d4)
        + 2.0 * d2 * (ns[:, None] + ns[None, :])
        - ns[:, None] ** 2
        - ns[None, :] ** 2
        - ns[:, None] * ns[None, :]
        - g * (ns[:, None] - d2) * (ns[None, :] - d2)
        - d * d2
    )
    psi = np.exp(-0.5 * ns)
    return part1 + np.outer(psi, psi) * brace


def expected_limit(d: int, a: float) -> float:
    """Mean of the limiting null distribution of the raw statistic.

    Closed form obtained by integrating K(t, t) w_a(t) over R^d; the c_j
    coefficients are the radial Gaussian moments of that integrand.  Checked
    in the tests against direct quadrature of K(t, t) w_a and against the
    empirical mean of the simulated null statistic at large n.
    """
    a = _check_cell(d, math.inf, a)
    d = int(d)

    def c(j: int) -> float:
        return np.pi ** (d / 2.0) * d / (a + 1.0) ** (d / 2.0 + j)

    return float(
        d * (d + 2.0) * ((np.pi / a) ** (d / 2.0) - (np.pi / (a + 1.0)) ** (d / 2.0))
        - c(4) * (d + 2.0) * (d + 4.0) * (d + 6.0) / 32.0
        + c(3) * (d + 2.0) * (d + 3.0) * (d + 4.0) / 8.0
        - c(2) * (d + 2.0) * (d**2 + 4.0 * d + 14.0) / 8.0
        + c(1) * (2.0 - d) * (d + 2.0) / 2.0
    )


_NULL = AlternativeSpec("std")


Column = float | CompetitorSpec  # T at a float ``a``, or a competitor

# Draw budget of one Monte Carlo stack, in doubles: 64 KB of draws, so a stack
# holds max(1, _DRAWS // (n d)) samples, and the pairwise kernel evaluates it
# in sub-stacks under its own _BLOCK^2 budget.  At twice this budget a stack's
# temporaries outgrew glibc's heap trim threshold, and every stack faulted its
# memory in afresh (23 000 page faults in 10^4 replications at n=50, d=4).
_DRAWS = statistic._BLOCK**2 // 8


def _rep(
    rngs: Collection[np.random.Generator], alt: AlternativeSpec, n: int, d: int, columns: tuple[Column, ...]
) -> np.ndarray:
    """Every Monte Carlo replication of a cell: the (k, C) block whose row i is
    each of the C ``columns`` on one draw from ``alt`` with the i-th generator;
    ``alt`` is ``_NULL`` for a null distribution.

    Replication i draws from the i-th generator only, and its draw is made
    before the next generator is taken, as :func:`parallel.map_replications`
    requires.  The draws are stacked ``_DRAWS // (n d)`` at a time (at least
    one), a budget in the size of the draws; the pairwise kernel splits a
    stack further under its own n^2 budget.  Each stack is whitened once if
    some column reads the residuals, and every column is evaluated on them
    (bcmr on the raw draws), so a column's values do not depend on the other
    columns, and each is bit for bit that of the sample on its own.  The
    draws skip ``samplers.sample``'s checks: :func:`_check_cell` made them
    once for the cell.
    """
    block = max(1, _DRAWS // (n * d))
    rows = [_TABLE[column.kind] if isinstance(column, CompetitorSpec) else None for column in columns]
    whiten = any(row is None or not row.raw for row in rows)
    out = np.empty((len(rngs), len(columns)))
    stream = iter(rngs)
    # an overflowing replicate is inf, which critical_value names; a nan one
    # (an invalid operation) still warns, as nothing else reports it
    with np.errstate(over="ignore"):
        for lo in range(0, len(rngs), block):
            xs = np.stack([_draw(alt, rng, n, d) for rng in itertools.islice(stream, block)])
            y = _whiten(xs)[0] if whiten else None
            for c, (column, row) in enumerate(zip(columns, rows)):
                if row is None:
                    out[lo : lo + block, c] = _scaled_t(y, column)
                else:
                    out[lo : lo + block, c] = row.statistic(xs if row.raw else y, column.tuning)
    return out


def _check_cell(d: int, n: float, column: Column, alt: AlternativeSpec = _NULL) -> Column:
    """Check the cell ``column`` on n draws of ``alt`` in dimension d, n = math.inf
    for the limit law; return the column, a float ``a`` normalised.  A finite n
    must be at least d+2 (:func:`check_not_simplex`), and at finite n an ``a``
    must keep T's constants in the float range (:func:`check_range`)."""
    check_sample_size(n, d)
    check_not_simplex(n, d)
    _check_dimension(alt, d)
    if not isinstance(column, CompetitorSpec):
        return check_tuning(column) if math.isinf(n) else check_range(d, column)
    if d > 1 and _TABLE[column.kind].univariate:
        raise ValueError(f"{column.kind} is univariate")
    return column


def _cell(
    alt: AlternativeSpec, d: int, n: int, columns: tuple[Column, ...], replications: int, seed: int,
    *, workers: int | None = 1, checkpoint: str | None = None, progress: bool = False,
) -> np.ndarray:
    """The one Monte Carlo run of a cell: the (replications, C) block whose row i
    is every one of the C ``columns`` on the one draw from ``alt`` made with
    ``substream(seed, i)``, in replication order.  A competitor's preparation
    runs here, in the parent, so that the workers of a pool inherit it."""
    columns = tuple(_check_cell(d, n, column, alt) for column in columns)
    for column in columns:
        if isinstance(column, CompetitorSpec) and (prepare := _TABLE[column.kind].prepare):
            prepare(n)
    args = (alt, n, d, columns)
    return parallel.map_replications(
        _rep, replications, seed, args=args, workers=workers, checkpoint=checkpoint, progress=progress
    )


def mc_null_sample(
    d: int, n: int, a: float | tuple[float, ...], replications: int, seed: int,
    *, workers: int | None = 1, checkpoint: str | None = None, progress: bool = False,
) -> np.ndarray:
    """Simulate the scaled statistic under H0; returns the sorted sample.

    A float ``a`` gives the sorted (replications,) sample.  A tuple of C
    values gives the (replications, C) block, each column sorted: every
    ``a`` is evaluated on the same draws, made once, and column c is bit for
    bit the sample of ``a[c]`` alone.  Deterministic given ``seed``:
    replication i uses the substream derived from (seed, i), so values do
    not depend on the worker count.
    """
    columns = a if isinstance(a, tuple) else (a,)
    vals = _cell(_NULL, d, n, columns, replications, seed, workers=workers, checkpoint=checkpoint, progress=progress)
    vals.sort(axis=0)
    return vals if isinstance(a, tuple) else vals[:, 0]


def critical_value(samples, alpha: float) -> float:
    """Empirical (1-alpha) quantile: the ceil((1-alpha) N)-th order statistic.

    A sample holding a nan, a replicate whose statistic failed, is refused,
    and so is a quantile that is infinite, a replicate that overflowed.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    check_alpha(alpha)
    failed = int(np.isnan(x).sum())
    if failed:
        raise ValueError(f"{failed} of {x.size} replicates are nan; a critical value needs all of them")
    x = np.sort(x)
    k = math.ceil((1.0 - alpha) * x.size)
    q = float(x[max(k, 1) - 1])
    if not math.isfinite(q):
        overflowed = int(np.isinf(x).sum())
        raise ValueError(f"{overflowed} of {x.size} replicates overflowed; the critical value is {q}")
    return q


def pvalue_mc(
    observed: StatisticValue | float,
    d: int,
    n: int,
    a: float,
    replications: int,
    seed: int,
    *,
    workers: int | None = 1,
) -> float:
    """Monte Carlo p-value (1 + #{replicates >= observed}) / (R + 1).

    ``observed`` is compared on the scaled statistic; a ``nan``, which no replicate reaches, is refused.
    A :class:`StatisticValue` computed at other (n, d, a) than the null's is refused too.
    """
    if isinstance(observed, StatisticValue):
        if (observed.n, observed.d, observed.a) != (n, d, a):
            raise ValueError(
                f"observed statistic is at (n={observed.n}, d={observed.d}, a={observed.a:g}), "
                f"the null at (n={n}, d={d}, a={a:g}): no p-value across cells"
            )
        obs = observed.scaled
    else:
        obs = float(observed)
    if math.isnan(obs):
        raise ValueError("observed statistic is nan: no p-value")
    return _pvalue(mc_null_sample(d, n, a, replications, seed, workers=workers), obs)


def _pvalue(null: np.ndarray, observed: float) -> float:
    """(1 + #{null >= observed}) / (R + 1) for a null sample of R replicates."""
    return (1.0 + int(np.sum(null >= observed))) / (null.size + 1.0)


# Jitter added to the diagonal of the limit sampler's kernel matrix, as a
# multiple of its mean diagonal entry; every published limit quantile used it.
_JITTER = 1e-10


@dataclass(frozen=True)
class LimitSamplerConfig:
    """Support-point and replicate counts for the limit-quantile sampler."""

    m: int = 1000
    ell: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("need at least m=2 support points")
        if self.ell < 1:
            raise ValueError("need at least one replicate")


def limit_quantile(d: int, a: float, alpha: float, config: LimitSamplerConfig) -> float:
    """Approximate the (1-alpha) quantile of the scaled limiting statistic.

    Draws m support points U_k ~ N_d(0, (2a)^{-1} I) matched to the weight
    w_a, forms the kernel matrix K(U_i, U_j), then simulates ell replicates
    of ||X||^2 / (d^2 m) with X ~ N_m(0, Sigma_K) and returns their empirical
    quantile.  The normalization is the importance-sampling identity
    int z^2 w_a = (pi/a)^{d/2} E[z(U)^2] combined with the table scaling.

    The replicates are evaluated in the eigenbasis of Sigma_K: with
    eigenvalues lambda_i (clipped at zero) and X = Q diag(sqrt(lambda)) g,
    ||X||^2 = sum_i lambda_i g_i^2 exactly, so no eigenvectors are formed and
    each replicate costs m normal draws and one dot product.  The draws are
    streamed through one buffer of about 2^20 doubles, so working memory is
    O(m^2) plus the ell results, and the draws do not depend on the chunking.
    """
    a = _check_cell(d, math.inf, a)
    check_alpha(alpha)
    rng = parallel.substream(config.seed)
    u = rng.normal(scale=np.sqrt(0.5 / a), size=(config.m, d))
    sk = _kernel_matrix(u, d)
    sk = 0.5 * (sk + sk.T)
    sk[np.diag_indices_from(sk)] += _JITTER * np.trace(sk) / config.m
    w = np.linalg.eigvalsh(sk)
    scale = max(float(w[-1]), 1.0)
    if w[0] < -1e-8 * scale:
        raise KernelNotPSD(f"kernel matrix eigenvalue {w[0]:.3e} below -1e-8 * scale")
    weights = np.clip(w, 0.0, None) / (d**2 * config.m)
    zs = np.empty(config.ell)
    chunk = max(1, min(config.ell, 2**20 // config.m))
    buf = np.empty((chunk, config.m))
    for lo in range(0, config.ell, chunk):
        hi = min(lo + chunk, config.ell)
        g = buf[: hi - lo]
        rng.standard_normal(out=g)
        np.square(g, out=g)
        zs[lo:hi] = g @ weights
    return critical_value(zs, alpha)
