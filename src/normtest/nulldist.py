"""Null distribution services for the scaled test statistic.

Monte Carlo critical values and p-values are exact parametric simulations:
affine invariance makes the null distribution parameter free, so sampling
from the standard normal suffices.  The large-sample regime is served by the
covariance kernel K of the limiting Gaussian process, the closed form of the
limit mean E(T_inf), and the limit law itself, computed without simulation.

The scaled statistic tends under H0 to sum_i lambda_i chi^2_1, where the
lambda_i are the eigenvalues of K's covariance operator under N(0, (2a)^{-1} I),
divided by d^2.  K and that measure are rotation invariant, so by Funk-Hecke
the operator splits by spherical-harmonic degree l: degree l contributes the
eigenvalues of one radial matrix, each with the multiplicity of the degree-l
harmonics (:func:`limit_eigenvalues`).  The quantile of the law comes from
inverting its characteristic function with a stated error bound
(:func:`limit_quantile`; Imhof, Biometrika 48, 1961; Davies, Biometrika 60,
1973).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from . import parallel, statistic
from .competitors import _TABLE, CompetitorSpec
from .samplers import AlternativeSpec, _check_dimension, _draw
from .standardize import _whiten, check_not_simplex, check_sample_size
from .statistic import StatisticValue, _scaled_t, check_alpha, check_range, check_tuning, scaling_factor


def kernel_K(s, t) -> float:
    """Covariance kernel K(s, t) of the limiting Gaussian process under H0."""
    s = np.asarray(s, dtype=float).ravel()
    t = np.asarray(t, dtype=float).ravel()
    if s.size != t.size:
        raise ValueError("s and t must have the same length")
    return float(_kernel(s @ s, t @ t, s @ t, s.size))


def _kernel(ns, nt, g, d: int):
    """K(s, t) from ns = |s|^2, nt = |t|^2 and g = s.t, the only ways it reads
    its points; the three broadcast against each other."""
    d2, d4 = d + 2.0, d + 4.0
    dsq = np.maximum(ns + nt - 2.0 * g, 0.0)
    part1 = np.exp(-0.5 * dsq) * ((dsq - d2) ** 2 - 2.0 * d2)
    brace = (
        -0.5 * g**2 * (ns - d4) * (nt - d4)
        + 2.0 * d2 * (ns + nt)
        - ns**2
        - nt**2
        - ns * nt
        - g * (ns - d2) * (nt - d2)
        - d * d2
    )
    return part1 + np.exp(-0.5 * (ns + nt)) * brace


def expected_limit(d: int, a: float) -> float:
    """Mean of the limiting null distribution of the raw statistic.

    Closed form obtained by integrating K(t, t) w_a(t) over R^d; the c_j
    coefficients are the radial Gaussian moments of that integrand.  The first
    difference (pi/a)^{d/2} - (pi/(a+1))^{d/2} is taken as
    (pi/a)^{d/2} (1 - (1 + 1/a)^{-d/2}), which does not cancel at large a.  An
    ``a`` at which the mean overflows or underflows is refused.  Checked in the
    tests against direct quadrature of K(t, t) w_a, against a many-digit
    evaluation of the closed form, and against the empirical mean of the
    simulated null statistic at large n.
    """
    a = _check_cell(d, math.inf, a)
    d = int(d)
    h = d / 2.0

    def c(j: int) -> float:
        return np.pi**h * d * (a + 1.0) ** -(h + j)

    try:
        mean = (
            d * (d + 2.0) * (np.pi / a) ** h * -math.expm1(-h * math.log1p(1.0 / a))
            - c(4) * (d + 2.0) * (d + 4.0) * (d + 6.0) / 32.0
            + c(3) * (d + 2.0) * (d + 3.0) * (d + 4.0) / 8.0
            - c(2) * (d + 2.0) * (d**2 + 4.0 * d + 14.0) / 8.0
            + c(1) * (2.0 - d) * (d + 2.0) / 2.0
        )
    except OverflowError:  # Python's float ** raises where the result leaves the float range
        mean = math.inf
    if not sys.float_info.min <= mean < math.inf:
        raise ValueError(f"the limit mean at d={d}, a={a:g} leaves the float range")
    return mean


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
    requires.  The draws are written ``_DRAWS // (n d)`` at a time (at least
    one), a budget in the size of the draws, into one stack, each generator
    into its slice; the pairwise kernel splits a
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
            xs = np.empty((min(block, len(rngs) - lo), n, d))
            for x, rng in zip(xs, stream):
                _draw(alt, rng, n, d, x)
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




# The limit law's quadrature.  Its node counts grow by half from _NODES_START
# until the trace sum m_i lambda_i is within _TRACE_TOL (relative) of
# expected_limit * scaling_factor; the radial rule stops at _RADIAL_MAX nodes,
# the cosine rule at _COSINE_MAX, and the degree matrices (degrees x radial x
# radial) at _ENTRIES_MAX doubles (32 MB), built _CHUNK kernel values at a time.
_TRACE_TOL = 1e-10
_NODES_START = 40
_RADIAL_MAX = 1000
_COSINE_MAX = 600
_ENTRIES_MAX = 2**22
_CHUNK = 2**17


def _counts(stop: int):
    """Node counts from _NODES_START, each half again the last, ending at ``stop``."""
    n = _NODES_START
    while n < stop:
        yield n
        n += n // 2
    yield stop


def _gauss_rule(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and probability weights of the Gauss rule of a Jacobi matrix (Golub-Welsch)."""
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, vectors[0] ** 2


def _radial_rule(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Gauss-Laguerre rule of n nodes, parameter d/2 - 1: the law of
    a |t|^2 for t ~ N(0, (2a)^{-1} I), a Gamma(d/2) variable."""
    i = np.arange(1, n)
    return _gauss_rule(2.0 * np.arange(n) + d / 2.0, np.sqrt(i * (i + d / 2.0 - 1.0)))


def _cosine_rule(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule (alpha = beta = (d-3)/2) of n nodes for the cosine of
    the angle between two uniform directions on S^{d-1}; at d = 1 the two
    directions are +-1.  The recurrence's first coefficient is 1/d, which at
    d = 2 (Chebyshev) the general formula leaves as 0/0."""
    if d == 1:
        return np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    k = np.arange(2.0, n)
    beta = np.concatenate([[1.0 / d], k * (k + d - 3.0) / ((2.0 * k + d - 2.0) * (2.0 * k + d - 4.0))])
    return _gauss_rule(np.zeros(n), np.sqrt(beta))


def _gegenbauer(x: np.ndarray, degrees: int, d: int) -> np.ndarray:
    """The (degrees, x.size) values P_l(x), l < degrees, of the Gegenbauer
    polynomials of S^{d-1} normalised to P_l(1) = 1 (Legendre at d = 3)."""
    p = np.ones((degrees, x.size))
    if degrees > 1:
        p[1] = x
    for l in range(1, degrees - 1):
        p[l + 1] = ((2 * l + d - 2) * x * p[l] - l * p[l - 1]) / (l + d - 2)
    return p


def _harmonics(l: int, d: int) -> int:
    """Dimension of the spherical harmonics of degree l on S^{d-1}."""
    return math.comb(l + d - 1, l) - (math.comb(l + d - 3, l - 2) if l >= 2 else 0)


def limit_eigenvalues(d: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the scaled limit law sum_i lambda_i chi^2_1 and their multiplicities.

    Returns ``(lam, mult)``, the positive eigenvalues of K's covariance
    operator under N(0, (2a)^{-1} I), divided by d^2, in decreasing order, and
    how often each occurs.  Degree l of the spherical harmonics contributes
    the eigenvalues of one radial matrix, built from a Gauss-Laguerre rule in
    a|t|^2 and a Gauss-Jacobi rule in the cosine against P_l, each with
    multiplicity C(l+d-1, l) - C(l+d-3, l-2).  The node counts grow until
    sum(mult * lam) is within _TRACE_TOL of the closed-form mean; an ``a``
    whose law the node budget cannot resolve is refused, naming the trace
    error reached.
    """
    a = _check_cell(d, math.inf, a)
    d = int(d)

    def refuse(err: float, nodes: str):
        raise ValueError(
            f"the limit law at d={d}, a={a:g} is not resolved within its quadrature budget: "
            f"trace error {err:.1e} (tolerance {_TRACE_TOL:g}) at {nodes}"
        )

    trace = expected_limit(d, a) * scaling_factor(d, a)
    # the kernel values overflow at extreme a; the trace check then refuses them
    with np.errstate(all="ignore"):
        # the radial rule alone, on the diagonal K(t, t), to half the tolerance
        for n in _counts(_RADIAL_MAX):
            u, w = _radial_rule(n, d)
            r2 = u / a
            diag = _kernel(r2, r2, r2, d)
            err = abs(w @ diag / d**2 - trace) / abs(trace)
            if not err > _TRACE_TOL / 2:
                break
        if not err <= _TRACE_TOL / 2:
            refuse(err, f"{n} radial nodes")
        # the cosine rule, as many degrees as nodes: sum_l mult_l P_l(x) against K(t, t x) rebuilds K(t, t),
        # to what the radial error leaves of nine tenths of the tolerance (a tenth is left to roundoff)
        angular_tol = 0.9 * _TRACE_TOL - err
        if d == 1:
            x, v = _cosine_rule(2, d)  # the even and the odd part, exactly
        else:
            for m in _counts(min(_ENTRIES_MAX // n**2, _COSINE_MAX)):
                x, v = _cosine_rule(m, d)
                z = np.array([_harmonics(l, d) for l in range(m)]) @ _gegenbauer(x, m, d)
                rebuilt = _kernel(r2[:, None], r2[:, None], r2[:, None] * x, d) @ (v * z)
                err = w @ np.abs(rebuilt - diag) / d**2 / abs(trace)
                if not err > angular_tol:
                    break
            if not err <= angular_tol:
                refuse(err, f"{n} radial and {m} cosine nodes")
        # one radial matrix per degree, accumulated over chunks of cosine nodes
        degrees = x.size
        vp = (v * _gegenbauer(x, degrees, d)).T
        r = np.sqrt(r2)
        mats = np.zeros((degrees, n, n))
        step = max(1, _CHUNK // n**2)
        for lo in range(0, x.size, step):
            k = _kernel(r2[:, None, None], r2[None, :, None], np.multiply.outer(np.outer(r, r), x[lo : lo + step]), d)
            mats += np.tensordot(vp[lo : lo + step], k, axes=(0, 2))
    root = np.sqrt(w) / d
    mats *= np.outer(root, root)
    lam = np.linalg.eigvalsh(mats).ravel()
    mult = np.repeat([_harmonics(l, d) for l in range(degrees)], n)
    err = abs(mult @ lam - trace) / abs(trace)
    if not err <= _TRACE_TOL:
        refuse(err, f"{n} radial and {x.size} cosine nodes")
    order = np.argsort(lam)[::-1]
    keep = order[lam[order] > 0.0]
    return lam[keep], mult[keep]


# The inversion's error: at most _CDF_TOL / 2 for every x of the bracket, a
# quarter of _CDF_TOL spent on the rule's step (aliasing), _TRUNCATION_TOL on
# its truncation and _TAIL_TOL on the first-order terms of the small
# eigenvalues (the two together the other quarter), the rest left to roundoff;
# at most _TERMS_MAX terms; the quantile is bisected to _QUANTILE_TOL relative.
# An alpha or 1 - alpha below _ALPHA_MIN, where the CDF's error could be more
# than 5e-4 of it, is refused.
_CDF_TOL = 1e-10
_TAIL_TOL = _CDF_TOL / 40
_TRUNCATION_TOL = _CDF_TOL / 4 - _TAIL_TOL
_TERMS_MAX = 2**22
_QUANTILE_TOL = 1e-10
_ALPHA_MIN = 1e3 * _CDF_TOL


def _check_limit_alpha(alpha: float) -> float:
    """Check that the inversion resolves ``alpha``: in (0, 1), neither it nor 1 - alpha below _ALPHA_MIN."""
    alpha = check_alpha(alpha)
    if min(alpha, 1.0 - alpha) < _ALPHA_MIN:
        raise ValueError(
            f"alpha={alpha:g} is beyond the limit law's inversion: alpha and 1 - alpha must be at least "
            f"{_ALPHA_MIN:g}, 1e3 times its CDF tolerance {_CDF_TOL:g}"
        )
    return alpha


def _chernoff(lam: np.ndarray, mult: np.ndarray, alpha: float) -> tuple[float, float, float]:
    """Chernoff bounds of Q = sum mult_i lam_i chi^2_1: ``(lo, hi, tail)`` with
    P(Q <= lo) <= 1 - alpha and P(Q > hi) <= alpha, so that lo <= the
    (1-alpha) quantile <= hi, and P(Q > lo + tail) <= _CDF_TOL / 4.
    Any t gives a bound; each is taken at the best of a grid of t."""
    f = np.concatenate([np.geomspace(1e-6, 0.5, 64), 1.0 - np.geomspace(1e-9, 0.5, 64)])
    t = f / (2.0 * lam[0])  # P(Q > y) <= exp(cgf(t) - t y), 0 < t < 1 / (2 lam_max)
    cgf = -0.5 * np.log1p(-2.0 * np.multiply.outer(t, lam)) @ mult
    s = np.geomspace(1e-6, 1e12, 64) / (2.0 * lam[0])  # P(Q <= y) <= exp(s y + lt(s)), s > 0
    lt = -0.5 * np.log1p(2.0 * np.multiply.outer(s, lam)) @ mult
    lo = float(np.max((math.log1p(-alpha) - lt) / s))
    hi = float(np.min((cgf - math.log(alpha)) / t))
    tail = float(np.min((cgf - math.log(_CDF_TOL / 4.0)) / t)) - lo
    if not lo > 0.0:
        raise ValueError(f"alpha={alpha:g} is too close to 1 for the limit law's inversion")
    return lo, hi, tail


def _phase(lam: np.ndarray, mult: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """beta(u) = (1/2) sum mult arctan(2 lam u) and log rho(u) = (1/4) sum mult log1p(4 lam^2 u^2)
    over the eigenvalues ``lam``, _CHUNK values at a time."""
    beta, log_rho = np.empty(u.size), np.empty(u.size)
    rows = max(1, _CHUNK // max(lam.size, 1))
    for lo in range(0, u.size, rows):
        uk = u[lo : lo + rows, None]
        beta[lo : lo + rows] = 0.5 * np.arctan(2.0 * lam * uk) @ mult
        log_rho[lo : lo + rows] = 0.25 * np.log1p(4.0 * lam**2 * uk**2) @ mult
    return beta, log_rho


def _limit_cdf(lam: np.ndarray, mult: np.ndarray, lo: float, hi: float, tail: float, cell: str):
    """P(Q <= x) for Q = sum mult_i lam_i chi^2_1, within _CDF_TOL / 2 for lo <= x <= hi.

    ``lam`` is in decreasing order.  Imhof's integral
    F(x) = 1/2 - (1/pi) int_0^inf sin(beta(u) - u x) / (u rho(u)) du,
    beta(u) = (1/2) sum mult arctan(2 lam u), rho(u) = prod (1 + 4 lam^2 u^2)^{mult/4},
    by the midpoint rule of step 2 pi / T on its first K terms (Davies, 1973).
    The rule adds sum_j (-1)^j [F(x - jT) - P(Q > x + jT)] to F(x): T > 2 hi makes
    every F(x - jT) zero, and T >= ``tail`` bounds the rest by P(Q > lo + tail).
    The terms from K on, an Abel sum, are bounded by the total variation of
    phi(u) / u past u_K (phi the characteristic function of Q) over |sin(pi x / T)|, the bound on the partial sums of
    e^{-i u_k x}; beyond U, the eigenvalues with 2 lam U >= 4 (the big ones) make |phi(u)|
    decay at least like (U/u)^kappa, kappa half their multiplicity.

    The eigenvalues of a tail enter to first order, u sum mult lam in beta and
    u^2 sum mult lam^2 in log rho.  As x - arctan x <= x^3/3 and
    y - log1p y <= y^2/2 for x, y >= 0, and |phi| <= |phi_big|, that moves the
    result by at most sum_k |phi_big(u_k)| / (pi k) ((4/3) S3 u_k^3 + 2 S4 u_k^4),
    S3 and S4 the tail's sums of mult lam^3 and mult lam^4; the tail is the
    longest run of the smallest eigenvalues, none of them big, whose bound is
    within _TAIL_TOL.  The beta and rho of each term are computed once; each x
    then costs K sines.
    """
    period = max(tail, 2.0 * hi)
    step = 2.0 * math.pi / period
    sine = min(math.sin(math.pi * lo / period), math.sin(math.pi * hi / period))
    u_end = 2.5 / lam[0]  # past 4 / (2 lam_max), so that lam_max is among the big ones
    while True:
        big = 2.0 * lam * u_end >= 4.0
        kappa = 0.5 * mult[big].sum()
        small = mult[~big] @ lam[~big]
        log_phi = -0.25 * mult @ np.log1p(4.0 * lam**2 * u_end**2) + 0.5 * kappa * math.log1p(1.0 / 16.0)
        if step / (math.pi * sine) * math.exp(log_phi) * (1.0 / u_end + small / kappa) <= _TRUNCATION_TOL:
            break
        u_end *= 1.25
    terms = math.ceil(u_end / step)
    if terms > _TERMS_MAX:
        raise ValueError(f"inverting the limit law at {cell} needs {terms} terms, more than its budget of {_TERMS_MAX}")
    k = np.arange(terms) + 0.5
    u = k * step
    nbig = int(big.sum())  # lam decreases, so the big eigenvalues are its first nbig
    beta, log_rho = _phase(lam[:nbig], mult[:nbig], u)
    weight = np.exp(-log_rho) / (math.pi * k)  # |phi_big(u_k)| / (pi k)
    s3 = np.cumsum((mult * lam**3)[::-1])[::-1]  # the sums over lam[i:]
    s4 = np.cumsum((mult * lam**4)[::-1])[::-1]
    bound = np.append(4.0 / 3.0 * s3 * (weight @ u**3) + 2.0 * s4 * (weight @ u**4), 0.0)  # the last folds none
    head = max(nbig, int(np.argmax(bound <= _TAIL_TOL)))
    b, r = _phase(lam[nbig:head], mult[nbig:head], u)
    beta += b + u * (mult[head:] @ lam[head:])
    log_rho += r + u**2 * (mult[head:] @ lam[head:] ** 2)
    amp = np.exp(-log_rho) / (math.pi * k)
    return lambda x: 0.5 - float(np.sin(beta - u * x) @ amp)


# A shim for callers of the deleted sampler; delete it with ROADMAP item 1.
@dataclass(frozen=True)
class LimitSamplerConfig:
    """Inert: the limit law is exact and reads none of these fields.  Kept, with
    its fields and defaults, for callers that still pass one (ROADMAP item 1)."""

    m: int = 1000
    ell: int = 100_000
    seed: int = 0


def limit_quantile(d: int, a: float, alpha: float, config: LimitSamplerConfig | None = None) -> float:
    """The (1-alpha) quantile of the scaled limiting statistic, sum_i lambda_i chi^2_1.

    The eigenvalues come from :func:`limit_eigenvalues`, the CDF from
    :func:`_limit_cdf` within _CDF_TOL / 2 on a Chernoff bracket of the quantile,
    which is bisected to _QUANTILE_TOL relative.  An alpha or 1 - alpha below
    _ALPHA_MIN is refused.  Nothing is simulated, so the value is
    deterministic; ``config`` is ignored (ROADMAP item 1).
    """
    alpha = _check_limit_alpha(alpha)
    lam, mult = limit_eigenvalues(d, a)
    lo, hi, tail = _chernoff(lam, mult, alpha)
    cdf = _limit_cdf(lam, mult, lo, hi, tail, f"d={d}, a={a:g}")
    while hi - lo > _QUANTILE_TOL * hi:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < 1.0 - alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
