"""Reference implementations of competing normality test statistics.

All are affine invariant (the univariate ones location-scale invariant) and
reject for large values; critical values are obtained by the same
parametric Monte Carlo machinery as the main statistic.

Multivariate: the ECF-based statistic here called bhep, the MGF-distance
statistic hjg (smoothing beta > 1), the MGF differential-characterization
statistic hv (gamma > 2) and its skewness-combination limit hv_inf.
Univariate only: the Wasserstein-distance statistic bcmr and the zero-bias
transformation statistic be (fixed tuning; no bootstrap selection).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from .samplers import _number
from .standardize import StandardizedSample, _whiten, _whitenable
from .statistic import _affine_factors, _exp, _Kernel, _mardia_skewness, _mrs_skewness, _pairwise_sum


@dataclass(frozen=True)
class CompetitorSpec:
    """A competitor statistic plus its tuning constant, defaulted for a kind that takes one."""

    kind: str
    tuning: float | None = None

    def __post_init__(self):
        if self.kind not in _TABLE:
            raise ValueError(f"unknown competitor {self.kind!r}; choose from {KINDS}")
        row = _TABLE[self.kind]
        if row.bound is None:
            if self.tuning is not None:
                raise ValueError(f"{self.kind} takes no tuning, got {self.tuning!r}")
        else:
            if self.tuning is None:
                object.__setattr__(self, "tuning", row.default)
            _check_tuning(self.kind, self.tuning)

    def label(self) -> str:
        return self.kind if self.tuning is None else f"{self.kind}:{self.tuning:g}"


def _check_tuning(kind: str, tuning: float) -> float:
    """The tuning of a kind that takes one, if finite and strictly above the kind's bound."""
    name, bound = _TABLE[kind].bound
    if isinstance(tuning, str) or not (math.isfinite(tuning) and tuning > bound):
        raise ValueError(f"{kind} requires a finite {name} > {bound:g}, got {tuning!r}")
    return tuning


def parse_competitor(text: str) -> CompetitorSpec:
    """Parse strings like ``bhep:0.5``, ``hv:5``, ``hvinf``, ``bcmr``."""
    head, sep, rest = text.strip().lower().partition(":")
    head = {"hvinf": "hv_inf"}.get(head, head)
    tuning = _number(rest) if sep and rest else None  # CompetitorSpec refuses a string, naming both
    return CompetitorSpec(kind=head, tuning=tuning)


def bhep(sample: StandardizedSample, a: float) -> float:
    """ECF-based statistic with Gaussian smoothing parameter a > 0."""
    return float(_bhep(sample.residuals, _check_tuning("bhep", a)))


def _bhep(y: np.ndarray, a: float) -> np.ndarray:
    """:func:`bhep` of each slice of a (..., n, d) residual stack."""
    n, d = y.shape[-2:]
    r = np.einsum("...ij,...ij->...i", y, y)

    term1 = _pairwise_sum(_bhep_kernel(y, r, a)) / n**2
    term2 = (
        2.0
        * (1.0 + a * a) ** (-d / 2.0)
        * np.mean(np.exp(-0.5 * a * a * r / (1.0 + a * a)), axis=-1)
    )
    term3 = (1.0 + 2.0 * a * a) ** (-d / 2.0)
    return term1 - term2 + term3


def _bhep_kernel(y: np.ndarray, r: np.ndarray, a: float) -> _Kernel:
    """Kernel exp(-a^2/2 ||Y_j - Y_k||^2), its exponent clipped at 0 and exactly 0 on the diagonal."""
    left, right = _affine_factors(y, r, (a * a, -0.5 * a * a, 0.0))

    def finish(e):
        np.minimum(e[0], 0.0, out=e[0])
        return np.exp(e[0], out=e[0])

    return _Kernel(left, right, np.zeros(left.shape[:-1]), finish)


def _finite(kind: str, tuning: float | None, y: np.ndarray, value) -> float:
    """A public competitor value on residuals ``y``; one that overflowed raises instead.

    Inside Monte Carlo loops the stacked statistics skip this check, and +inf
    there is a correct rejection.
    """
    value = float(value)
    if not math.isfinite(value):
        rmax = float(np.einsum("ij,ij->i", y, y).max())
        raise ValueError(
            f"{CompetitorSpec(kind, tuning).label()} is {value} at n={len(y)}: "
            f"max ||Y_j||^2 = {rmax:.6g} overflows its exponential weight"
        )
    return value


def hjg(sample: StandardizedSample, beta: float) -> float:
    """MGF-distance statistic; beta > 1 keeps all three terms finite.

    Every term is scaled by exp(-c), c = max_j ||Y_j||^2 / beta, which bounds
    every exponent, so an outlier cannot give inf - inf; a value too large for
    a float raises a ValueError.
    """
    y = sample.residuals
    with np.errstate(over="ignore"):  # an overflow raises in _finite, without a warning first
        value = _hjg(y, _check_tuning("hjg", beta))
    return _finite("hjg", beta, y, value)


def _hjg(y: np.ndarray, beta: float) -> np.ndarray:
    """:func:`hjg` of each slice of a (..., n, d) residual stack."""
    n, d = y.shape[-2:]
    r = np.einsum("...ij,...ij->...i", y, y)
    rmax = r.max(axis=-1)
    c = rmax / beta

    term1 = _pairwise_sum(_hjg_kernel(y, r, beta)) / (n * beta ** (d / 2.0))
    term2 = 2.0 * (beta - 0.5) ** (-d / 2.0) * np.exp(r / (4.0 * beta - 2.0) - c[..., None]).sum(axis=-1)
    # libm's exp, one slice at a time: np.exp differs from it in the last bit
    # for a few percent of arguments, and the tabulated values use libm's.
    exp_minus_c = np.array([math.exp(-v) for v in c.flat]).reshape(c.shape)
    term3 = n * (beta - 1.0) ** (-d / 2.0) * exp_minus_c
    return (term1 - term2 + term3) * np.exp(c)


def _hjg_kernel(y: np.ndarray, r: np.ndarray, beta: float) -> _Kernel:
    """Kernel exp((||Y_j + Y_k||^2 - 4 rmax) / (4 beta)), rmax = max_j ||Y_j||^2 per slice.

    The diagonal exponent is formed as (2r + ((r - 4 rmax) + r)) / (4 beta).
    """
    rmax = r.max(axis=-1)
    left, right = _affine_factors(y, r, (0.5 / beta, 0.25 / beta, -rmax / beta))
    diag = (2.0 * r + ((r - 4.0 * rmax[..., None]) + r)) / (4.0 * beta)
    return _Kernel(left, right, diag[None], _exp)


def hv(sample: StandardizedSample, gamma: float) -> float:
    """MGF differential-characterization statistic; gamma > 2; scaled and checked as in :func:`hjg`."""
    y = sample.residuals
    with np.errstate(over="ignore"):
        value = _hv(y, _check_tuning("hv", gamma))
    return _finite("hv", gamma, y, value)


def _hv(y: np.ndarray, gamma: float) -> np.ndarray:
    """:func:`hv` of each slice of a (..., n, d) residual stack."""
    n, d = y.shape[-2:]
    r = np.einsum("...ij,...ij->...i", y, y)
    rmax = r.max(axis=-1)
    scaled = (np.pi / gamma) ** (d / 2.0) / n * _pairwise_sum(_hv_kernel(y, r, gamma))
    return scaled * np.exp(rmax / gamma)


def _hv_kernel(y: np.ndarray, r: np.ndarray, gamma: float) -> _Kernel:
    """Kernel exp(s / (4 gamma)) (Y_j.Y_k + coef s + 4 rmax coef + d / (2 gamma)), two affine blocks.

    s = ||Y_j + Y_k||^2 - 4 rmax with rmax = max_j ||Y_j||^2 per slice, and
    coef = 1/(4 gamma^2) - 1/(2 gamma); the prefactor's rmax terms cancel.
    The diagonals are formed from s = ((r - 4 rmax) + r) + 2r.
    """
    d = y.shape[-1]
    rmax = r.max(axis=-1)
    coef = 1.0 / (4.0 * gamma * gamma) - 1.0 / (2.0 * gamma)
    left, right = _affine_factors(
        y, r, (0.5 / gamma, 0.25 / gamma, -rmax / gamma), (1.0 + 2.0 * coef, coef, d / (2.0 * gamma))
    )
    s = ((r - 4.0 * rmax[..., None]) + r) + 2.0 * r
    prefactor = (r + s * coef) + (4.0 * rmax * coef + d / (2.0 * gamma))[..., None]

    def finish(e):
        k = np.exp(e[0], out=e[0])
        k *= e[1]
        return k

    return _Kernel(left, right, np.stack([s / (4.0 * gamma), prefactor]), finish)


def hv_inf(sample: StandardizedSample) -> float:
    """Skewness combination 2 b_1 + 3 b~_1, the gamma -> infinity limit of hv."""
    return float(_hv_inf(sample.residuals))


def _hv_inf(y: np.ndarray) -> np.ndarray:
    """:func:`hv_inf` of each slice of a (..., n, d) residual stack."""
    return 2.0 * _mardia_skewness(y) + 3.0 * _mrs_skewness(y)


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _univariate(kind: str, x: np.ndarray) -> None:
    if x.shape[-1] != 1:
        raise ValueError(f"{kind} is univariate")


def bcmr(data) -> float:
    """Wasserstein-distance statistic for a raw univariate sample.

    Uses order statistics against the normal quantile function.  Its
    integral over each [(k-1)/n, k/n] is phi(ndtri((k-1)/n)) - phi(ndtri(k/n)),
    with phi(ndtri(0)) = phi(ndtri(1)) = 0; the tail integral is evaluated by
    adaptive quadrature over [1/(n+1), n/(n+1)], which keeps its endpoint
    singularities away.  Both depend on n alone and are computed once per n.
    A sample with d > 1, fewer than 2 observations or one value only raises a
    ValueError.  Monte Carlo replications run the same code on whole stacks.
    """
    return float(_bcmr(_whitenable(data)))


@functools.lru_cache
def _bcmr_weights(n: int) -> tuple[np.ndarray, float]:
    """(order-statistic weights, read-only; tail integral) of :func:`bcmr` at sample size n."""
    q = ndtri(np.arange(n + 1) / n)
    dens = np.exp(-0.5 * q * q) / math.sqrt(2.0 * math.pi)
    weights = dens[:-1] - dens[1:]
    weights.flags.writeable = False
    tail, _ = quad(
        lambda t: t * (1.0 - t) / _phi(ndtri(t)) ** 2,
        1.0 / (n + 1),
        n / (n + 1),
        epsabs=1e-9,
        limit=200,
    )
    return weights, tail


def _bcmr(x: np.ndarray) -> np.ndarray:
    """:func:`bcmr` of each slice of a (..., n, 1) stack of raw samples."""
    _univariate("bcmr", x)
    xs = np.sort(x[..., 0], axis=-1)
    n = xs.shape[-1]
    s2 = np.var(xs, axis=-1)  # divisor n, matching the residual scaling
    if (s2 == 0.0).any():
        raise ValueError("bcmr requires a sample that is not constant")
    weights, tail = _bcmr_weights(n)
    # A dot product and Python's float ** 2 (libm's pow) per slice: a stacked
    # matrix-vector product and numpy's x * x each round differently.
    acc_sq = [float(s @ weights) ** 2 for s in xs.reshape(-1, n)]
    return n * (1.0 - np.reshape(acc_sq, s2.shape) / s2) - tail


def be(sample: StandardizedSample, a: float) -> float:
    """Zero-bias transformation statistic on ordered scaled residuals, d=1.

    The pair sum over j < k factorizes through prefix sums, so the statistic
    costs O(n log n) (the sort dominates).  a must be finite and > 0, and a
    sample with d > 1 raises a ValueError.  Monte Carlo replications run the
    same code on whole stacks.
    """
    return float(_be(sample.residuals, _check_tuning("be", a)))


def _be(y: np.ndarray, a: float) -> np.ndarray:
    """:func:`be` of each slice of a (..., n, 1) residual stack."""
    _univariate("be", y)
    y = np.sort(y[..., 0], axis=-1)
    n = y.shape[-1]
    ysq = y * y
    c = 1.0 - ndtr(y / math.sqrt(a))
    g = math.sqrt(a / (2.0 * math.pi)) * np.exp(-ysq / (2.0 * a))
    # prefix sums over j < k
    s1 = np.zeros_like(y)
    s2 = np.zeros_like(y)
    s1[..., 1:] = np.cumsum(ysq - 1.0, axis=-1)[..., :-1]
    s2[..., 1:] = np.cumsum(y, axis=-1)[..., :-1]
    pair = c * ((ysq - 1.0) * s1 + a * y * s2) + g * (-y * s1 + s2)
    single = c * (ysq * ysq + (a - 2.0) * ysq + 1.0) + g * (2.0 * y - ysq * y)
    return 2.0 / n * np.sum(pair, axis=-1) + np.mean(single, axis=-1)


class _Kind(NamedTuple):
    seed_id: int  # enters every competitor cell's seed key: part of the reproducibility contract
    default: float | None  # tuning used when none is given
    bound: tuple[str, float] | None  # (name, strict lower bound) of the tuning; None: takes none
    # One value per slice of a float (..., n, d) stack, not validated: of its
    # scaled residuals, or of the raw samples when ``raw`` is set.
    statistic: Callable[[np.ndarray, float | None], np.ndarray]
    univariate: bool = False  # defined at d = 1 only
    raw: bool = False  # the statistic reads the raw samples, not the residuals


# The one per-kind table: validation, defaults, seeds and dispatch all read it.
_TABLE = {
    "bhep": _Kind(10, 1.0, ("a", 0.0), _bhep),
    "hjg": _Kind(11, 1.5, ("beta", 1.0), _hjg),
    "hv": _Kind(12, 5.0, ("gamma", 2.0), _hv),
    "hv_inf": _Kind(13, None, None, lambda y, _: _hv_inf(y)),
    "bcmr": _Kind(14, None, None, lambda x, _: _bcmr(x), univariate=True, raw=True),
    "be": _Kind(15, 1.0, ("a", 0.0), _be, univariate=True),
}
KINDS = tuple(_TABLE)


def evaluate(spec: CompetitorSpec, data) -> float:
    """Evaluate a competitor on a raw data matrix (standardizing as needed).

    A value that overflowed raises a ValueError, as in :func:`hjg`.
    """
    x = _whitenable(data)
    row = _TABLE[spec.kind]
    z = x if row.raw else _whiten(x)[0]
    with np.errstate(over="ignore"):
        value = float(row.statistic(z, spec.tuning))
    return value if math.isfinite(value) else _finite(spec.kind, spec.tuning, _whiten(x)[0], value)
