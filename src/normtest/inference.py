"""Inference under fixed alternatives.

T/n estimates the population distance Delta_a = int |Lap CF_X - Lap CF_N|^2 w_a,
which is zero exactly at normality.  sqrt(n) (T/n - Delta_a) is asymptotically
centred normal; this module provides the closed-form variance estimator, the
resulting confidence interval for Delta_a, and the inverse
("equivalence-style") validation test that can certify closeness to normality.

The variance estimator is assembled from closed-form integrals of the
trigonometric sums against the Gaussian weight.  Writing
A_i(Y_k) = int v_i(s, Y_k) z_n(s) w_a(s) ds for the four influence-function
pieces v_1..v_4, the estimator is the sum of squares
sigma_hat^2 = (4/n) sum_k (sum_i A_i(Y_k))^2, so it is never negative.  Its
per-pair components sigma^{i,j} = (4/n) sum_k A_i(Y_k) A_j(Y_k), the Gram
matrix 4 A A^T / n, sum to it and serve for diagnosis.  The closed form builds
the (4, n) influence matrix A from one pairwise pass (:func:`p_aggregates`);
the independent oracle builds it by tensor-grid quadrature (d <= 2).  Both
share the same two reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .quadrature import QuadratureSpec, UnsupportedDimension
from .standardize import StandardizedSample, check_not_simplex
from .statistic import _gauss_kernel, _pairwise_apply, check_alpha, check_tuning


def m_func(t, d: int) -> np.ndarray | float:
    """m(t) = (d - ||t||^2) exp(-||t||^2 / 2), the null mean function."""
    t = np.asarray(t, dtype=float)
    n2 = np.einsum("...i,...i->...", np.atleast_2d(t), np.atleast_2d(t))
    out = (d - n2) * np.exp(-0.5 * n2)
    return float(out[0]) if t.ndim <= 1 else out


def _cs(proj: np.ndarray, sign: int) -> np.ndarray:
    return np.cos(proj) + sign * np.sin(proj)


def z_n(s, sample: StandardizedSample) -> float:
    """Empirical centred projection (1/n) sum_k CS+(s, Y_k) ||Y_k||^2 - m(s)."""
    y = sample.residuals
    s = np.asarray(s, dtype=float).ravel()
    r = np.einsum("ij,ij->i", y, y)
    proj = y @ s
    return float(np.mean(_cs(proj, +1) * r) - m_func(s, sample.d))


@dataclass(frozen=True)
class PsiBundle:
    """The five empirical trigonometric moment sums at one frequency t.

    psi3/psi4 come in +/- (cos+sin / cos-sin) variants.  At t=0 the
    standardization identities force psi1 = 0, psi2 = I and psi3 = d exactly.
    """

    psi1: np.ndarray
    psi2: np.ndarray
    psi3_plus: float
    psi3_minus: float
    psi4_plus: np.ndarray
    psi4_minus: np.ndarray
    psi5: np.ndarray


def psi_estimators(sample: StandardizedSample, t) -> PsiBundle:
    """Evaluate the five moment sums (and sign variants) at frequency t."""
    y = sample.residuals
    t = np.asarray(t, dtype=float).ravel()
    n = sample.n
    r = np.einsum("ij,ij->i", y, y)
    proj = y @ t
    cp, cm = _cs(proj, +1), _cs(proj, -1)
    psi2 = (y.T * cp) @ y / n
    psi5 = (y.T * (cp * r)) @ y / n
    return PsiBundle(
        psi1=(cp @ y) / n,
        psi2=0.5 * (psi2 + psi2.T),
        psi3_plus=float(np.mean(cp * r)),
        psi3_minus=float(np.mean(cm * r)),
        psi4_plus=((cp * r) @ y) / n,
        psi4_minus=((cm * r) @ y) / n,
        psi5=0.5 * (psi5 + psi5.T),
    )


# ---------------------------------------------------------------------------
# Closed-form integrals of the weight against the trigonometric kernels.
# q1/q2 integrate m(t) CS(t,y) (t) w_a(t); p1/p2 integrate CS(t,y) CS(t,z) (t) w_a(t).


def q1(y, a: float) -> float | np.ndarray:
    """int m(t) CS+(t, y) w_a(t) dt."""
    y = np.asarray(y, dtype=float)
    d = y.shape[-1] if y.ndim > 1 else y.size
    r = np.einsum("...i,...i->...", np.atleast_2d(y), np.atleast_2d(y))
    out = (
        (2.0 * np.pi) ** (d / 2.0)
        / (2.0 * a + 1.0) ** (d / 2.0 + 2.0)
        * (r + 2.0 * d * a * (2.0 * a + 1.0))
        * np.exp(-0.5 * r / (2.0 * a + 1.0))
    )
    return float(out[0]) if y.ndim <= 1 else out


def p1(y, z, a: float) -> float:
    """int CS+(t, y) CS+(t, z) w_a(t) dt = (pi/a)^{d/2} exp(-||y-z||^2/(4a))."""
    y = np.asarray(y, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    d = y.size
    diff = y - z
    return float((np.pi / a) ** (d / 2.0) * np.exp(-(diff @ diff) / (4.0 * a)))


def p2(y, z, a: float) -> np.ndarray:
    """int CS+(t, y) CS-(t, z) t w_a(t) dt; antisymmetric in (y, z)."""
    y = np.asarray(y, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    d = y.size
    diff = y - z
    return (np.pi / a) ** (d / 2.0) / (2.0 * a) * np.exp(-(diff @ diff) / (4.0 * a)) * diff


def q2(y, a: float) -> np.ndarray:
    """int m(t) CS-(t, y) t w_a(t) dt."""
    y = np.asarray(y, dtype=float)
    single = y.ndim <= 1
    y2 = np.atleast_2d(y)
    d = y2.shape[1]
    r = np.einsum("ij,ij->i", y2, y2)
    coef = (
        (2.0 * np.pi) ** (d / 2.0)
        / (2.0 * a + 1.0) ** (d / 2.0 + 3.0)
        * (2.0 * (2.0 * a + 1.0) * (1.0 - a * d) - r)
        * np.exp(-0.5 * r / (2.0 * a + 1.0))
    )
    out = coef[:, None] * y2
    return out[0] if single else out


def p_aggregates(sample: StandardizedSample, a: float) -> np.ndarray:
    """(4, n) influence matrix of A_i(Y_k) in closed form, O(n^2 d) time, O(block^2 + nd) memory.

    The only pairwise pass is (E - I) @ [r, r Y] with E[j, k] = exp(-||Y_j - Y_k||^2/(4a)):
    the diagonal terms of w cancel exactly, so they are left out rather than
    cancelled in floating point, where cp1/(2a) would amplify their roundoff
    at small a.  sum_l (Y_k . Y_l)^2 p_l factorizes as Y_k^T (Y^T diag(p) Y) Y_k.
    """
    a = check_tuning(a)
    y = sample.residuals
    n, d = y.shape
    r = np.einsum("ij,ij->i", y, y)
    kernel = _gauss_kernel(y, r, 1.0 / (4.0 * a))
    off_diagonal = kernel._replace(diag=np.full(kernel.diag.shape, -np.inf))  # exp(-inf) = 0
    er = _pairwise_apply(off_diagonal, np.column_stack([r, r[:, None] * y])) / n
    cp1 = (np.pi / a) ** (d / 2.0)
    q1v = np.asarray(q1(y, a))
    q2v = np.asarray(q2(y, a))

    # P^{1,a,3}(Y_k) = (1/n) sum_l r_l p1(Y_k, Y_l) - q1(Y_k)
    p13 = cp1 * (er[:, 0] + r / n) - q1v  # the diagonal, E[k, k] = 1, added back
    p1a2_tilde = (y.T @ p13) / n
    p12 = np.einsum("kp,pq,kq->k", y, (y.T * p13) @ y, y) / n

    # w_l = (1/n) sum_m r_m p2(Y_m, Y_l) - q2(Y_l); p2's first argument is the
    # index carrying the r_m weight of the centred projection.
    w = cp1 / (2.0 * a) * (er[:, 1:] - er[:, :1] * y) - q2v
    p2a_tilde = (w.T @ r) / n
    p2a1 = float(np.mean(r * np.einsum("ij,ij->i", y, w)))
    cmat = (w.T * r) @ y / n
    p2a3 = np.einsum("kp,pq,kq->k", y, cmat, y)

    return np.stack([r * p13, -0.5 * (p2a3 - p2a1), -(y @ (2.0 * p1a2_tilde + p2a_tilde)), -p12])


def _components(amat: np.ndarray) -> np.ndarray:
    """Gram matrix 4 A A^T / n of a (4, n) influence matrix: the sigma^{i,j}."""
    return 4.0 * (amat @ amat.T) / amat.shape[1]


def _sigma_sq(amat: np.ndarray) -> float:
    """(4/n) sum_k (sum_i A_i(Y_k))^2: the sum of the sigma^{i,j}, as a sum of squares."""
    return 4.0 * float(np.mean(amat.sum(axis=0) ** 2))


def sigma_hat_sq_components(sample: StandardizedSample, a: float) -> np.ndarray:
    """Symmetric 4x4 matrix of variance components sigma^{i,j}."""
    return _components(p_aggregates(sample, a))


def sigma_hat_sq(sample: StandardizedSample, a: float) -> float:
    """Consistent estimator of the asymptotic variance of sqrt(n) T/n; nonnegative by construction."""
    return _sigma_sq(p_aggregates(sample, a))


def _projected_influence(
    sample: StandardizedSample, a: float, grid: QuadratureSpec | None = None
) -> np.ndarray:
    """(4, n) matrix of A_i(Y_k) = int v_i(s, Y_k) z_n(s) w_a(s) ds on a grid, d <= 2.

    v_1..v_4 are built from the PsiBundle sums evaluated at the grid nodes;
    the double integral defining each sigma^{i,j} then factorizes through
    these projections, so the cost is one grid pass, not a grid-squared pass.
    """
    a = check_tuning(a)
    if sample.d > 2:
        raise UnsupportedDimension(f"variance quadrature oracle supports d <= 2, got d={sample.d}")
    if grid is None:
        grid = QuadratureSpec(points=1200 if sample.d == 1 else 180)
    y = sample.residuals
    n, d = y.shape
    pts, wt = grid.grid(a, d)
    r = np.einsum("ij,ij->i", y, y)
    g = y @ y.T
    proj = pts @ y.T  # (G, n)
    cp, cm = _cs(proj, +1), _cs(proj, -1)
    t2 = np.einsum("ij,ij->i", pts, pts)
    zg = (cp @ r) / n - (d - t2) * np.exp(-0.5 * t2)

    v1 = cp * r[None, :]
    psi4m = ((cm * r[None, :]) @ y) / n  # (G, d): Psi4-(s_g)
    v2 = -0.5 * (proj * (psi4m @ y.T) - np.einsum("gi,gi->g", pts, psi4m)[:, None])
    psi3m = (cm @ r) / n
    v3 = -(2.0 * (cp @ g) / n + psi3m[:, None] * proj)
    v4 = -(cp @ g**2) / n

    coef = wt * np.exp(-a * t2) * zg
    return np.stack([coef @ v for v in (v1, v2, v3, v4)])


def sigma_hat_sq_quadrature(
    sample: StandardizedSample, a: float, grid: QuadratureSpec | None = None
) -> float:
    """Oracle: 4 iint L_n(s,t) z_n(s) z_n(t) w_a(s) w_a(t) ds dt, d <= 2."""
    return _sigma_sq(_projected_influence(sample, a, grid))


def sigma_hat_sq_components_quadrature(
    sample: StandardizedSample, a: float, grid: QuadratureSpec | None = None
) -> np.ndarray:
    """Per-(i,j) quadrature components, for diagnosis against the closed form."""
    return _components(_projected_influence(sample, a, grid))


@dataclass(frozen=True)
class DeltaEstimate:
    """Point estimate T/n of the normality distance with its standard error.

    ``clipped`` is always False: sigma_hat^2 is a sum of squares and cannot be
    negative.  The field stays so the csv and json columns keep their layout.
    """

    delta_hat: float
    sigma_hat: float
    n: int
    d: int
    a: float
    clipped: bool = False


def delta_estimate(sample: StandardizedSample, a: float) -> DeltaEstimate:
    """Estimate Delta_a by T/n together with the closed-form sigma estimate.

    A sample of n = d+1 is refused (:func:`check_not_simplex`): its T is the
    same for every such sample, so its sigma estimate is roundoff alone.  An
    ``a`` refused by :func:`check_range`, or one at which T or sigma_hat^2
    leaves the float range on this sample, raises a ValueError.
    """
    from .statistic import t_statistic

    check_not_simplex(sample.n, sample.d)
    stat = t_statistic(sample, a)  # a checked by check_range
    a = stat.a
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            sigma_sq = sigma_hat_sq(sample, a)
        except OverflowError:  # q2's (2a+1)^{d/2+3}, one power above T's
            sigma_sq = math.inf
    if not math.isfinite(sigma_sq):
        raise ValueError(f"a={a:g} takes sigma_hat^2 out of the float range at n={sample.n}, d={sample.d}")
    return DeltaEstimate(
        delta_hat=stat.value / sample.n,
        sigma_hat=math.sqrt(sigma_sq),
        n=sample.n,
        d=sample.d,
        a=a,
    )


@dataclass(frozen=True)
class ConfidenceInterval:
    """Two-sided asymptotic interval [T/n -+ z_{1-alpha/2} sigma_hat/sqrt(n)]."""

    lower: float
    upper: float
    alpha: float


def _z(p: float) -> float:
    """The standard normal p-quantile for p in [1/2, 1], inf at 1 as ndtri gives it.

    The standard library's quantile agrees with scipy's ndtri to about 1e-15
    relative, and spares delta-ci and validate the import of scipy.special.
    """
    return math.inf if p == 1.0 else NormalDist().inv_cdf(p)


def confidence_interval(est: DeltaEstimate, alpha: float) -> ConfidenceInterval:
    check_alpha(alpha)
    half = _z(1.0 - alpha / 2.0) * est.sigma_hat / np.sqrt(est.n)
    return ConfidenceInterval(lower=est.delta_hat - half, upper=est.delta_hat + half, alpha=alpha)


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of the neighborhood-of-model validation test.

    ``reject`` rejects the hypothesis "distance >= delta0" -- i.e. a rejection
    is positive evidence that the distribution lies within delta0 of
    normality.
    """

    reject: bool
    threshold: float
    delta0: float
    alpha: float


def check_delta0(delta0: float) -> None:
    """Validate a validation-test margin delta0 (positive, finite)."""
    if not 0.0 < delta0 < math.inf:
        raise ValueError(f"delta0 must be a positive finite real, got {delta0}")


def validation_test(est: DeltaEstimate, delta0: float, alpha: float) -> ValidationResult:
    """Reject H: Delta_a >= delta0 iff T/n <= delta0 - (sigma/sqrt n) z_{1-alpha}."""
    check_delta0(delta0)
    check_alpha(alpha)
    threshold = delta0 - est.sigma_hat / np.sqrt(est.n) * _z(1.0 - alpha)
    return ValidationResult(
        reject=bool(est.delta_hat <= threshold), threshold=float(threshold), delta0=delta0, alpha=alpha
    )


def delta_a_univariate(cf_second_derivative, a: float) -> float:
    """Population distance for d=1 from the CF second derivative.

    Integrates (phi''(t) - (t^2 - 1) e^{-t^2/2})^2 e^{-a t^2} over the line
    with adaptive quadrature.
    """
    from scipy.integrate import quad

    a = check_tuning(a)

    def integrand(t: float) -> float:
        return (cf_second_derivative(t) - (t * t - 1.0) * np.exp(-0.5 * t * t)) ** 2 * np.exp(
            -a * t * t
        )

    val, err = quad(integrand, -np.inf, np.inf, limit=400)
    if not np.isfinite(val):
        raise ValueError("quadrature failed; is the CF second derivative integrable?")
    return float(val)


# Characteristic-function second derivatives for the standardized reference
# alternatives (unit variance): uniform on (-sqrt3, sqrt3), Laplace with scale
# 1/sqrt2, logistic with scale sqrt3/pi.


def uniform_cf_second_derivative(t: float) -> float:
    t = float(t)
    s3 = np.sqrt(3.0)
    if abs(t) < 1e-4:
        # series of (sin u)/u at u = sqrt(3) t, differentiated twice in t
        return -1.0 + 0.9 * t * t
    u = s3 * t
    return (s3 * (2.0 - 3.0 * t * t) * np.sin(u) - 6.0 * t * np.cos(u)) / (3.0 * t**3)


def laplace_cf_second_derivative(t: float) -> float:
    t = float(t)
    return (12.0 * t * t - 8.0) / (2.0 + t * t) ** 3


def logistic_cf_second_derivative(t: float) -> float:
    # Exponentially rescaled form of
    # 1.5 (3u - 2 sinh 2u + u cosh 2u) / sinh(u)^3, u = sqrt(3)|t|,
    # stable for large |t| where the direct evaluation overflows.
    u = np.sqrt(3.0) * abs(float(t))
    if u < 1e-3:
        return -1.0 + 0.7 * u * u
    em1, em3, em5 = np.exp(-u), np.exp(-3.0 * u), np.exp(-5.0 * u)
    num = 12.0 * (3.0 * u * em3 - em1 + em5 + 0.5 * u * (em1 + em5))
    return num / (1.0 - np.exp(-2.0 * u)) ** 3

