"""The weighted L2 test statistic and its moment-type limit statistics.

The statistic measures the distance between the Laplacian of the empirical
characteristic function of the scaled residuals and the Laplacian of the
standard normal characteristic function, in L2 with Gaussian weight
w_a(t) = exp(-a ||t||^2).  The Gaussian CF is the unique (suitably normalized)
function whose Laplacian equals (||x||^2 - d) times itself, so the distance is
zero exactly at normality and the test rejects for large values.

With this weight the integral collapses to a closed form in the pairwise
scalar products of the residuals:

    T = (pi/a)^{d/2} (1/n) sum_{j,k} r_j r_k exp(-||Y_j - Y_k||^2 / (4a))
        - 2 (2pi)^{d/2} / (2a+1)^{d/2+2}
              sum_j r_j (r_j + 2 d a (2a+1)) exp(-r_j / (2(2a+1)))
        + n pi^{d/2} / (a+1)^{d/2+2} (a(a+1) d^2 + d(d+2)/4),

where r_j = ||Y_j||^2.  Tables are reported for the scaled version
d^{-2} (a/pi)^{d/2} T, which keeps magnitudes comparable across (d, a).

As a -> 0 the scaled statistic converges to the classical squared-radius
kurtosis statistic; as a -> infinity the normalization
2 a^{d/2+1} / (n pi^{d/2}) T converges to a squared-skewness statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .standardize import StandardizedSample

# Block edge of the pairwise kernel: working memory is O(_BLOCK^2 + nd) for
# every statistic built on the Gram matrix.  Read at call time.  A 256 x 256
# block (512 KB) stays in cache through the kernel's in-place passes; at
# n = 2000 this is about twice as fast as one n x n pass.  The Monte Carlo
# replications stack _BLOCK^2 // n^2 samples at a time under the same budget.
_BLOCK = 256


def check_tuning(a: float) -> float:
    """Validate the weight decay parameter a (positive, finite)."""
    a = float(a)
    if not math.isfinite(a) or a <= 0.0:
        raise ValueError(f"tuning parameter a must be a positive finite real, got {a}")
    return a


def check_alpha(alpha: float) -> float:
    """Validate a significance level alpha in (0, 1)."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return alpha


@dataclass(frozen=True)
class StatisticValue:
    """Test statistic with provenance.

    ``scaled`` is d^{-2} (a/pi)^{d/2} * value, the unit used by the critical
    value tables.
    """

    value: float
    scaled: float
    n: int
    d: int
    a: float


def scaling_factor(d: int, a: float) -> float:
    """Factor d^{-2} (a/pi)^{d/2} mapping the raw statistic to table units."""
    return d**-2.0 * (a / np.pi) ** (d / 2.0)


def _pairwise_apply(y: np.ndarray, r: np.ndarray, kernel, v: np.ndarray) -> np.ndarray:
    """K @ v for the symmetric K[j, k] = kernel(Y_j . Y_k, r_j, r_k), blockwise.

    ``y`` is (..., n, d), ``r`` (..., n) and ``v`` (..., n, p): leading axes
    index a stack of samples, each with its own K.  ``kernel(g, rj, rk)`` maps
    a block of Gram entries (rows j, columns k) to kernel values and may
    overwrite ``g``.  Diagonal Gram entries are set to ``r`` exactly, so
    self-distances vanish exactly for every kernel.  Off-diagonal blocks are
    evaluated once and applied to both halves (j<k folding).  Every product
    is a per-slice matmul, so each slice of a stack gets bit for bit the
    values of a lone call on it.
    """
    n, b = y.shape[-2], _BLOCK
    out = np.zeros(v.shape)
    for i0 in range(0, n, b):
        yi, ri, vi = y[..., i0 : i0 + b, :], r[..., i0 : i0 + b], v[..., i0 : i0 + b, :]
        for j0 in range(i0, n, b):
            g = yi @ y[..., j0 : j0 + b, :].swapaxes(-1, -2)
            if j0 == i0:
                diag = np.arange(g.shape[-1])
                g[..., diag, diag] = ri
            k = kernel(g, ri, r[..., j0 : j0 + b])
            out[..., i0 : i0 + b, :] += k @ v[..., j0 : j0 + b, :]
            if j0 > i0:
                out[..., j0 : j0 + b, :] += k.swapaxes(-1, -2) @ vi
    return out


def _pairwise_quad(y: np.ndarray, r: np.ndarray, kernel, v: np.ndarray) -> np.ndarray:
    """v . (K v) per slice, for the kernel of :func:`_pairwise_apply` and a (..., n) ``v``."""
    kv = _pairwise_apply(y, r, kernel, v[..., None])
    return (v[..., None, :] @ kv)[..., 0, 0]


def _pairwise_sum(y: np.ndarray, r: np.ndarray, kernel) -> np.ndarray:
    """sum_{j,k} K[j, k] per slice, for the kernel of :func:`_pairwise_apply`."""
    ones = np.empty(r.shape)
    ones.fill(1.0)  # cheaper than np.ones, whose fixed cost shows at small n
    return _pairwise_quad(y, r, kernel, ones)


def _gauss_kernel(a: float):
    """Kernel exp(-||Y_j - Y_k||^2 / (4a)) of the Gram entries, in place."""
    c = 1.0 / (4.0 * a)

    def kernel(g, rj, rk):
        g *= 2.0 * c
        g -= (c * rj)[..., :, None]
        g -= (c * rk)[..., None, :]
        return np.exp(g, out=g)

    return kernel


def _t_value(y: np.ndarray, a: float) -> np.ndarray:
    """Raw statistic of each slice of a (..., n, d) residual stack (no validation)."""
    n, d = y.shape[-2:]
    r = np.einsum("...ij,...ij->...i", y, y)
    quad = _pairwise_quad(y, r, _gauss_kernel(a), r)
    term1 = (np.pi / a) ** (d / 2.0) / n * quad
    term2 = (
        2.0
        * (2.0 * np.pi) ** (d / 2.0)
        / (2.0 * a + 1.0) ** (d / 2.0 + 2.0)
        * np.sum(r * (r + 2.0 * d * a * (2.0 * a + 1.0)) * np.exp(-0.5 * r / (2.0 * a + 1.0)), axis=-1)
    )
    term3 = (
        n
        * np.pi ** (d / 2.0)
        / (a + 1.0) ** (d / 2.0 + 2.0)
        * (a * (a + 1.0) * d**2 + d * (d + 2.0) / 4.0)
    )
    return term1 - term2 + term3


def _scaled_t(y: np.ndarray, a: float) -> np.ndarray:
    return scaling_factor(y.shape[-1], a) * _t_value(y, a)


def t_statistic(sample: StandardizedSample, a: float) -> StatisticValue:
    """Evaluate the test statistic in closed form, O(n^2 d) time.

    The statistic is nonnegative (it is a squared weighted L2 norm); tiny
    negative values from cancellation at extreme ``a`` are not clipped so
    that the algebraic limit checks remain meaningful.
    """
    a = check_tuning(a)
    y = sample.residuals
    n, d = y.shape
    value = float(_t_value(y, a))
    return StatisticValue(value=value, scaled=scaling_factor(d, a) * value, n=n, d=d, a=a)


def mrs_skewness(sample: StandardizedSample) -> float:
    """Squared-norm skewness statistic n^{-2} sum_{j,k} r_j r_k Y_j^T Y_k.

    Equals ||n^{-1} sum_j r_j Y_j||^2, so it is computed in O(nd) and is
    always nonnegative.  This is the a -> infinity limit of the normalized
    test statistic.
    """
    return float(_mrs_skewness(sample.residuals))


def _mrs_skewness(y: np.ndarray) -> np.ndarray:
    """:func:`mrs_skewness` of each slice of a (..., n, d) residual stack."""
    r = np.einsum("...ij,...ij->...i", y, y)
    v = (r[..., None, :] @ y) / y.shape[-2]
    return (v @ v.swapaxes(-1, -2))[..., 0, 0]


def mardia_skewness(sample: StandardizedSample) -> float:
    """Classical skewness statistic n^{-2} sum_{j,k} (Y_j^T Y_k)^3."""
    return float(_mardia_skewness(sample.residuals))


def _mardia_skewness(y: np.ndarray) -> np.ndarray:
    """:func:`mardia_skewness` of each slice of a (..., n, d) residual stack."""

    def cube(g, rj, rk):
        g *= g * g
        return g

    return _pairwise_sum(y, np.einsum("...ij,...ij->...i", y, y), cube) / y.shape[-2] ** 2


def mardia_kurtosis(sample: StandardizedSample) -> float:
    """Classical kurtosis statistic n^{-1} sum_j ||Y_j||^4.

    This is the a -> 0 limit of (a/pi)^{d/2} times the test statistic.
    """
    y = sample.residuals
    r = np.einsum("ij,ij->i", y, y)
    return float(np.mean(r**2))
