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
from typing import Callable, NamedTuple

import numpy as np

from .standardize import StandardizedSample

# Block edge of the pairwise kernel: working memory is O(_BLOCK^2 + nd) for
# every statistic built on the Gram matrix.  Read at call time.  A 256 x 256
# block (512 KB) stays in cache from the matmul that forms its exponent through
# the kernel's exp and the product with V; at n = 2000 this is about twice as
# fast as one n x n pass.  A stack of samples is evaluated in sub-stacks of
# _BLOCK^2 // min(n, _BLOCK)^2 under the same budget (_pairwise_apply), so the
# budget holds whatever stack a caller hands in; the Monte Carlo engine sizes
# its stacks of draws by their own n·d budget (nulldist._DRAWS).
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


class _Kernel(NamedTuple):
    """The symmetric kernel matrix K = finish(E) of each slice of a stack, from f affine blocks.

    Block m is E_m[j, k] = left[m, ..., j, :] . right[m, ..., k, :]: ``left``
    and ``right`` are (f, ..., n, w) factors (``right`` may broadcast over f),
    so each block of E costs one matmul of inner dimension w.  ``diag``
    (f, ..., n) is the exact diagonal of each E_m.  ``finish`` maps the
    (f, ..., rows, columns) blocks of E to kernel values and may overwrite
    them.
    """

    left: np.ndarray
    right: np.ndarray
    diag: np.ndarray
    finish: Callable[[np.ndarray], np.ndarray]


def _pairwise_apply(kernel: _Kernel, v: np.ndarray) -> np.ndarray:
    """K @ v for the symmetric K of a :class:`_Kernel`, blockwise.

    ``v`` is (..., n, p): leading axes index a stack of samples, each with
    its own K.  Each block of E is one matmul of the kernel's factors, and
    ``kernel.finish`` makes it a block of K with no further pass over E.  On
    the diagonal blocks the diagonal of E is set to ``kernel.diag`` exactly,
    not computed: an exponent of exactly 0 makes self-distances vanish
    exactly.  Off-diagonal blocks are evaluated once and applied to both
    halves (j<k folding).  A stack is evaluated in consecutive sub-stacks
    along its first axis, ``_BLOCK^2 // min(n, _BLOCK)^2`` slices each, so
    the blocks of one sub-stack hold at most _BLOCK^2 kernel values whatever
    stack the caller hands in.  Every product is a per-slice matmul, so each
    slice of a stack gets bit for bit the values of a lone call on it.
    """
    n, b = kernel.diag.shape[-1], _BLOCK
    out = np.zeros(v.shape)
    if v.ndim < 3:
        subs = [...]
    else:
        step = b**2 // min(n, b) ** 2
        subs = [slice(lo, lo + step) for lo in range(0, v.shape[0], step)]
    for s in subs:
        left, right, diag, vs, acc = kernel.left[:, s], kernel.right[:, s], kernel.diag[:, s], v[s], out[s]
        for i0 in range(0, n, b):
            li, vi = left[..., i0 : i0 + b, :], vs[..., i0 : i0 + b, :]
            for j0 in range(i0, n, b):
                e = li @ right[..., j0 : j0 + b, :].swapaxes(-1, -2)
                if j0 == i0:
                    idx = np.arange(e.shape[-1])
                    e[..., idx, idx] = diag[..., i0 : i0 + b]
                k = kernel.finish(e)
                acc[..., i0 : i0 + b, :] += k @ vs[..., j0 : j0 + b, :]
                if j0 > i0:
                    acc[..., j0 : j0 + b, :] += k.swapaxes(-1, -2) @ vi
                del e, k  # one block alive at a time, so malloc reuses its memory
    return out


def _pairwise_quad(kernel: _Kernel, v: np.ndarray) -> np.ndarray:
    """v . (K v) per slice, for a :class:`_Kernel` and a (..., n) ``v``."""
    kv = _pairwise_apply(kernel, v[..., None])
    return (v[..., None, :] @ kv)[..., 0, 0]


def _pairwise_sum(kernel: _Kernel) -> np.ndarray:
    """sum_{j,k} K[j, k] per slice, for a :class:`_Kernel`."""
    ones = np.empty(kernel.diag.shape[1:])
    ones.fill(1.0)  # cheaper than np.ones, whose fixed cost shows at small n
    return _pairwise_quad(kernel, ones)


def _affine_factors(y: np.ndarray, r: np.ndarray, *forms) -> tuple[np.ndarray, np.ndarray]:
    """Factors (left, right) of the blocks E[j, k] = alpha Y_j.Y_k + beta (r_j + r_k) + kappa.

    One block per (alpha, beta, kappa) of ``forms``; kappa is a scalar or a
    (...,) array, one value per slice.  left is [alpha Y, beta r + kappa,
    beta], (f, ..., n, d+2), and right is [Y, 1, r], (1, ..., n, d+2).
    """
    d = y.shape[-1]
    left = np.empty((len(forms), *y.shape[:-1], d + 2))
    for m, (alpha, beta, kappa) in enumerate(forms):
        left[m, ..., :d] = alpha * y
        left[m, ..., d] = beta * r + np.asarray(kappa)[..., None]
        left[m, ..., d + 1] = beta
    right = np.empty((1, *y.shape[:-1], d + 2))
    right[0, ..., :d] = y
    right[0, ..., d] = 1.0
    right[0, ..., d + 1] = r
    return left, right


def _exp(e: np.ndarray) -> np.ndarray:
    """exp of the one affine block, in place."""
    return np.exp(e[0], out=e[0])


def _gauss_kernel(y: np.ndarray, r: np.ndarray, a: float) -> _Kernel:
    """Kernel exp(-||Y_j - Y_k||^2 / (4a)), its exponent exactly 0 on the diagonal.

    The exponent is 2c Y_j.Y_k - c r_j - c r_k with c = 1/(4a).
    """
    c = 1.0 / (4.0 * a)
    left, right = _affine_factors(y, r, (2.0 * c, -c, 0.0))
    return _Kernel(left, right, np.zeros(left.shape[:-1]), _exp)


def _t_value(y: np.ndarray, a: float) -> np.ndarray:
    """Raw statistic of each slice of a (..., n, d) residual stack (no validation)."""
    n, d = y.shape[-2:]
    r = np.einsum("...ij,...ij->...i", y, y)
    quad = _pairwise_quad(_gauss_kernel(y, r, a), r)
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
    r = np.einsum("...ij,...ij->...i", y, y)
    return _pairwise_sum(_mardia_kernel(y, r)) / y.shape[-2] ** 2


def _mardia_kernel(y: np.ndarray, r: np.ndarray) -> _Kernel:
    """Kernel (Y_j.Y_k)^3: the plain Gram block, cubed in place; r is its diagonal."""

    def cube(e):
        g = e[0]
        g *= g * g
        return g

    return _Kernel(y[None], y[None], r[None], cube)


def mardia_kurtosis(sample: StandardizedSample) -> float:
    """Classical kurtosis statistic n^{-1} sum_j ||Y_j||^4.

    This is the a -> 0 limit of (a/pi)^{d/2} times the test statistic.
    """
    y = sample.residuals
    r = np.einsum("ij,ij->i", y, y)
    return float(np.mean(r**2))
