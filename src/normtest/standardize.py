"""Empirical standardization of a multivariate sample.

Every statistic in this package is a function of the scaled residuals

    Y_j = S^{-1/2} (X_j - mean),

where S is the sample covariance matrix with divisor ``n`` (not the more
common n-1; the divisor matters for the finite-sample null distributions
tabulated elsewhere in the package) and S^{-1/2} is the unique symmetric
positive definite square root of S^{-1}.  Working on scaled residuals makes
all downstream statistics invariant under full rank affine transformations
of the raw data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


class SingularCovariance(ValueError):
    """Sample covariance matrix is numerically singular."""


def as_data_matrix(data) -> np.ndarray:
    """Validate and return an (n, d) float matrix of observations.

    Rows are observations.  A 1-D array is treated as a univariate sample.
    Non-finite entries are rejected outright rather than dropped.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"expected a 1-D or 2-D array of observations, got ndim={x.ndim}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"empty data matrix with shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("data matrix contains non-finite entries")
    return x


def load_csv(path, *, delimiter: str = ",", header: bool = False) -> np.ndarray:
    """Read a numeric CSV file (one observation per row) into a data matrix.

    A file with no data rows is refused by name, in place of numpy's warning.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        x = np.loadtxt(path, delimiter=delimiter, skiprows=1 if header else 0, ndmin=2)
    if x.size == 0:
        raise ValueError(f"{path} holds no data rows")
    return as_data_matrix(x)


# Scale-free singularity threshold: a covariance whose smallest eigenvalue is
# at most this times its largest is refused.
_REL_TOL = 1e-12


def spd_inverse_sqrt(s) -> np.ndarray:
    """Symmetric positive definite inverse square root via eigendecomposition.

    For S = Q diag(w) Q^T returns Q diag(w^{-1/2}) Q^T.  Raises
    :class:`SingularCovariance` when the smallest eigenvalue does not exceed
    :data:`_REL_TOL` times the largest.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(s, s.T, rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(s).max()))):
        raise ValueError("matrix is not symmetric")
    return _inverse_sqrt(s)


def _inverse_sqrt(s: np.ndarray) -> np.ndarray:
    """Q diag(w^{-1/2}) Q^T of each (d, d) slice of ``s``, symmetrised.

    Raises :class:`SingularCovariance` for the first singular slice, with the
    message a lone call on that slice gives.
    """
    w, q = np.linalg.eigh(s)
    lo, hi = w[..., 0], w[..., -1]
    singular = (hi <= 0.0) | (lo <= _REL_TOL * hi)
    if singular.any():
        k = np.flatnonzero(singular)[0]
        raise SingularCovariance(
            f"covariance matrix is numerically singular (eigenvalues in [{lo.flat[k]:.3e}, {hi.flat[k]:.3e}])"
        )
    root = (q * w[..., None, :] ** -0.5) @ q.swapaxes(-1, -2)
    return 0.5 * (root + root.swapaxes(-1, -2))


def _whiten(x: np.ndarray):
    """(residuals, mean, covariance, inv_sqrt) of a float (..., n, d) stack of samples.

    The one whitening rule of the package: the validated public path runs it
    on one (n, d) matrix, the Monte Carlo replications on a stack of their own
    draws without any input validation.  Each slice of a stack gets bit for
    bit the values of a lone call on it.
    """
    mean = x.mean(axis=-2)
    xc = x - mean[..., None, :]
    cov = xc.swapaxes(-1, -2) @ xc / x.shape[-2]
    cov = 0.5 * (cov + cov.swapaxes(-1, -2))
    inv_sqrt = _inverse_sqrt(cov)
    return xc @ inv_sqrt, mean, cov, inv_sqrt


@dataclass(frozen=True)
class StandardizedSample:
    """Scaled residuals of a sample together with the standardizing pieces.

    Attributes
    ----------
    residuals : (n, d) array
        Y_j = inv_sqrt @ (X_j - mean), one row per observation.
    mean : (d,) array
    covariance : (d, d) array
        Divisor-n sample covariance of the raw data.
    inv_sqrt : (d, d) array
        Symmetric PD inverse square root of ``covariance``.
    """

    residuals: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray
    inv_sqrt: np.ndarray

    @property
    def n(self) -> int:
        return self.residuals.shape[0]

    @property
    def d(self) -> int:
        return self.residuals.shape[1]

    @classmethod
    def from_residuals(cls, residuals) -> "StandardizedSample":
        """Wrap already standardized residuals (a hand-built sample) with identity pieces."""
        y = as_data_matrix(residuals)
        d = y.shape[1]
        return cls(residuals=y, mean=np.zeros(d), covariance=np.eye(d), inv_sqrt=np.eye(d))


def check_sample_size(n: float, d: int) -> None:
    """The d >= 1 and n >= d+1 rules of every statistic; n >= d+1 makes the
    sample covariance invertible almost surely for absolutely continuous data.

    ``n = math.inf`` checks the dimension alone, for the limiting distribution.
    """
    if d < 1:
        raise ValueError(f"need dimension d >= 1, got d={d}")
    if n < d + 1:
        raise ValueError(f"need at least d+1={d + 1} observations, got n={n}")


def check_not_simplex(n: float, d: int) -> None:
    """Refuse n = d+1, where every sample standardizes to the vertices of one
    regular simplex, up to rotation: every affine invariant statistic is then
    constant, and its simulated law or variance estimate is roundoff alone."""
    if n == d + 1:
        raise ValueError(
            f"n={n} observations in dimension d={d} standardize to the same points up to rotation, "
            f"so every statistic is constant: need n >= d+2={d + 2}"
        )


def _whitenable(data) -> np.ndarray:
    """:func:`as_data_matrix` plus :func:`check_sample_size`."""
    x = as_data_matrix(data)
    check_sample_size(*x.shape)
    return x


def scaled_residuals(data) -> StandardizedSample:
    """Standardize a sample empirically.

    Requires n >= d+1, which makes the covariance invertible almost surely
    for absolutely continuous data.
    """
    return StandardizedSample(*_whiten(_whitenable(data)))
