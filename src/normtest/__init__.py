"""Affine invariant normality tests in arbitrary dimension.

The main statistic measures the weighted L2 distance between the Laplacian
of the empirical characteristic function of the standardized sample and that
of the standard Gaussian CF, which vanishes exactly at normality.  The
package bundles the closed-form statistic, Monte Carlo null machinery,
large-sample (Gaussian process) approximations, confidence intervals for the
population distance under alternatives, competitor tests, and a reproducible
simulation harness.
"""

from .competitors import CompetitorSpec, bcmr, be, bhep, evaluate, hjg, hv, hv_inf
from .inference import (
    ConfidenceInterval,
    DeltaEstimate,
    PsiBundle,
    ValidationResult,
    confidence_interval,
    delta_a_univariate,
    delta_estimate,
    m_func,
    p_aggregates,
    psi_estimators,
    sigma_hat_sq,
    sigma_hat_sq_quadrature,
    validation_test,
    z_n,
)
from .nulldist import (
    KernelNotPSD,
    LimitSamplerConfig,
    critical_value,
    expected_limit,
    kernel_K,
    limit_quantile,
    mc_null_sample,
    pvalue_mc,
)
from .quadrature import QuadratureSpec, UnsupportedDimension, t_statistic_quadrature
from .samplers import AlternativeSpec, parse_spec, sample, sphere_uniform
from .standardize import (
    SingularCovariance,
    StandardizedSample,
    load_csv,
    scaled_residuals,
    spd_inverse_sqrt,
)
from .statistic import (
    StatisticValue,
    mardia_kurtosis,
    mardia_skewness,
    mrs_skewness,
    scaling_factor,
    t_statistic,
)

__version__ = "0.1.0"

__all__ = [
    "AlternativeSpec",
    "CompetitorSpec",
    "ConfidenceInterval",
    "DeltaEstimate",
    "KernelNotPSD",
    "LimitSamplerConfig",
    "PsiBundle",
    "QuadratureSpec",
    "SingularCovariance",
    "StandardizedSample",
    "StatisticValue",
    "UnsupportedDimension",
    "ValidationResult",
    "bcmr",
    "be",
    "bhep",
    "confidence_interval",
    "critical_value",
    "delta_a_univariate",
    "delta_estimate",
    "evaluate",
    "expected_limit",
    "hjg",
    "hv",
    "hv_inf",
    "kernel_K",
    "limit_quantile",
    "load_csv",
    "m_func",
    "mardia_kurtosis",
    "mardia_skewness",
    "mc_null_sample",
    "mrs_skewness",
    "p_aggregates",
    "parse_spec",
    "psi_estimators",
    "pvalue_mc",
    "sample",
    "scaled_residuals",
    "scaling_factor",
    "sigma_hat_sq",
    "sigma_hat_sq_quadrature",
    "sphere_uniform",
    "spd_inverse_sqrt",
    "t_statistic",
    "t_statistic_quadrature",
    "validation_test",
    "z_n",
]
