"""Tensor-grid quadrature oracles for low dimensions.

These routines integrate the defining weighted L2 integrals directly on a
truncated box and exist to cross-check the closed forms.  They are oracles:
slow, d <= 3 only, never the production path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .standardize import StandardizedSample
from .statistic import check_tuning


class UnsupportedDimension(ValueError):
    """Quadrature oracle requested above its supported dimension."""


# Gaussian weight below which the default box is truncated.
_TAIL_TOL = 1e-18


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre tensor grid on the box [-halfwidth, halfwidth]^d.

    ``halfwidth=None`` truncates where the Gaussian weight drops below
    :data:`_TAIL_TOL` (plus slack for polynomial factors in the integrands).
    """

    points: int = 800
    halfwidth: float | None = None

    def box_halfwidth(self, a: float) -> float:
        if self.halfwidth is not None:
            return float(self.halfwidth)
        return float(np.sqrt(-np.log(_TAIL_TOL) / a) * 1.06)

    def axis(self, a: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights on one axis, weight function not included."""
        half = self.box_halfwidth(a)
        x, w = np.polynomial.legendre.leggauss(self.points)
        return x * half, w * half

    def grid(self, a: float, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Tensor nodes (G, d) and combined weights (G,)."""
        x, w = self.axis(a)
        if d == 1:
            return x[:, None], w
        axes = np.meshgrid(*([x] * d), indexing="ij")
        pts = np.stack([ax.ravel() for ax in axes], axis=1)
        wt = w
        for _ in range(d - 1):
            wt = np.multiply.outer(wt, w)
        return pts, wt.ravel()


def default_spec(d: int) -> QuadratureSpec:
    """Grid resolutions tuned per dimension for ~1e-6 relative accuracy."""
    return QuadratureSpec(points={1: 1200, 2: 220, 3: 60}.get(d, 60))


def t_statistic_quadrature(
    sample: StandardizedSample, a: float, grid: QuadratureSpec | None = None
) -> float:
    """Integrate n |Laplacian ECF - Laplacian Gaussian CF|^2 w_a directly.

    Supports d <= 3.  Agrees with the closed form to quadrature accuracy.
    """
    a = check_tuning(a)
    y = sample.residuals
    n, d = y.shape
    if d > 3:
        raise UnsupportedDimension(f"quadrature oracle supports d <= 3, got d={d}")
    if grid is None:
        grid = default_spec(d)
    pts, wt = grid.grid(a, d)
    r = np.einsum("ij,ij->i", y, y)
    t2 = np.einsum("ij,ij->i", pts, pts)
    proj = pts @ y.T  # (G, n)
    # Laplacian of the ECF at t: -(1/n) sum_j r_j e^{i t.Y_j}
    re = -(np.cos(proj) @ r) / n - (t2 - d) * np.exp(-0.5 * t2)
    im = -(np.sin(proj) @ r) / n
    integrand = (re * re + im * im) * np.exp(-a * t2)
    return n * float(wt @ integrand)
