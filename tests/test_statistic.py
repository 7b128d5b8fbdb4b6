import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normtest import (
    QuadratureSpec,
    StandardizedSample,
    mardia_kurtosis,
    mardia_skewness,
    mrs_skewness,
    scaled_residuals,
    scaling_factor,
    t_statistic,
    t_statistic_quadrature,
)
from normtest import statistic
from normtest.competitors import _hjg_kernel, _hv_kernel, bhep, hjg, hv
from normtest.inference import p_aggregates, sigma_hat_sq
from normtest.standardize import _whiten
from conftest import make_rng

# Closed form at Y = {-1, +1}, a = 1, frozen from the quadrature oracle
# (exact three-term evaluation: sqrt(pi)(1+1/e) - 28 sqrt(2 pi) e^{-1/6}/3^{5/2}
#  + 2 sqrt(pi) 2.75 / 2^{5/2}).
T_PM1_A1 = 0.3366041959849875

TWO_POINT = StandardizedSample.from_residuals([[-1.0], [1.0]])
THREE_POINT = StandardizedSample.from_residuals([[-np.sqrt(1.5)], [0.0], [np.sqrt(1.5)]])


class TestClosedForm:
    def test_two_point_value(self):
        stat = t_statistic(TWO_POINT, 1.0)
        assert stat.value == pytest.approx(T_PM1_A1, rel=1e-12)
        assert stat.value == pytest.approx(0.33657, abs=1e-4)

    def test_two_point_scaled(self):
        stat = t_statistic(TWO_POINT, 1.0)
        assert stat.scaled == pytest.approx(T_PM1_A1 / np.sqrt(np.pi), rel=1e-12)
        assert stat.scaled == pytest.approx(0.18989, abs=1e-4)
        assert stat.scaled == pytest.approx(scaling_factor(1, 1.0) * stat.value)

    def test_quadrature_agrees_two_point(self):
        assert t_statistic_quadrature(TWO_POINT, 1.0) == pytest.approx(T_PM1_A1, rel=1e-9)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_quadrature_agrees_random(self, d, a):
        sample = scaled_residuals(make_rng(17 * d + int(10 * a)).normal(size=(15, d)))
        closed = t_statistic(sample, a).value
        quad = t_statistic_quadrature(sample, a)
        assert quad == pytest.approx(closed, rel=1e-6)

    def test_quadrature_d3(self):
        sample = scaled_residuals(make_rng(5).normal(size=(8, 3)))
        closed = t_statistic(sample, 1.0).value
        quad = t_statistic_quadrature(sample, 1.0, QuadratureSpec(points=40))
        assert quad == pytest.approx(closed, rel=1e-3)

    def test_quadrature_d4_unsupported(self):
        from normtest import UnsupportedDimension

        sample = scaled_residuals(make_rng(6).normal(size=(8, 4)))
        with pytest.raises(UnsupportedDimension):
            t_statistic_quadrature(sample, 1.0)

    def test_near_normal_grid_is_small(self):
        # symmetric quantile-like grid: empirical distribution close to N(0,1)
        from scipy.special import ndtri

        n = 400
        probs = (np.arange(1, n + 1) - 0.5) / n
        sample = scaled_residuals(ndtri(probs)[:, None])
        coarse = t_statistic(sample, 1.0).value
        n2 = 1600
        probs2 = (np.arange(1, n2 + 1) - 0.5) / n2
        fine = t_statistic(scaled_residuals(ndtri(probs2)[:, None]), 1.0).value
        assert 0.0 <= fine < coarse < 0.05

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, seed):
        rng = make_rng(seed)
        d = int(rng.integers(1, 4))
        sample = scaled_residuals(rng.normal(size=(d + 4, d)))
        a = float(rng.uniform(0.05, 5.0))
        assert t_statistic(sample, a).value >= -1e-10

    def test_invalid_a(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                t_statistic(TWO_POINT, bad)

    def test_chunking_independence(self, monkeypatch):
        sample = scaled_residuals(make_rng(9).normal(size=(600, 2)))

        def evaluate():
            scalars = [
                t_statistic(sample, 0.7).value,
                bhep(sample, 0.5),
                hjg(sample, 1.5),
                hv(sample, 5.0),
                mardia_skewness(sample),
                sigma_hat_sq(sample, 0.7),
            ]
            return scalars, list(p_aggregates(sample, 0.7))

        monkeypatch.setattr(statistic, "_BLOCK", 2048)
        full_scalars, full_vectors = evaluate()
        for block in (64, 101, 257):
            monkeypatch.setattr(statistic, "_BLOCK", block)
            scalars, vectors = evaluate()
            assert scalars == pytest.approx(full_scalars, rel=1e-12)
            for got, want in zip(vectors, full_vectors):
                np.testing.assert_allclose(got, want, rtol=1e-10)


def _dense_kernel(kind: str, y: np.ndarray, t: float) -> np.ndarray:
    """Kernel matrix of ``kind`` at tuning ``t`` from explicit pairwise differences and sums."""
    r = np.sum(y * y, axis=1)
    rmax = r.max()
    dif = y[:, None, :] - y[None, :, :]
    tot = y[:, None, :] + y[None, :, :]
    dist = np.sum(dif * dif, axis=-1)  # ||Y_j - Y_k||^2
    s = np.sum(tot * tot, axis=-1) - 4.0 * rmax  # ||Y_j + Y_k||^2 - 4 rmax
    if kind == "t":
        return np.exp(-dist / (4.0 * t))
    if kind == "bhep":
        return np.exp(-0.5 * t * t * dist)
    if kind == "hjg":
        return np.exp(s / (4.0 * t))
    coef = 1.0 / (4.0 * t * t) - 1.0 / (2.0 * t)
    g = np.sum(y[:, None, :] * y[None, :, :], axis=-1)
    return np.exp(s / (4.0 * t)) * (g + coef * s + 4.0 * rmax * coef + y.shape[1] / (2.0 * t))


KERNELS = {
    "t": (lambda y, r, a: statistic._gauss_kernel(y, r, 1.0 / (4.0 * a)), (0.05, 1.0, 5.0)),
    "bhep": (lambda y, r, a: statistic._gauss_kernel(y, r, 0.5 * a * a), (0.5, 1.0, 3.0)),
    "hjg": (lambda y, r, beta: _hjg_kernel(y, r, beta, r.max(axis=-1)), (1.5, 3.0, 10.0)),
    "hv": (lambda y, r, gamma: _hv_kernel(y, r, gamma, r.max(axis=-1)), (2.5, 5.0, 20.0)),
}


class TestKernelOracle:
    """Every exponential kernel's blocks against the dense formula; n=300 is above the block edge."""

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_blocks_match_the_dense_formula(self, kind, d):
        build, tunings = KERNELS[kind]
        for n in (d + 1, 50, 300):
            y = scaled_residuals(make_rng(8100 + 10 * d + n).standard_t(5, size=(n, d))).residuals
            r = np.einsum("ij,ij->i", y, y)
            for t in tunings:
                got = statistic._pairwise_apply(build(y, r, t), np.eye(n))  # K @ I is K, entry by entry
                want = _dense_kernel(kind, y, t)
                # relative to the largest entry too: the exponent of a far pair
                # carries a rounding error of order eps * (r_j + r_k) / (4a)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
                if kind in ("t", "bhep"):
                    assert (np.diag(got) == 1.0).all()


class TestSubStacks:
    """A stack longer than the kernel's budget is evaluated in sub-stacks, each slice as if alone."""

    @pytest.mark.parametrize("kind", [*sorted(KERNELS), "mardia"])
    @pytest.mark.parametrize("n,k", [(50, 30), (150, 5), (300, 3)])  # sub-stacks of 26, 2 and 1
    def test_stack_equals_lone_slices(self, kind, n, k):
        assert k > statistic._BLOCK**2 // min(n, statistic._BLOCK) ** 2
        build, tunings = KERNELS.get(kind, (lambda y, r, t: statistic._mardia_kernel(y, r), (None,)))
        rng = make_rng(8400 + n)
        y = _whiten(rng.standard_t(5, size=(k, n, 2)))[0]
        r = np.einsum("...ij,...ij->...i", y, y)
        v = rng.normal(size=(k, n, 3))
        for t in tunings:
            got = statistic._pairwise_apply(build(y, r, t), v)
            for i in range(k):
                np.testing.assert_array_equal(got[i], statistic._pairwise_apply(build(y[i], r[i], t), v[i]))


class TestLimits:
    def test_small_a_reaches_kurtosis_d3(self):
        sample = scaled_residuals(make_rng(11).normal(size=(25, 3)))
        a = 1e-8
        scaled = scaling_factor(3, a) * 9 * t_statistic(sample, a).value  # undo d^-2
        assert abs(scaled - mardia_kurtosis(sample)) < 1e-6

    def test_large_a_reaches_skewness(self):
        sample = scaled_residuals(make_rng(12).normal(size=(20, 2)))
        n, d = 20, 2
        target = mrs_skewness(sample)
        gaps = []
        for a in (1e4, 1e5, 1e6):
            norm = 2.0 * a ** (d / 2 + 1) / (n * np.pi ** (d / 2)) * t_statistic(sample, a).value
            gaps.append(abs(norm - target))
        assert gaps[0] > gaps[1] > gaps[2]
        # tolerance relative to the scale of the cancelled O(a) terms
        assert gaps[2] < 1e-3 * (2.0 * 1e6 * d**2)


def _t_arithmetic_overflows(d, a):
    """Whether T's arithmetic at (d, a) leaves the float range on a sample whose every residual is 0,
    so that only its constants can: each term is then a constant times 0, or one constant."""
    with np.errstate(all="ignore"):
        try:
            value = float(statistic._scaled_t(np.zeros((2, d)), a))
        except OverflowError:
            return True
    return not np.isfinite(value)


def _edge(d, lo, hi):
    """The two adjacent floats in (lo, hi) at which _t_arithmetic_overflows(d, .) changes, by bisection."""
    side = _t_arithmetic_overflows(d, lo)
    while np.nextafter(lo, hi) < hi:
        mid = float(np.sqrt(lo) * np.sqrt(hi)) if lo > 0 else hi / 2
        mid = min(max(mid, np.nextafter(lo, hi)), np.nextafter(hi, lo))
        lo, hi = (mid, hi) if _t_arithmetic_overflows(d, mid) == side else (lo, mid)
    return lo, hi


class TestRange:
    @pytest.mark.parametrize("d", [1, 2, 4, 9, 771])
    def test_refuses_exactly_where_the_constants_overflow(self, d):
        grid = [float(a) for a in np.logspace(-323, 308, 400)]
        edges = [a for bracket in (_edge(d, 5e-324, 1.0), _edge(d, 1.0, 1.7e308)) for a in bracket]
        for a in grid + edges:
            overflows = _t_arithmetic_overflows(d, a)
            if overflows:
                with pytest.raises(ValueError, match="out of the float range"):
                    statistic.check_range(d, a)
            else:
                assert statistic.check_range(d, a) == a
        # both edges lie inside the float range, and at each one side is refused
        assert [_t_arithmetic_overflows(d, a) for a in edges] == [True, False, False, True]

    def test_refuses_every_a_once_the_dimension_overflows(self):
        for a in (1e-3, 1.0, 1e3):
            assert _t_arithmetic_overflows(772, a)
            with pytest.raises(ValueError, match="at d=772"):
                statistic.check_range(772, a)

    def test_statistic_too_large_for_a_float_raises(self):
        # the constants at a = 1e-153, d = 4 are finite; T on this sample is not
        sample = scaled_residuals(make_rng(14).normal(size=(50, 4)))
        assert np.isfinite(statistic._t_value(sample.residuals, 1e-152))
        with pytest.raises(ValueError, match="T is inf at n=50, d=4"):
            t_statistic(sample, 1e-153)

    @pytest.mark.parametrize("a", [1e-200, 1e100])
    def test_t_statistic_refuses_before_the_arithmetic(self, a):
        with pytest.raises(ValueError, match="takes the constants of T out of the float range at d=4"):
            t_statistic(scaled_residuals(make_rng(14).normal(size=(50, 4))), a)


class TestMomentStatistics:
    def test_symmetric_samples_zero_skewness(self):
        for sample in (TWO_POINT, THREE_POINT):
            assert mrs_skewness(sample) == pytest.approx(0.0, abs=1e-12)
            assert mardia_skewness(sample) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_kurtosis(self):
        assert mardia_kurtosis(TWO_POINT) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_double_sum_oracles(self, d):
        sample = scaled_residuals(make_rng(40 + d).normal(size=(30, d)))
        y = sample.residuals
        r = np.einsum("ij,ij->i", y, y)
        n = y.shape[0]
        mrs_direct = sum(
            r[j] * r[k] * float(y[j] @ y[k]) for j in range(n) for k in range(n)
        ) / n**2
        assert mrs_skewness(sample) == pytest.approx(mrs_direct, rel=1e-10)
        mardia_direct = sum(float(y[j] @ y[k]) ** 3 for j in range(n) for k in range(n)) / n**2
        assert mardia_skewness(sample) == pytest.approx(mardia_direct, rel=1e-10)
        kurt_direct = float(np.mean(r**2))
        assert mardia_kurtosis(sample) == pytest.approx(kurt_direct, rel=1e-12)

    def test_kurtosis_jensen_bound(self):
        # sum ||Y||^2 = nd forces b2 >= d^2 for exactly standardized samples
        for d in (1, 2, 5):
            sample = scaled_residuals(make_rng(77 + d).normal(size=(4 * d + 9, d)))
            assert mardia_kurtosis(sample) >= d**2 - 1e-9

    def test_mrs_factorization_identity(self):
        sample = scaled_residuals(make_rng(15).normal(size=(50, 3)))
        y = sample.residuals
        r = np.einsum("ij,ij->i", y, y)
        v = (r @ y) / 50
        assert mrs_skewness(sample) == pytest.approx(float(v @ v), rel=1e-12)


class TestAffineInvariance:
    @pytest.mark.parametrize("stat", [mrs_skewness, mardia_skewness, mardia_kurtosis])
    def test_moment_statistics(self, stat):
        from conftest import random_invertible

        rng = make_rng(200)
        x = rng.normal(size=(25, 3))
        base = stat(scaled_residuals(x))
        for _ in range(5):
            a_mat = random_invertible(3, rng)
            b = rng.normal(size=3)
            assert stat(scaled_residuals(x @ a_mat.T + b)) == pytest.approx(base, rel=1e-8)
