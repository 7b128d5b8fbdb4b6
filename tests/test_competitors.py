import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from normtest import (
    CompetitorSpec,
    StandardizedSample,
    bcmr,
    be,
    bhep,
    evaluate,
    hjg,
    hv,
    hv_inf,
    mardia_skewness,
    mrs_skewness,
    scaled_residuals,
)
from normtest.competitors import _TABLE, KINDS, parse_competitor
from conftest import make_rng, random_invertible

TWO_POINT = StandardizedSample.from_residuals([[-1.0], [1.0]])


def _sample(seed, n=25, d=2):
    return scaled_residuals(make_rng(seed).normal(size=(n, d)))


class TestBhep:
    def test_two_point_hand_value(self):
        expected = 0.25 * (2.0 + 2.0 * math.exp(-2.0)) - math.sqrt(2.0) * math.exp(-0.25) + 3.0**-0.5
        assert bhep(TWO_POINT, 1.0) == pytest.approx(expected, rel=1e-12)
        assert bhep(TWO_POINT, 1.0) == pytest.approx(0.04362, abs=1e-4)

    def test_nonnegative(self):
        for seed in range(5):
            assert bhep(_sample(seed), 0.5) >= 0.0

    def test_requires_a_above_zero(self):
        for a in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"bhep requires a finite a > 0"):
                bhep(TWO_POINT, a)

    def test_affine_invariance(self):
        rng = make_rng(7)
        x = rng.normal(size=(30, 3))
        base = bhep(scaled_residuals(x), 1.0)
        for _ in range(5):
            moved = x @ random_invertible(3, rng).T + rng.normal(size=3)
            assert bhep(scaled_residuals(moved), 1.0) == pytest.approx(base, rel=1e-8)


class TestHjg:
    def test_two_point_hand_value(self):
        beta = 1.5
        # direct evaluation of the three terms at Y = {-1, +1}, d = 1
        pair = sum(
            math.exp((yj + yk) ** 2 / (4 * beta)) for yj in (-1, 1) for yk in (-1, 1)
        )
        expected = (
            pair / (2 * beta**0.5)
            - 2.0 / (beta - 0.5) ** 0.5 * 2.0 * math.exp(1.0 / (4 * beta - 2.0))
            + 2.0 / (beta - 1.0) ** 0.5
        )
        assert hjg(TWO_POINT, beta) == pytest.approx(expected, rel=1e-12)

    def test_requires_beta_above_one(self):
        for beta in (1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="beta > 1"):
                hjg(TWO_POINT, beta)

    def test_affine_invariance(self):
        rng = make_rng(8)
        x = rng.normal(size=(20, 2))
        base = hjg(scaled_residuals(x), 1.5)
        moved = x @ random_invertible(2, rng).T + 1.0
        assert hjg(scaled_residuals(moved), 1.5) == pytest.approx(base, rel=1e-8)


class TestHv:
    def test_two_point_hand_value(self):
        g = 5.0
        expected = 0.0
        for yj in (-1.0, 1.0):
            for yk in (-1.0, 1.0):
                ssq = (yj + yk) ** 2
                inner = yj * yk + ssq * (1.0 / (4 * g * g) - 1.0 / (2 * g)) + 1.0 / (2 * g)
                expected += math.exp(ssq / (4 * g)) * inner
        expected *= (math.pi / g) ** 0.5 / 2.0
        assert hv(TWO_POINT, g) == pytest.approx(expected, rel=1e-12)

    def test_requires_gamma_above_two(self):
        for gamma in (2.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="gamma > 2"):
                hv(TWO_POINT, gamma)

    def test_affine_invariance(self):
        rng = make_rng(9)
        x = rng.normal(size=(20, 2))
        base = hv(scaled_residuals(x), 5.0)
        moved = 2.5 * x + rng.normal(size=2)
        assert hv(scaled_residuals(moved), 5.0) == pytest.approx(base, rel=1e-8)


def _outlier_data(n):
    x = make_rng(21).standard_normal((n, 2))
    x[0] = (1000.0, 0.0)
    return x


class TestOutlier:
    def test_one_outlier_gives_no_nan(self):
        # unscaled, exp(||Y_j + Y_k||^2 / (4 beta)) overflows and hjg was inf - inf;
        # scaled, the Monte Carlo path gives +inf (a rejection) and the public
        # path a finite value or a ValueError
        x = _outlier_data(3000)
        with np.errstate(over="ignore"):
            y = scaled_residuals(x).residuals[None]
            stacked = [_TABLE[kind].statistic(y, t)[0] for kind, t in (("hjg", 1.5), ("hv", 5.0))]
            assert stacked[0] == math.inf
            assert 0.0 < stacked[1] < math.inf
            assert hv(scaled_residuals(x), 5.0) > 0.0
            with pytest.raises(ValueError):
                hjg(scaled_residuals(x), 1.5)

    @pytest.mark.parametrize("kind,tuning,n", [("hjg", 1.5, 3000), ("hv", 5.0, 6000)])
    def test_overflow_is_refused_on_the_public_path(self, kind, tuning, n):
        x = _outlier_data(n)
        s = scaled_residuals(x)
        rmax = float(np.max(np.einsum("ij,ij->i", s.residuals, s.residuals)))
        fn = {"hjg": hjg, "hv": hv}[kind]
        with np.errstate(over="ignore"):
            for call in (lambda: fn(s, tuning), lambda: evaluate(CompetitorSpec(kind, tuning), x)):
                with pytest.raises(ValueError) as err:
                    call()
                msg = str(err.value)
                assert f"{kind}:{tuning:g}" in msg and f"n={n}" in msg and f"{rmax:.6g}" in msg

    @pytest.mark.parametrize("kind,tuning,n", [("hjg", 1.5, 3000), ("hv", 5.0, 6000)])
    def test_no_warning_before_the_error(self, kind, tuning, n):
        x = _outlier_data(n)
        s = scaled_residuals(x)
        fn = {"hjg": hjg, "hv": hv}[kind]
        for call in (lambda: fn(s, tuning), lambda: evaluate(CompetitorSpec(kind, tuning), x)):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                with pytest.raises(ValueError, match="overflows"):
                    call()
            assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []


# each public function on raw data x, at tuning t (None for a kind that takes none)
PUBLIC = {
    "bhep": lambda x, t: bhep(scaled_residuals(x), t),
    "hjg": lambda x, t: hjg(scaled_residuals(x), t),
    "hv": lambda x, t: hv(scaled_residuals(x), t),
    "hv_inf": lambda x, t: hv_inf(scaled_residuals(x)),
    "bcmr": lambda x, t: bcmr(x),
    "be": lambda x, t: be(scaled_residuals(x), t),
}


class TestOneEvaluator:
    @pytest.mark.parametrize("kind", KINDS)
    def test_public_function_equals_evaluate(self, kind):
        x = make_rng(31).normal(size=(30, 1 if _TABLE[kind].univariate else 2))
        spec = CompetitorSpec(kind)
        assert PUBLIC[kind](x, spec.tuning) == evaluate(spec, x)

    def test_non_finite_bhep_raises_as_evaluate_does(self):
        # a^2 = 1e320 leaves the float range and every term of bhep is nan
        x = make_rng(32).normal(size=(25, 2))
        errors = []
        for call in (lambda: bhep(scaled_residuals(x), 1e160), lambda: evaluate(CompetitorSpec("bhep", 1e160), x)):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                with pytest.raises(ValueError, match=r"^bhep:1e\+160 is nan at n=25") as err:
                    call()
            assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []
            errors.append(str(err.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("kind", ["bcmr", "be"])
    def test_univariate_kind_refused_at_d2_on_both_paths(self, kind):
        x = make_rng(33).normal(size=(30, 2))
        spec = CompetitorSpec(kind)
        for call in (lambda: PUBLIC[kind](x, spec.tuning), lambda: evaluate(spec, x)):
            with pytest.raises(ValueError, match=f"^{kind} is univariate$"):
                call()


class TestHvInf:
    def test_symmetric_two_point_zero(self):
        assert hv_inf(TWO_POINT) == pytest.approx(0.0, abs=1e-12)

    def test_compositional_identity(self):
        s = _sample(10, n=30, d=3)
        assert hv_inf(s) == pytest.approx(2.0 * mardia_skewness(s) + 3.0 * mrs_skewness(s), rel=1e-12)

    def test_nonnegative_components(self):
        for seed in range(5):
            s = _sample(seed, n=15, d=2)
            assert mrs_skewness(s) >= 0.0
            assert hv_inf(s) >= 2.0 * mardia_skewness(s)  # mrs part nonneg


class TestBcmr:
    def test_location_scale_invariance(self):
        x = make_rng(11).normal(size=(20, 1))
        base = bcmr(x)
        assert bcmr(3.0 * x + 7.0) == pytest.approx(base, rel=1e-8)
        assert bcmr(-2.0 * x + 1.0) == pytest.approx(bcmr(-x), rel=1e-8)

    def test_normal_scores_sit_deep_in_the_null_left_tail(self):
        # the statistic rejects for large values; the "most normal" possible
        # sample (exact quantile scores) must fall below typical null draws
        n = 100
        probs = (np.arange(1, n + 1) - 0.375) / (n + 0.25)
        x = ndtri(probs)[:, None]
        rng = make_rng(1)
        null = np.sort([bcmr(rng.standard_normal((n, 1))) for _ in range(200)])
        assert bcmr(x) < null[10]  # 5% quantile of the simulated null

    def test_quantile_integral_identity(self):
        # int_a^b ndtri(t) dt == phi(ndtri(a)) - phi(ndtri(b))
        phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        n = 10
        for k in range(1, n + 1):
            lo, hi = (k - 1) / n, k / n
            val, _ = quad(ndtri, lo, hi, epsabs=1e-9, limit=200)
            expected = (phi(ndtri(lo)) if k > 1 else 0.0) - (phi(ndtri(hi)) if k < n else 0.0)
            assert val == pytest.approx(expected, abs=2e-7)

    def test_matches_per_interval_quadrature(self):
        # the closed-form interval integrals against one quad per order statistic
        for n in (2, 7, 40):
            x = make_rng(12 + n).standard_t(4, size=(n, 1))
            xs = np.sort(x[:, 0])
            parts = [quad(ndtri, (k - 1) / n, k / n, epsabs=1e-12, limit=200)[0] for k in range(1, n + 1)]
            acc = sum(xk * part for xk, part in zip(xs, parts))
            phi = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
            integrand = lambda t: t * (1 - t) / phi(ndtri(t)) ** 2
            tail = quad(integrand, 1 / (n + 1), n / (n + 1), epsabs=1e-9, limit=200)[0]
            assert bcmr(x) == pytest.approx(n * (1 - acc**2 / np.var(xs)) - tail, rel=1e-9, abs=1e-9)

    def test_null_critical_value_stable_across_seeds(self):
        crits = []
        for seed in (1, 2):
            rng = make_rng(seed)
            vals = np.sort([bcmr(rng.standard_normal((20, 1))) for _ in range(2500)])
            crits.append(vals[int(np.ceil(0.95 * 2500)) - 1])
        assert crits[0] == pytest.approx(crits[1], abs=0.15)
        assert crits[0] > 0.0

    def test_univariate_only(self):
        with pytest.raises(ValueError):
            bcmr(np.zeros((10, 2)))

    def test_constant_sample_refused(self):
        for call in (lambda x: bcmr(x), lambda x: evaluate(CompetitorSpec("bcmr"), x)):
            with pytest.raises(ValueError, match="not constant"):
                call(np.full((10, 1), 3.0))


class TestBe:
    def test_two_point_hand_value(self):
        c1, c2 = ndtr(1.0), 1.0 - ndtr(1.0)
        g = math.sqrt(1.0 / (2 * math.pi)) * math.exp(-0.5)
        pair = c2 * (0 * 0 + 1.0 * (-1.0) * 1.0) + g * (-1.0 + 1.0 - 1.0)
        single = 0.5 * ((c1 * 1.0 + g * (-1.0)) + (c2 * 1.0 + g * 1.0))
        expected = 2.0 / 2.0 * pair + single
        assert be(TWO_POINT, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_brute_force_oracle(self):
        for seed in (3, 4):
            s = _sample(seed, n=15, d=1)
            a = 0.8
            y = np.sort(s.residuals[:, 0])
            n = len(y)
            total = 0.0
            for k in range(n):
                for j in range(k):
                    ck = 1.0 - ndtr(y[k] / math.sqrt(a))
                    gk = math.sqrt(a / (2 * math.pi)) * math.exp(-y[k] ** 2 / (2 * a))
                    total += ck * ((y[j] ** 2 - 1) * (y[k] ** 2 - 1) + a * y[j] * y[k])
                    total += gk * (-y[j] ** 2 * y[k] + y[k] + y[j])
            total *= 2.0 / n
            for j in range(n):
                cj = 1.0 - ndtr(y[j] / math.sqrt(a))
                gj = math.sqrt(a / (2 * math.pi)) * math.exp(-y[j] ** 2 / (2 * a))
                total += (cj * (y[j] ** 4 + (a - 2) * y[j] ** 2 + 1) + gj * (2 * y[j] - y[j] ** 3)) / n
            assert be(s, a) == pytest.approx(total, rel=1e-10)

    def test_finite_on_random_data(self):
        for seed in range(4):
            val = be(_sample(seed, n=40, d=1), 1.0)
            assert np.isfinite(val)

    def test_null_distribution_stable_across_seeds(self):
        meds = []
        for seed in (5, 6):
            rng = make_rng(seed)
            vals = [be(scaled_residuals(rng.standard_normal((20, 1))), 1.0) for _ in range(2000)]
            meds.append(np.median(vals))
        assert meds[0] == pytest.approx(meds[1], abs=0.05)

    def test_univariate_only(self):
        with pytest.raises(ValueError):
            be(_sample(1, n=10, d=2), 1.0)

    def test_requires_a_above_zero(self):
        for a in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"be requires a finite a > 0"):
                be(TWO_POINT, a)


class TestSpecParsing:
    def test_round_trips(self):
        assert parse_competitor("bhep:0.5") == CompetitorSpec("bhep", 0.5)
        assert parse_competitor("hvinf") == CompetitorSpec("hv_inf", None)
        assert parse_competitor("bcmr") == CompetitorSpec("bcmr", None)
        assert parse_competitor("hjg") == CompetitorSpec("hjg", 1.5)
        assert parse_competitor("be:2") == CompetitorSpec("be", 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CompetitorSpec("hjg", 0.9)
        with pytest.raises(ValueError):
            CompetitorSpec("hv", 2.0)
        with pytest.raises(ValueError):
            CompetitorSpec("nope")
        # a tuning of exactly 0 is checked as given, not as the default
        for text, message in [("bhep:0", "a > 0"), ("hjg:0", "beta > 1"), ("hv:0", "gamma > 2"),
                              ("be:0", "a > 0"), ("bhep:inf", "a > 0"), ("be:nan", "a > 0"),
                              ("hjg:nan", "beta > 1"), ("hv:inf", "gamma > 2")]:
            with pytest.raises(ValueError, match=message):
                parse_competitor(text)

    def test_evaluate_dispatch(self):
        x = make_rng(12).normal(size=(20, 1))
        assert evaluate(CompetitorSpec("bcmr"), x) == pytest.approx(bcmr(x))
        s = scaled_residuals(x)
        assert evaluate(CompetitorSpec("bhep", 1.0), x) == pytest.approx(bhep(s, 1.0))
        assert evaluate(CompetitorSpec("be", 1.0), x) == pytest.approx(be(s, 1.0))

    def test_non_numeric_tuning_names_the_kind_and_the_tuning(self):
        with pytest.raises(ValueError, match=r"^bhep requires a finite a > 0, got 'abc'$"):
            parse_competitor("bhep:abc")
        with pytest.raises(ValueError, match=r"^bcmr takes no tuning, got 'abc'$"):
            parse_competitor("bcmr:abc")

    @pytest.mark.parametrize("kind", ["hv_inf", "bcmr"])
    def test_tuning_refused_by_a_kind_that_takes_none(self, kind):
        # it would change the label and the seed key but not the statistic
        with pytest.raises(ValueError, match="takes no tuning"):
            CompetitorSpec(kind, 2.0)
        with pytest.raises(ValueError, match="takes no tuning"):
            parse_competitor(f"{kind}:2")

    @pytest.mark.parametrize("kind,default", [("bhep", 1.0), ("hjg", 1.5), ("hv", 5.0), ("be", 1.0)])
    def test_spec_without_tuning_uses_the_default(self, kind, default):
        x = make_rng(13).normal(size=(20, 1 if kind == "be" else 2))
        assert CompetitorSpec(kind) == CompetitorSpec(kind, default)
        assert evaluate(CompetitorSpec(kind), x) == evaluate(CompetitorSpec(kind, default), x)
