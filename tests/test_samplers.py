import hashlib
import math
import re

import numpy as np
import pytest
from scipy import stats

from normtest import AlternativeSpec, parse_spec, sample, samplers, sphere_uniform
from conftest import make_rng


class TestParse:
    def test_examples_from_grammar(self):
        spec = parse_spec("nmix:p=0.1,mu=3,sigma=Bd")
        assert spec.kind == "nmix" and spec.params == {"p": 0.1, "mu": 3.0, "sigma": "Bd"}
        assert parse_spec("mt:nu=5").params == {"nu": 5.0}
        sph = parse_spec("spherical:exp(1)")
        assert sph.kind == "spherical" and sph.base.kind == "exp"
        assert parse_spec("prod:pvii(10)").base.params == {"theta": 10.0}
        assert parse_spec("std").kind == "std"
        assert parse_spec("beta(1,4)").params == {"alpha": 1.0, "beta": 4.0}
        assert parse_spec("gamma:shape=5,rate=1").params == {"shape": 5.0, "rate": 1.0}

    def test_positional_equivalent_to_kv(self):
        assert parse_spec("chisq(5)") == parse_spec("chisq:nu=5")
        assert parse_spec("weibull(1,0.5)") == parse_spec("weibull:scale=1,shape=0.5")
        assert parse_spec("nmix(0.5,0,Bd)") == parse_spec("nmix:p=0.5,mu=0,sigma=Bd")
        assert parse_spec("lognormal(0,1)") == parse_spec("lognormal:mu=0,sigma=1")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            parse_spec("nmix:p=1.5,mu=0,sigma=1")
        with pytest.raises(ValueError):
            parse_spec("gamma:shape=-1,rate=1")
        with pytest.raises(ValueError):
            parse_spec("pvii:theta=0.3")
        with pytest.raises(ValueError):
            parse_spec("wat")
        with pytest.raises(ValueError):
            parse_spec("spherical:")
        for text in ("t:nu=inf", "nmix:p=nan", "nmix:p=0.5,mu=I", "lognormal:sigma=0", "uniform(5)", "beta(,4)",
                     "t:nu=3,nu=5", "nmix:p=0.1,p=0.9"):
            with pytest.raises(ValueError):
                parse_spec(text)

    @pytest.mark.parametrize(
        "text,form",
        [("t", "t(nu)"), ("gamma:shape=2", "gamma(shape, rate)"), ("t:df=5", "t(nu)"),
         ("uniform:scale=5", "uniform()"), ("exp:rate=1,x=2", "exp(rate=1)"), ("t:nu=I", "t(nu)"),
         ("t:nu=3,nu=5", "t(nu) takes 'nu' once"), ("nmix:p=0.1,p=0.9", "nmix(p, mu=0, sigma=1) takes 'p' once")],
    )
    def test_refusal_names_the_kind_and_its_parameters(self, text, form):
        with pytest.raises(ValueError, match=re.escape(form)):
            parse_spec(text)

    def test_matrix_sigma_refused_at_d1(self):
        spec = parse_spec("nmix:p=0.5,sigma=I")
        with pytest.raises(ValueError, match="d >= 2"):
            sample(spec, 10, 1, d=1)
        with pytest.raises(ValueError, match="d >= 2"):
            sample(AlternativeSpec("prod", base=spec), 10, 1, d=2)

    @pytest.mark.parametrize("text", ["std", "prod:t(3)"])
    @pytest.mark.parametrize("d", [0, -1])
    def test_dimension_below_one_refused(self, text, d):
        with pytest.raises(ValueError, match=f"^need dimension d >= 1, got d={d}$"):
            sample(parse_spec(text), 5, 0, d=d)

    def test_nmix_factor_is_cached_and_read_only(self):
        factor = samplers._nmix_factor("Bd", 3)
        assert samplers._nmix_factor("Bd", 3) is factor and not factor.flags.writeable
        np.testing.assert_array_equal(factor, np.linalg.cholesky(samplers._b_matrix(3)))

    def test_base_must_be_univariate(self):
        with pytest.raises(ValueError):
            AlternativeSpec(kind="prod", base=AlternativeSpec(kind="mt", params={"nu": 3.0}))

    def test_labels(self):
        assert parse_spec("spherical:exp(1)").label() == "spherical:exp(rate=1.0)"
        assert parse_spec("uniform").label() == "uniform"


class TestDeterminism:
    def test_same_seed_same_matrix(self):
        spec = parse_spec("mt:nu=5")
        a = sample(spec, 50, 123, d=3)
        b = sample(spec, 50, 123, d=3)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        spec = parse_spec("uniform")
        assert not np.array_equal(sample(spec, 10, 1), sample(spec, 10, 2))


def _digest(x):
    return hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()).hexdigest()[:16]


class TestFrozenDraws:
    """Digests of sample(spec, 20, 8, d), recorded from the if-chain sampler
    that the per-kind table replaced: the power tables are built on these draws."""

    FROZEN = {
        ("t(5)", 1): "f58bd47a1a816b19",
        ("uniform", 1): "ce162e5edcd1dcad",
        ("chisq(5)", 1): "0c24c87a3a27b0dc",
        ("beta(1,4)", 1): "9ba99fae4d6faadf",
        ("gamma(5,1)", 1): "964c9a8e62706b52",
        ("gumbel(1,2)", 1): "fcad51af50d26276",
        ("lognormal", 1): "91f4f9095c42e8ef",
        ("weibull(1,0.5)", 1): "f2f3bf0cc55d353e",
        ("laplace", 1): "db7aefac7eaad982",
        ("logistic", 1): "070c24a4aaabd87f",
        ("cauchy", 1): "d4e31b1c49e7d9f9",
        ("pvii(10)", 1): "d17e0c2eda54f148",
        ("exp(1)", 1): "7bd1729de5e452c7",
        ("nmix:p=0.3,mu=1,sigma=0.25", 1): "c5a2eeef6465da53",
        ("prod:t(5)", 3): "8d3ddc3a40095a84",
        ("spherical:t(5)", 3): "fa6cbeec8efc6a66",
        ("prod:uniform", 3): "c49e3dc5533eeaa8",
        ("spherical:uniform", 3): "6974356f291422f0",
        ("prod:chisq(5)", 3): "48f71daf727551bb",
        ("spherical:chisq(5)", 3): "5b9c57474d87f9e5",
        ("prod:beta(1,4)", 3): "814738bdf7efc652",
        ("spherical:beta(1,4)", 3): "ac72c5df42513a79",
        ("prod:gamma(5,1)", 3): "46d48e1423943e04",
        ("spherical:gamma(5,1)", 3): "3c2080eb8c1c7985",
        ("prod:gumbel(1,2)", 3): "ca281bc38116faea",
        ("spherical:gumbel(1,2)", 3): "3488e47650888965",
        ("prod:lognormal", 3): "16fe2b2524a8b0b6",
        ("spherical:lognormal", 3): "71af407f525481dd",
        ("prod:weibull(1,0.5)", 3): "6a1c4335b5ed8be7",
        ("spherical:weibull(1,0.5)", 3): "d1980695aa80d008",
        ("prod:laplace", 3): "d2cb0b8ed4d87029",
        ("spherical:laplace", 3): "751ee9be35c8903a",
        ("prod:logistic", 3): "4cee4a9679fc8b97",
        ("spherical:logistic", 3): "68a941703aeae87c",
        ("prod:cauchy", 3): "d5a6f4bbd00c4722",
        ("spherical:cauchy", 3): "1167553ba6fe4dd0",
        ("prod:pvii(10)", 3): "0fea663956940cfa",
        ("spherical:pvii(10)", 3): "a1aa2ae764984850",
        ("prod:exp(1)", 3): "e78def0d42225594",
        ("spherical:exp(1)", 3): "476a1c872a83e82c",
        ("prod:nmix:p=0.3,mu=1,sigma=0.25", 3): "e9195b676cd64011",
        ("spherical:nmix:p=0.3,mu=1,sigma=0.25", 3): "2327ed85f87e5007",
        ("std", 1): "a331fa37631bcd1d",
        ("std", 3): "e36bb311484acdad",
        ("mt:nu=5", 1): "a08e45f3b067e821",
        ("mt:nu=5", 3): "553d5957a5b86503",
        ("nmix:p=0.5,mu=2,sigma=I", 2): "daece6e945c7b329",
        ("nmix:p=0.5,mu=0,sigma=Bd", 2): "93a3241803de7b30",
        ("nmix:p=0.5,mu=-1,sigma=4", 2): "33723be303378cb1",
    }

    def test_draws_unchanged(self):
        drawn = {(text, d): _digest(sample(parse_spec(text), 20, 8, d=d)) for text, d in self.FROZEN}
        assert drawn == self.FROZEN


class TestSphere:
    def test_unit_norm(self):
        rng = make_rng(5)
        for d in (1, 2, 6):
            u = sphere_uniform(d, rng)
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)

    def test_d1_sign_balance(self):
        rng = make_rng(6)
        draws = np.array([sphere_uniform(1, rng)[0] for _ in range(10_000)])
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert abs(draws.mean()) < 5.0 / math.sqrt(10_000)

    def test_covariance_is_identity_over_d(self):
        from normtest.samplers import _sphere_uniform_many

        d, n = 3, 100_000
        u = _sphere_uniform_many(d, n, make_rng(7))
        cov = u.T @ u / n
        np.testing.assert_allclose(cov, np.eye(d) / d, atol=0.01)
        np.testing.assert_allclose(u.mean(axis=0), 0.0, atol=0.01)


MOMENTS = [
    # spec string, mean, variance, absolute tolerances at n=1e6 (~5 SE)
    ("uniform", 0.0, 1.0, 5e-3, 5e-3),
    ("laplace", 0.0, 1.0, 8e-3, 3e-2),
    ("logistic", 0.0, 1.0, 6e-3, 2e-2),
    ("chisq(5)", 5.0, 10.0, 2e-2, 0.35),
    ("gamma:shape=1,rate=5", 0.2, 0.04, 1.5e-3, 1e-3),
    ("gamma:shape=5,rate=1", 5.0, 5.0, 1.5e-2, 0.25),
    ("beta(1,4)", 0.2, 4.0 / 150.0, 1e-3, 5e-4),
    ("beta(2,5)", 2.0 / 7.0, 10.0 / 392.0, 1e-3, 5e-4),
    ("gumbel(1,2)", 1.0 + 2.0 * np.euler_gamma, 4.0 * np.pi**2 / 6.0, 2e-2, 0.2),
    ("lognormal", np.exp(0.5), (np.e - 1.0) * np.e, 2e-2, 1.0),
    ("weibull(1,0.5)", 2.0, 20.0, 5e-2, 1.2),
    ("t(5)", 0.0, 5.0 / 3.0, 7e-3, 3e-2),
    ("pvii:theta=10", 0.0, 1.0 / 17.0, 2e-3, 2e-3),
]


class TestMoments:
    @pytest.mark.parametrize("spec_str,mean,var,mtol,vtol", MOMENTS)
    def test_first_two_moments(self, spec_str, mean, var, mtol, vtol):
        x = sample(parse_spec(spec_str), 1_000_000, 2024, d=1)[:, 0]
        assert x.mean() == pytest.approx(mean, abs=mtol)
        assert x.var() == pytest.approx(var, abs=vtol)

    def test_std_normal_lln(self):
        x = sample(parse_spec("std"), 1_000_000, 11, d=3)
        np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=4.0 / 1000.0)

    def test_multivariate_t_covariance(self):
        nu, d, n = 5.0, 3, 200_000
        x = sample(parse_spec("mt:nu=5"), n, 21, d=d)
        cov = x.T @ x / n
        np.testing.assert_allclose(cov, nu / (nu - 2.0) * np.eye(d), atol=0.06)

    def test_nmix_univariate_moments(self):
        # (1-p) N(0,1) + p N(mu, s2): mean p mu, var (1-p)(1) + p(s2) + p(1-p)mu^2
        p, mu, s2 = 0.3, 1.0, 0.25
        x = sample(parse_spec("nmix:p=0.3,mu=1,sigma=0.25"), 1_000_000, 31, d=1)[:, 0]
        assert x.mean() == pytest.approx(p * mu, abs=5e-3)
        assert x.var() == pytest.approx((1 - p) + p * s2 + p * (1 - p) * mu**2, abs=1e-2)


class TestStructured:
    def test_spherical_exponential_radius(self):
        x = sample(parse_spec("spherical:exp(1)"), 100_000, 41, d=3)
        radii = np.linalg.norm(x, axis=1)
        ks = stats.kstest(radii, "expon").statistic
        assert ks < 0.01
        directions = x / radii[:, None]
        np.testing.assert_allclose(directions.mean(axis=0), 0.0, atol=0.01)

    def test_nmix_bd_covariance(self):
        n = 400_000
        x = sample(parse_spec("nmix:p=0.9,mu=0,sigma=Bd"), n, 51, d=2)
        # p=0.9 of N(0, B_2) with off-diagonal 0.9, 0.1 of N(0, I)
        cov = x.T @ x / n
        assert cov[0, 1] == pytest.approx(0.9 * 0.9, abs=0.01)
        assert cov[0, 0] == pytest.approx(1.0, abs=0.01)

    def test_product_iid_coordinates_independent(self):
        x = sample(parse_spec("prod:logistic"), 200_000, 61, d=2)
        corr = np.corrcoef(x.T)
        assert abs(corr[0, 1]) < 0.01

    def test_univariate_kind_needs_prod_for_d_above_one(self):
        with pytest.raises(ValueError, match="prod:"):
            sample(parse_spec("chisq(5)"), 10, 1, d=3)

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            sample(parse_spec("std"), 0, 1, d=1)
