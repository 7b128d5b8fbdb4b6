import math
import re
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from normtest import (
    CompetitorSpec,
    LimitSamplerConfig,
    critical_value,
    expected_limit,
    kernel_K,
    limit_eigenvalues,
    limit_quantile,
    mc_null_sample,
    pvalue_mc,
    scaled_residuals,
    t_statistic,
)
from normtest import evaluate, nulldist, parallel, power
from normtest.competitors import KINDS, parse_competitor
from normtest.samplers import parse_spec, sample
from normtest.nulldist import _kernel
from normtest.statistic import scaling_factor
from conftest import make_rng


def _h_func(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    # Influence function of the limiting process under the null: the
    # projection of one standardized observation onto frequency t, whose
    # covariance over observations is the kernel K.
    x = np.atleast_2d(x)
    d = x.shape[1]
    t = np.asarray(t, dtype=float)
    nx = np.einsum("ij,ij->i", x, x)
    tx = x @ t
    nt = float(t @ t)
    pt = math.exp(-0.5 * nt)
    mt = (d - nt) * pt
    cs = np.cos(tx) + np.sin(tx)
    return (
        nx * cs
        - (2.0 * pt + mt) * tx
        - pt * nx
        + (2.0 * pt + 0.5 * mt) * tx**2
        - (pt + 0.5 * mt) * nt
    )


def _kernel_matrix(u: np.ndarray, d: int) -> np.ndarray:
    # K on every pair of rows of u, through the three scalars it reads
    ns = np.einsum("ij,ij->i", u, u)
    return _kernel(ns[:, None], ns[None, :], u @ u.T, d)


class TestKernel:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_zero_at_origin(self, d):
        assert kernel_K(np.zeros(d), np.zeros(d)) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = make_rng(1)
        for d in (1, 2, 4):
            s, t = rng.normal(size=d), rng.normal(size=d)
            assert kernel_K(s, t) == pytest.approx(kernel_K(t, s), rel=1e-12)

    def test_matrix_matches_scalar(self):
        rng = make_rng(2)
        u = rng.normal(size=(4, 3))
        km = _kernel_matrix(u, 3)
        assert km.shape == (4, 4)
        for i in range(4):
            for j in range(4):
                assert km[i, j] == pytest.approx(kernel_K(u[i], u[j]), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_monte_carlo_cross_check(self, d):
        # empirical covariance of the influence projections reproduces K
        rng = make_rng(300 + d)
        draws = 100_000
        x = rng.standard_normal((draws, d))
        for trial in range(3):
            s, t = rng.normal(size=d), rng.normal(size=d)
            hs, ht = _h_func(x, s), _h_func(x, t)
            prod = (hs - hs.mean()) * (ht - ht.mean())
            emp = float(np.mean(prod))
            se = float(np.std(prod, ddof=1) / np.sqrt(draws))
            assert abs(emp - kernel_K(s, t)) < 3.0 * se

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="^s and t must have the same length$"):
            kernel_K(np.zeros(2), np.zeros(3))

    def test_h_is_centred(self):
        rng = make_rng(9)
        x = rng.standard_normal((400_000, 2))
        t = np.array([0.3, -1.1])
        h = _h_func(x, t)
        assert abs(h.mean()) < 4.0 * h.std(ddof=1) / np.sqrt(len(h))


class TestExpectedLimit:
    @pytest.mark.parametrize("d,a", [(1, 1.0), (2, 1.0), (3, 0.5), (5, 2.0), (1, 0.1), (4, 3.0)])
    def test_positive(self, d, a):
        assert expected_limit(d, a) > 0.0

    @pytest.mark.parametrize("d,a", [(1, 1.0), (2, 1.0), (3, 0.5), (5, 2.0), (1, 0.1)])
    def test_matches_radial_quadrature(self, d, a):
        # E = int K(t,t) w_a(t) dt reduced to a radial integral
        def k_diag(rsq):
            d2, d4 = d + 2.0, d + 4.0
            return (d2 * d2 - 2.0 * d2) + np.exp(-rsq) * (
                -0.5 * rsq**2 * (rsq - d4) ** 2
                + 4.0 * d2 * rsq
                - 3.0 * rsq**2
                - rsq * (rsq - d2) ** 2
                - d * d2
            )

        surface = 2.0 * np.pi ** (d / 2.0) / gamma_fn(d / 2.0)
        val, err = quad(
            lambda r: k_diag(r * r) * np.exp(-a * r * r) * r ** (d - 1), 0.0, np.inf, limit=300
        )
        assert expected_limit(d, a) == pytest.approx(surface * val, rel=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_large_a_decay(self, d):
        # E * a^{d/2} -> 0 while a^{d/2+1} E converges to a finite constant,
        # consistent with the dominant first-term algebra
        vals = np.array([expected_limit(d, a) for a in (1e4, 1e5, 1e6)])
        decayed = vals * np.array([1e4, 1e5, 1e6]) ** (d / 2.0)
        assert decayed[0] > decayed[1] > decayed[2] > 0.0
        stabilized = vals * np.array([1e4, 1e5, 1e6]) ** (d / 2.0 + 1.0)
        assert stabilized[1] == pytest.approx(stabilized[2], rel=1e-2)
        dominant = d * (d + 2.0) * np.pi ** (d / 2.0)
        assert stabilized[2] == pytest.approx(dominant, rel=1e-2)


_PI_50 = "3.1415926535897932384626433832795028841971693993751"


def _expected_limit_digits(d: int, a: float) -> Decimal:
    # the closed form of expected_limit as the tests' first reference writes it, in 50 digits
    with localcontext() as ctx:
        ctx.prec = 50
        pi, d, a = Decimal(_PI_50), Decimal(d), Decimal(a)
        h = d / 2

        def c(j: int) -> Decimal:
            return pi**h * d / (a + 1) ** (h + j)

        return (
            d * (d + 2) * ((pi / a) ** h - (pi / (a + 1)) ** h)
            - c(4) * (d + 2) * (d + 4) * (d + 6) / 32
            + c(3) * (d + 2) * (d + 3) * (d + 4) / 8
            - c(2) * (d + 2) * (d**2 + 4 * d + 14) / 8
            + c(1) * (2 - d) * (d + 2) / 2
        )


class TestExpectedLimitDigits:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_matches_many_digits(self, d):
        # the two powers of the first term cancel at large a; the float form must not lose them
        for a in (1e-3, 0.1, 1.0, 10.0, 1e3, 1e6, 1e12, 1e20, 1e30):
            ref = _expected_limit_digits(d, a)
            assert abs((Decimal(expected_limit(d, a)) - ref) / ref) <= Decimal("1e-12"), a

    @pytest.mark.parametrize("d", [1, 5])
    def test_mean_out_of_the_float_range_refused(self, d):
        with pytest.raises(ValueError, match=rf"^the limit mean at d={d}, a=1e\+300 leaves the float range$"):
            expected_limit(d, 1e300)

    def test_large_a_law_served(self):
        # the cancelling form was 9.4e-10 off the law's trace here, and the cell was refused
        q = limit_quantile(5, 3e4, 0.05)
        assert 0.0 < expected_limit(5, 3e4) * scaling_factor(5, 3e4) < q


class TestMcNullSample:
    def test_reproducible_bitwise(self):
        v1 = mc_null_sample(2, 15, 1.0, 300, 77, workers=1)
        v2 = mc_null_sample(2, 15, 1.0, 300, 77, workers=1)
        np.testing.assert_array_equal(v1, v2)

    def test_worker_invariance(self):
        v1 = mc_null_sample(1, 20, 0.5, 400, 5, workers=1)
        v4 = mc_null_sample(1, 20, 0.5, 400, 5, workers=4)
        np.testing.assert_array_equal(v1, v4)

    def test_sorted_positive(self):
        v = mc_null_sample(1, 10, 1.0, 200, 3)
        assert np.all(np.diff(v) >= 0)
        assert np.all(v > 0)

    def test_requires_enough_observations(self):
        with pytest.raises(ValueError):
            mc_null_sample(3, 3, 1.0, 10, 0)

    def test_checkpoint_resume(self, tmp_path):
        path = str(tmp_path / "chk.npz")
        full = mc_null_sample(1, 12, 1.0, 250, 9, workers=1)
        with_checkpoint = mc_null_sample(1, 12, 1.0, 250, 9, workers=1, checkpoint=path)
        np.testing.assert_array_equal(full, with_checkpoint)
        # a checkpoint from different run parameters is ignored
        resumed_other = mc_null_sample(1, 12, 1.0, 120, 9, workers=1, checkpoint=path)
        np.testing.assert_array_equal(resumed_other, mc_null_sample(1, 12, 1.0, 120, 9))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tuple_of_a_is_each_a_alone(self, workers):
        # one draw for every a; column c is the sorted sample of a[c] on its own, bit for bit
        a_list = (0.25, 1.0, 10.0)
        block = mc_null_sample(3, 20, a_list, 300, 13, workers=workers)
        assert block.shape == (300, 3)
        for c, a in enumerate(a_list):
            np.testing.assert_array_equal(block[:, c], mc_null_sample(3, 20, a, 300, 13, workers=workers))


BLOCK_ALTS = ("std", "mt:nu=5", "nmix:p=0.1,mu=3,sigma=I", "prod:uniform")  # sigma=1 at d=1
# (d, n, replications): the kernel's sub-stacks of 26 at n=50 and of 2 at
# n=150 end inside the run; n=300 is above the kernel's block edge, so it is
# evaluated one sample at a time.  The last five cases also cross a stack of
# draws, 64 KB of them: 409 samples at (1, 20), 81 at (2, 50), 27 at (2, 150)
# and (1, 300), 13 at (2, 300).
BLOCK_CASES = [(d, n, reps) for d in (1, 2) for n, reps in ((d + 1, 23), (20, 23), (50, 30), (150, 5), (300, 3))] + [
    (1, 20, 411), (2, 50, 83), (2, 150, 29), (1, 300, 29), (2, 300, 15)
]


class TestBlockEngine:
    """Replications evaluated in stacks give the values of the public per-sample path."""

    @pytest.mark.parametrize("d,n,reps", BLOCK_CASES)
    def test_block_values_match_the_public_path(self, d, n, reps):
        kinds = KINDS if d == 1 else [k for k in KINDS if k not in ("bcmr", "be")]
        for text in BLOCK_ALTS:
            alt = parse_spec(text.replace("sigma=I", "sigma=1") if d == 1 else text)
            for column in [1.5, *map(CompetitorSpec, kinds)]:
                got = nulldist._rep([parallel.substream(17, i) for i in range(reps)], alt, n, d, (column,))[:, 0]
                want = []
                for i in range(reps):
                    x = sample(alt, n, parallel.substream(17, i), d=d)
                    if isinstance(column, CompetitorSpec):
                        want.append(evaluate(column, x))
                    else:
                        want.append(t_statistic(scaled_residuals(x), column).scaled)
                np.testing.assert_array_equal(got, want)

    def test_frozen_values(self):
        # Values of the one-replication-at-a-time engine.  Replicates 25 | 26
        # straddle the kernel's first sub-stack edge, and 80 | 81 the first
        # stack of draws; an einsum in place of a matmul moves bits here, and
        # so does np.exp in place of libm's exp (hjg at 3, 17).  Elementwise
        # passes in place of the exponent's one matmul of augmented factors
        # move hjg at 25, 26 and all of hv, by at most 4.5e-15 relative.
        frozen = {
            1.5: [
                0.31683206647021006, 0.747433631578281, 2.0812224224390237, 1.3862436997784089,
                1.7948244052392197, 1.6051932066878913,
            ],
            "bhep:0.5": [
                0.00021438130180895243, 0.0031663836421828018, 0.014347070799164086, 0.0034231863474651902,
                0.001867054123867562, 0.0012671420812280232,
            ],
            "hjg:1.5": [
                37.36260893518643, 3.6602722706452493, 43.45613615016334, 15.653370591021087,
                76.90440831242321, 128.38649409427262,
            ],
            "hv:5": [
                3.1764893018087417, 4.224836953753199, 3.128691752252492, 67.3186272441447,
                0.6076219937245235, 9.347613599999788,
            ],
            "hvinf": [
                8.163189505025656, 3.1924164788716176, 0.7901640876435057, 17.346721801878836,
                4.607826690087478, 1.6245506901808375,
            ],
        }
        alt = parse_spec("mt:nu=5")
        for key, want in frozen.items():
            column = key if isinstance(key, float) else parse_competitor(key)
            rngs = [parallel.substream(power._cell_seed(4242, parallel.ALT, 2, 50, column), i) for i in range(82)]
            assert nulldist._rep(rngs, alt, 50, 2, (column,))[[3, 17, 25, 26, 80, 81], 0].tolist() == want, key

    def test_frozen_univariate_values(self):
        # Values of bcmr and be when they ran one sample at a time.  At n=20 a
        # stack of draws holds 409 samples, so replicates 408 | 409 straddle
        # its edge, and 162 | 163 the former edge of a stack of 163; a
        # stacked matrix-vector product in place of bcmr's per-sample dot moves
        # bits here, and numpy's square in place of Python's ** 2 at replicate 696.
        frozen = {
            "bcmr": [
                -0.27465598732915875, -0.9953412251098925, 2.3063631481978755, 0.5868559657783734,
                -0.7937329800296278, -1.2916526382510762,
            ],
            "be:1": [
                1.206451253867078, 0.11807667766852115, 0.9066851158326514, 2.011575092683028,
                2.0223464216439746, 0.16941353610317145,
            ],
            "be:0.3": [
                0.06954465680476107, 0.37610680307556793, 0.04761100646114014, 0.28896876919702824,
                0.925862092100677, 0.06726437991679324,
            ],
        }
        alt = parse_spec("t:nu=3")
        for key, want in frozen.items():
            column = parse_competitor(key)
            rngs = [parallel.substream(power._cell_seed(4242, parallel.ALT, 1, 20, column), i) for i in range(410)]
            assert nulldist._rep(rngs, alt, 20, 1, (column,))[[3, 17, 162, 163, 408, 409], 0].tolist() == want, key
        column = parse_competitor("bcmr")
        rngs = [parallel.substream(power._cell_seed(4242, parallel.ALT, 1, 20, column), i) for i in range(697)]
        assert nulldist._rep(rngs, alt, 20, 1, (column,))[696, 0] == -0.8893435535587935

    def test_worker_count_invariance(self):
        # chunks of 137 replications on one worker and of 68 on two: chunk
        # edges cut the stacks of 81 draws in different places
        args = (parse_spec("mt:nu=5"), 50, 2, (CompetitorSpec("hjg"),))
        one = parallel.map_replications(nulldist._rep, 1100, 8, args=args, workers=1)
        two = parallel.map_replications(nulldist._rep, 1100, 8, args=args, workers=2)
        np.testing.assert_array_equal(one, two)

    def test_resume_inside_a_block(self, tmp_path):
        args = (nulldist._NULL, 50, 2, (1.5,))
        full = parallel.map_replications(nulldist._rep, 100, 3, args=args, workers=1)
        path, meta = parallel._checkpoint_file(nulldist._rep, args, 100, 3, str(tmp_path))
        parallel._save_checkpoint(path, meta, full[:40])  # 40 ends inside the first stack of 81 draws
        resumed = parallel.map_replications(
            nulldist._rep, 100, 3, args=args, workers=1, checkpoint=str(tmp_path)
        )
        np.testing.assert_array_equal(resumed, full)

    MULTI = (parse_spec("mt:nu=5"), 50, 2, (1.5, CompetitorSpec("hjg"), 0.5, CompetitorSpec("bhep", 0.5)))

    def test_columns_equal_one_column_cells(self):
        block = nulldist._rep([parallel.substream(5, i) for i in range(60)], *self.MULTI)
        assert block.shape == (60, 4)
        alt, n, d, columns = self.MULTI
        for c, column in enumerate(columns):
            alone = nulldist._rep([parallel.substream(5, i) for i in range(60)], alt, n, d, (column,))
            np.testing.assert_array_equal(block[:, c], alone[:, 0])

    def test_multi_column_worker_count_invariance(self):
        # chunks of 75 replications on one worker and of 64 on two
        one = parallel.map_replications(nulldist._rep, 600, 8, args=self.MULTI, workers=1)
        two = parallel.map_replications(nulldist._rep, 600, 8, args=self.MULTI, workers=2)
        assert one.shape == (600, 4)
        np.testing.assert_array_equal(one, two)

    def test_multi_column_resume_inside_a_block(self, tmp_path):
        full = parallel.map_replications(nulldist._rep, 100, 3, args=self.MULTI, workers=1)
        path, meta = parallel._checkpoint_file(nulldist._rep, self.MULTI, 100, 3, str(tmp_path))
        # 40 ends inside the first stack of 81 draws; a marked prefix shows that it is reused
        parallel._save_checkpoint(path, meta, np.full((40, 4), -1.0))
        resumed = parallel.map_replications(
            nulldist._rep, 100, 3, args=self.MULTI, workers=1, checkpoint=str(tmp_path)
        )
        assert resumed.shape == (100, 4) and (resumed[:40] == -1.0).all()
        np.testing.assert_array_equal(resumed[40:], full[40:])
        np.testing.assert_array_equal(parallel._load_checkpoint(path, meta), resumed)

    def test_memory_within_the_kernel_budget(self):
        # stacks of 13 draws at n=150, d=4, their kernel evaluated 2 samples at
        # a time; a stack of a whole chunk of 250 would hold
        # 250 * 150^2 * 8 B = 45 MB of Gram matrices
        mc_null_sample(4, 150, 1.0, 20, 1)
        tracemalloc.start()
        try:
            mc_null_sample(4, 150, 1.0, 2000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("n,d", [(20, 2), (150, 4), (600, 3)])
    def test_memory_of_one_chunk(self, n, d):
        # one chunk of 1000 replications: stacks of 204, 13 and 4 draws, whose
        # kernel runs in sub-stacks of 163, 2 and 1 samples; a kernel that took
        # a whole stack of draws at once would hold 2.3 MB at n=150
        nulldist._rep(parallel._streams(3, 0, 10), nulldist._NULL, n, d, (1.0,))
        tracemalloc.start()
        try:
            nulldist._rep(parallel._streams(3, 0, 1000), nulldist._NULL, n, d, (1.0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestCriticalValue:
    def test_order_statistic_examples(self):
        data = np.arange(1.0, 11.0)
        assert critical_value(data, 0.1) == 9.0
        assert critical_value(data, 0.5) == 5.0

    def test_normal_quantile(self):
        draws = make_rng(123).standard_normal(100_000)
        assert critical_value(draws, 0.05) == pytest.approx(1.645, abs=0.02)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            critical_value([], 0.1)

    def test_failed_replicates_refused_and_counted(self):
        data = np.arange(1.0, 11.0)
        data[[2, 7]] = np.nan
        with pytest.raises(ValueError, match="^2 of 10 replicates are nan"):
            critical_value(data, 0.1)
        # +inf is a replicate too large for a float; it is kept above a finite quantile
        data[[2, 7]] = [3.0, np.inf]
        assert critical_value(data, 0.1) == 10.0
        # and refused as the quantile itself
        data[2] = np.inf
        with pytest.raises(ValueError, match="^2 of 10 replicates overflowed; the critical value is inf$"):
            critical_value(data, 0.1)

    def test_alpha_domain(self):
        for alpha in (0.0, 1.0, np.nan):
            with pytest.raises(ValueError, match=re.escape("alpha must be in (0, 1)")):
                critical_value([1.0], alpha)
            with pytest.raises(ValueError, match=re.escape("alpha must be in (0, 1)")):
                limit_quantile(1, 1.0, alpha)


class TestPvalue:
    def test_sentinel_below_all(self):
        assert pvalue_mc(-np.inf, 1, 10, 1.0, 99, 0) == 1.0

    def test_above_all(self):
        assert pvalue_mc(np.inf, 1, 10, 1.0, 99, 0) == pytest.approx(1.0 / 100.0)

    def test_nan_refused(self):
        # no replicate is >= nan, which would otherwise read as the strongest rejection, 1/(R+1)
        with pytest.raises(ValueError, match="nan"):
            pvalue_mc(float("nan"), 1, 10, 1.0, 99, 0)

    @pytest.mark.parametrize("cell", [(31, 2, 0.5), (30, 3, 0.5), (30, 2, 5.0)], ids=["n", "d", "a"])
    def test_statistic_of_another_cell_refused(self, cell):
        # T at (30, 2, 0.5) read against another cell's null gives a p-value of no test
        stat = t_statistic(scaled_residuals(make_rng(8).standard_normal((30, 2))), 0.5)
        n, d, a = cell
        message = f"observed statistic is at (n=30, d=2, a=0.5), the null at (n={n}, d={d}, a={a:g})"
        with pytest.raises(ValueError, match=re.escape(message)):
            pvalue_mc(stat, d, n, a, 99, 0)
        assert 0.0 < pvalue_mc(stat, 2, 30, 0.5, 99, 0) <= 1.0

    def test_matches_manual_count(self):
        null = mc_null_sample(1, 10, 1.0, 199, 4)
        obs = float(np.median(null))
        expected = (1.0 + np.sum(null >= obs)) / 200.0
        assert pvalue_mc(obs, 1, 10, 1.0, 199, 4) == pytest.approx(expected)

    def test_uniform_under_arbitrary_normal_data(self):
        # affine invariance makes the p-value exactly uniform under any
        # nondegenerate normal law, not just the standard one
        from scipy import stats

        from normtest import scaled_residuals, t_statistic

        mu = np.array([1.0, -2.0, 0.5, 3.0])
        cov = np.array(
            [
                [2.0, 0.3, 0.1, 0.0],
                [0.3, 1.0, 0.2, 0.1],
                [0.1, 0.2, 1.5, 0.4],
                [0.0, 0.1, 0.4, 0.8],
            ]
        )
        chol = np.linalg.cholesky(cov)
        ps = []
        for i in range(200):
            rng = make_rng(600_000 + i)
            x = mu + rng.standard_normal((30, 4)) @ chol.T
            stat = t_statistic(scaled_residuals(x), 1.0)
            ps.append(pvalue_mc(stat, 4, 30, 1.0, 199, seed=i))
        assert stats.kstest(ps, "uniform").statistic < 0.1


def _gauss_hermite_law(d: int, a: float, nodes: int):
    # independent d <= 2 oracle: Nystrom on the tensor Gauss-Hermite rule of N(0, (2a)^{-1} I)
    x, w = hermegauss(nodes)
    x, w = x / np.sqrt(2.0 * a), w / w.sum()
    if d == 2:
        x = np.stack(np.meshgrid(x, x, indexing="ij"), -1).reshape(-1, 2)
        w = np.outer(w, w).ravel()
    else:
        x = x[:, None]
    root = np.sqrt(w) / d
    lam = np.linalg.eigvalsh(_kernel_matrix(x, d) * np.outer(root, root))
    lam = lam[lam > 0.0][::-1]
    return lam, np.ones(lam.size, dtype=int)


class TestLimitLaw:
    @pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_trace_is_the_closed_form_mean(self, d, a):
        lam, mult = limit_eigenvalues(d, a)
        assert np.all(lam > 0.0) and np.all(np.diff(lam) <= 0.0) and np.all(mult >= 1)
        assert mult @ lam == pytest.approx(expected_limit(d, a) * scaling_factor(d, a), rel=1e-10, abs=0.0)

    def test_multiplicities_are_the_harmonic_dimensions(self):
        # d = 3: degree l has 2l + 1 harmonics; d = 1: one even and one odd part
        assert set(limit_eigenvalues(3, 1.0)[1]) <= {2 * l + 1 for l in range(200)}
        assert set(limit_eigenvalues(1, 1.0)[1]) == {1}

    @pytest.mark.parametrize("d,a,nodes,expect", [(1, 1.0, 200, 1.760102), (2, 3.0, 40, 0.598870)])
    def test_matches_gauss_hermite_oracle(self, monkeypatch, d, a, nodes, expect):
        q = limit_quantile(d, a, 0.05)
        assert q == pytest.approx(expect, abs=1e-6)
        law = _gauss_hermite_law(d, a, nodes)
        assert law[1] @ law[0] == pytest.approx(expected_limit(d, a) * scaling_factor(d, a), rel=1e-10)
        monkeypatch.setattr(nulldist, "limit_eigenvalues", lambda d, a: law)
        assert limit_quantile(d, a, 0.05) == pytest.approx(q, abs=1e-6)

    @pytest.mark.parametrize("lam,mult", [((1.0,), (3,)), ((1.0,), (5,)), ((0.25,), (30,))])
    def test_inversion_of_one_chi_square(self, monkeypatch, lam, mult):
        from scipy.stats import chi2

        lam, mult = np.array(lam), np.array(mult)
        for alpha in (0.5, 0.05, 1e-6):
            lo, hi, tail = nulldist._chernoff(lam, mult, alpha)
            cdf = nulldist._limit_cdf(lam, mult, lo, hi, tail, "test")
            for x in np.linspace(lo, hi, 5):
                assert cdf(x) == pytest.approx(chi2.cdf(x / lam[0], mult[0]), abs=1e-10)
        monkeypatch.setattr(nulldist, "limit_eigenvalues", lambda d, a: (lam, mult))
        assert limit_quantile(1, 1.0, 0.05) == pytest.approx(lam[0] * chi2.ppf(0.95, mult[0]), rel=1e-9)

    @pytest.mark.parametrize("big,small", [(1.0, 0.5), (1.0, 1e-3), (1.0, 1e-6), (1.0, 1e-9)])
    def test_inversion_of_two_exponentials(self, monkeypatch, big, small):
        # big chi2_2 + small chi2_2 is a sum of exponentials of means 2 big and 2 small
        lam, mult = np.array([big, small]), np.array([2, 2])
        exact = lambda x: 1.0 - (big * np.exp(-x / (2 * big)) - small * np.exp(-x / (2 * small))) / (big - small)
        lo, hi, tail = nulldist._chernoff(lam, mult, 0.05)
        phase, sizes = nulldist._phase, []
        monkeypatch.setattr(nulldist, "_phase", lambda lam, *rest: sizes.append(lam.size) or phase(lam, *rest))
        cdf = nulldist._limit_cdf(lam, mult, lo, hi, tail, "test")
        # 1e-9 is left to the first-order tail; 1e-6's bound, 3e-9, is over the tail's share
        assert sum(sizes) == (1 if small == 1e-9 else 2)
        for x in np.linspace(lo, hi, 7):
            assert cdf(x) == pytest.approx(exact(x), abs=1e-10)

    @pytest.mark.parametrize("d,a,expect", [(1, 1.0, 1.7601021647), (2, 3.0, 0.5988697190), (5, 0.1, 1.4172286464)])
    def test_tail_fold_within_its_share(self, monkeypatch, d, a, expect):
        # the first-order tail moves the CDF by at most _TAIL_TOL from the pass with every term exact
        lam, mult = limit_eigenvalues(d, a)
        lo, hi, tail = nulldist._chernoff(lam, mult, 0.05)
        phase, exact = nulldist._phase, []
        monkeypatch.setattr(nulldist, "_phase", lambda lam, *rest: exact.append(lam.size) or phase(lam, *rest))
        folded, share, head = nulldist._limit_cdf(lam, mult, lo, hi, tail, "test"), nulldist._TAIL_TOL, len(exact)
        assert sum(exact) < lam.size // 2
        monkeypatch.setattr(nulldist, "_TAIL_TOL", 0.0)
        full = nulldist._limit_cdf(lam, mult, lo, hi, tail, "test")
        assert sum(exact[head:]) == lam.size
        for x in np.linspace(lo, hi, 7):
            assert folded(x) == pytest.approx(full(x), abs=share)
        monkeypatch.undo()
        assert limit_quantile(d, a, 0.05) == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("alpha", [nulldist._ALPHA_MIN, 1.0 - 1e-6])  # 1 - 1e-7 needs 8e6 terms
    def test_alpha_at_the_floor_served_and_below_refused(self, monkeypatch, alpha):
        # the CDF is exact to 5e-11, so an alpha or 1 - alpha under 1e3 * _CDF_TOL = 1e-7 is refused
        from scipy.stats import chi2

        monkeypatch.setattr(nulldist, "limit_eigenvalues", lambda d, a: (np.array([1.0]), np.array([3])))
        assert chi2.cdf(limit_quantile(1, 1.0, alpha), 3) == pytest.approx(1.0 - alpha, abs=1e-10)
        message = "is beyond the limit law's inversion: alpha and 1 - alpha must be at least 1e-07, "
        for refused in (9.9e-8, 1e-14, 1e-300, 1.0 - 9.9e-8):
            with pytest.raises(ValueError, match=f"^alpha={refused:g} " + re.escape(message)):
                limit_quantile(1, 1.0, refused)

    def test_small_a_matches_the_extrapolated_null(self):
        # the sampler gave 1.4908 here, about mean * (1 + 1.645 sqrt(2/m)) for its m = 1000 points;
        # finite-n quantiles close on the exact one as n doubles, and 2 q_1000 - q_500 extrapolates them
        q500, q1000 = (critical_value(mc_null_sample(5, n, 0.1, 4000, 4242, workers=2), 0.05) for n in (500, 1000))
        assert 2.0 * q1000 - q500 == pytest.approx(limit_quantile(5, 0.1, 0.05), abs=0.01)
        assert limit_quantile(5, 0.1, 0.05) == pytest.approx(1.417229, abs=1e-5)

    @pytest.mark.parametrize("a", [1e-80, 1e300])
    def test_unresolved_law_refused(self, a):
        # at 1e-80 the kernel overflows and the trace check refuses the law; at 1e300 the mean underflows
        cell = re.escape(f"d=3, a={a:g}")
        reason = "law at {} is not resolved .* trace error nan" if a < 1.0 else "mean at {} leaves the float range$"
        with pytest.raises(ValueError, match="^the limit " + reason.format(cell)):
            limit_eigenvalues(3, a)


def _gemm_oracle(d: int, a: float, alpha: float, cfg: LimitSamplerConfig) -> tuple[float, float]:
    # cfg.ell draws of sum_i lambda_i chi^2_{mult_i}, one GEMV per block of
    # rows, and the distribution-free interval for their (1-alpha) quantile:
    # the order statistics 4.5 binomial standard deviations either side of rank
    # ell (1-alpha).  cfg.m sized the deleted sampler's support; nothing reads it.
    lam, mult = limit_eigenvalues(d, a)
    rng = np.random.default_rng(cfg.seed)
    draws = np.empty(cfg.ell)
    for start in range(0, cfg.ell, 2000):
        rows = min(2000, cfg.ell - start)
        draws[start : start + rows] = rng.chisquare(mult, size=(rows, mult.size)) @ lam
    draws.sort()
    rank = cfg.ell * (1.0 - alpha)
    half = 4.5 * math.sqrt(cfg.ell * alpha * (1.0 - alpha))
    return draws[max(math.floor(rank - half) - 1, 0)], draws[min(math.ceil(rank + half) - 1, cfg.ell - 1)]


class TestLimitQuantile:
    @pytest.mark.parametrize(
        "d,a,m,ell,seed",
        [
            (1, 1.0, 1000, 5000, 32),
            (2, 3.0, 400, 6000, 31),
            (1, 1.0, 80, 4000, 5),
            (2, 1.0, 60, 4000, 42),
            (3, 0.5, 300, 20_000, 7),  # no Gauss-Hermite oracle converges at d = 3
            (1, 1.0, 2, 500, 1),
        ],
    )
    def test_matches_gemm_oracle(self, d, a, m, ell, seed):
        # the exact quantile lies in the Monte Carlo interval of draws from the same eigenvalues
        cfg = LimitSamplerConfig(m=m, ell=ell, seed=seed)
        for alpha in (0.05, 0.5):
            q = limit_quantile(d, a, alpha, cfg)
            assert q == limit_quantile(d, a, alpha)
            lo, hi = _gemm_oracle(d, a, alpha, cfg)
            assert lo <= q <= hi

    def test_deterministic(self):
        q = limit_quantile(2, 1.0, 0.05)
        assert limit_quantile(2, 1.0, 0.05) == q
        # the deleted sampler's settings are accepted and read by nothing
        assert limit_quantile(2, 1.0, 0.05, LimitSamplerConfig(m=2, ell=1, seed=9)) == q

    def test_zero_dimension_refused(self):
        with pytest.raises(ValueError, match="need dimension d >= 1, got d=0"):
            limit_quantile(0, 1.0, 0.05)
        with pytest.raises(ValueError, match="need dimension d >= 1, got d=0"):
            expected_limit(0, 1.0)

    def test_rough_location_small_run(self):
        # the quantile decreases in alpha, and the median lies below the mean
        qs = [limit_quantile(1, 1.0, alpha) for alpha in (0.01, 0.05, 0.5)]
        assert qs[0] > qs[1] > qs[2] and qs[2] < expected_limit(1, 1.0) * scaling_factor(1, 1.0)

    def test_kernel_matrix_symmetric_and_near_psd(self):
        rng = make_rng(21)
        u = rng.normal(scale=np.sqrt(0.5), size=(150, 2))
        sk = _kernel_matrix(u, 2)
        np.testing.assert_allclose(sk, sk.T, atol=1e-10 * np.abs(sk).max())
        w = np.linalg.eigvalsh(0.5 * (sk + sk.T))
        # PSD in exact arithmetic: float negatives are pure roundoff
        assert w[0] > -1e-10 * w[-1]
        # the radial matrices of the limit law are PSD too: every eigenvalue kept is positive
        assert limit_quantile(2, 1.0, 0.05) > 0.0


TABLE1 = {
    # (d, n, a) -> 0.95 quantile of the scaled statistic
    (1, 20, 0.5): 2.085, (1, 20, 1.0): 1.597, (1, 20, 3.0): 1.180,
    (1, 50, 0.5): 2.299, (1, 50, 1.0): 1.761, (1, 50, 3.0): 1.301,
    (2, 20, 0.5): 1.482, (2, 20, 1.0): 0.957, (2, 20, 3.0): 0.529,
    (2, 50, 0.5): 1.551, (2, 50, 1.0): 1.039, (2, 50, 3.0): 0.592,
    (3, 20, 0.5): 1.304, (3, 20, 1.0): 0.841, (3, 20, 3.0): 0.351,
    (3, 50, 0.5): 1.357, (3, 50, 1.0): 0.904, (3, 50, 3.0): 0.405,
    (5, 20, 0.5): 1.201, (5, 20, 1.0): 0.835, (5, 20, 3.0): 0.263,
    (5, 50, 0.5): 1.261, (5, 50, 1.0): 0.903, (5, 50, 3.0): 0.315,
}


class TestReferenceQuantiles:
    # seeds pinned so the +-0.02 band (which is the size of the MC error at
    # 1e5 replications, on both sides) is met reproducibly
    SEED_OVERRIDES = {(1, 20, 0.5): 2_001_027}

    def test_full_sweep_and_monotonicity(self):
        # 100k-replication quantiles within +-0.02 of the reference table,
        # decreasing in a for every (d, n).  The cells that share (d, n) and
        # seed share their draws: one cell with a column per a, whose columns
        # are bit for bit the cells' own null samples.
        groups = {}
        for d, n, a in TABLE1:
            seed = self.SEED_OVERRIDES.get((d, n, a), 1000 + 7 * d + n)
            groups.setdefault((d, n, seed), []).append(a)
        assert len(groups) == 9
        got = {}
        for (d, n, seed), a_list in groups.items():
            vals = nulldist._cell(nulldist._NULL, d, n, tuple(a_list), 100_000, seed, workers=2)
            for a, column in zip(a_list, vals.T):
                q = critical_value(column, 0.05)
                got[(d, n, a)] = q
                assert q == pytest.approx(TABLE1[(d, n, a)], abs=0.02), (d, n, a)
        for d in (1, 2, 3, 5):
            for n in (20, 50):
                qs = [got[(d, n, a)] for a in (0.5, 1.0, 3.0)]
                assert qs[0] > qs[1] > qs[2]
