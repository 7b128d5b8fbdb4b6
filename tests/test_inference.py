import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from normtest import (
    StandardizedSample,
    confidence_interval,
    delta_a_univariate,
    delta_estimate,
    p_aggregates,
    scaled_residuals,
    sigma_hat_sq,
    sigma_hat_sq_quadrature,
    t_statistic,
    validation_test,
)
from normtest.inference import (
    _projected_influence,
    _trig_sums,
    laplace_cf_second_derivative,
    logistic_cf_second_derivative,
    p1,
    p2,
    q1,
    q2,
    sigma_hat_sq_components,
    sigma_hat_sq_components_quadrature,
    uniform_cf_second_derivative,
)
from normtest.quadrature import QuadratureSpec
from conftest import make_rng, random_invertible

IRIS = pathlib.Path(__file__).parent / "data" / "iris.csv"
TWO_POINT = StandardizedSample.from_residuals([[-1.0], [1.0]])


def _sample(seed, n=20, d=1, skew=True):
    rng = make_rng(seed)
    x = rng.normal(size=(n, d))
    if skew:
        x = x + 0.4 * rng.normal(size=(n, d)) ** 2
    return scaled_residuals(x)


def _m(t) -> float:
    """m(t) = (d - ||t||^2) exp(-||t||^2/2), read from the trigonometric sums: one
    observation at the origin has r = 0 and CS+ = 1, so its z_n is exactly -m(t)."""
    t = np.asarray(t, dtype=float).ravel()
    return -float(_trig_sums(np.zeros((1, t.size)), t[None])[1][0])


def _sums(sample, t) -> SimpleNamespace:
    """The sums of :func:`_trig_sums` at one frequency t, with the display-only
    psi3+ = (1/n) sum CS+ r, psi4+ = (1/n) sum CS+ r Y and psi5 = (1/n) sum CS+ r Y Y^T."""
    y = sample.residuals
    n = sample.n
    cp, z, psi1, psi2, psi3, psi4 = _trig_sums(y, np.asarray(t, dtype=float).ravel()[None])
    cpr = cp[0] * np.einsum("ij,ij->i", y, y)
    psi5 = (y.T * cpr) @ y / n
    return SimpleNamespace(
        z=float(z[0]), psi1=psi1[0], psi2=psi2[0], psi3_minus=float(psi3[0]), psi4_minus=psi4[0],
        psi3_plus=float(np.mean(cpr)), psi4_plus=(cpr @ y) / n, psi5=0.5 * (psi5 + psi5.T),
    )


class TestMFunc:
    def test_at_zero(self):
        for d in (1, 2, 5):
            assert _m(np.zeros(d)) == pytest.approx(d)

    def test_root_at_radius_sqrt_d(self):
        for d in (1, 3):
            t = np.full(d, np.sqrt(1.0))  # ||t||^2 = d
            assert _m(t) == pytest.approx(0.0, abs=1e-14)

    def test_matches_direct_formula(self):
        rng = make_rng(1)
        for d in (1, 2, 4):
            t = rng.normal(size=d)
            n2 = float(t @ t)
            assert _m(t) == pytest.approx((d - n2) * np.exp(-0.5 * n2), rel=1e-14)


class TestZn:
    def test_zero_frequency_is_exactly_zero(self):
        for seed in (1, 2):
            s = _sample(seed, n=15, d=2)
            assert _sums(s, np.zeros(2)).z == pytest.approx(0.0, abs=1e-12)

    def test_two_point_hand_formula(self):
        for s_val in (0.3, 1.7, -2.2):
            expected = np.cos(s_val) - (1.0 - s_val**2) * np.exp(-0.5 * s_val**2)
            assert _sums(TWO_POINT, [s_val]).z == pytest.approx(expected, rel=1e-12)

    def test_small_under_null(self):
        s = scaled_residuals(make_rng(3).standard_normal((200_000, 1)))
        grid = np.linspace(-3, 3, 25)
        sup = float(np.max(np.abs(_trig_sums(s.residuals, grid[:, None])[1])))
        assert sup < 0.05

    def test_affine_equivariance(self):
        # an affine pre-transform rotates the residuals by an orthogonal map M;
        # z_n transforms as z'_n(t) = z_n(M^T t) and radial aggregates of it
        # (such as the variance estimator) are invariant
        rng = make_rng(4)
        x = rng.normal(size=(30, 2))
        s0 = scaled_residuals(x)
        s1 = scaled_residuals(x @ random_invertible(2, rng).T + rng.normal(size=2))
        y0, y1 = s0.residuals, s1.residuals
        m = np.linalg.lstsq(y0, y1, rcond=None)[0].T
        np.testing.assert_allclose(m @ m.T, np.eye(2), atol=1e-8)
        for t in (np.array([0.4, -0.9]), np.array([1.3, 0.2])):
            assert _sums(s1, t).z == pytest.approx(_sums(s0, m.T @ t).z, abs=1e-8)
        assert sigma_hat_sq(s1, 0.5) == pytest.approx(sigma_hat_sq(s0, 0.5), rel=1e-8)


class TestPsiEstimators:
    def test_identities_at_zero(self):
        for d, seed in ((1, 9), (2, 10), (3, 11)):
            s = _sample(seed, n=25, d=d)
            b = _sums(s, np.zeros(d))
            assert b.z == pytest.approx(0.0, abs=1e-12)
            np.testing.assert_allclose(b.psi1, 0.0, atol=1e-12)
            np.testing.assert_allclose(b.psi2, np.eye(d), atol=1e-10)
            assert b.psi3_plus == pytest.approx(d, abs=1e-10)
            assert b.psi3_minus == pytest.approx(d, abs=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_direct_sums(self, d):
        # every sum against a literal loop over the observations, at three frequencies at once
        s = _sample(12 + d, n=18, d=d)
        y = s.residuals
        pts = make_rng(100 + d).normal(size=(3, d))
        cp, z, psi1, psi2, psi3, psi4 = _trig_sums(y, pts)
        for g, t in enumerate(pts):
            csp = [np.cos(t @ yk) + np.sin(t @ yk) for yk in y]
            csm = [np.cos(t @ yk) - np.sin(t @ yk) for yk in y]
            r = [float(yk @ yk) for yk in y]
            n2 = float(t @ t)
            np.testing.assert_allclose(cp[g], csp, rtol=1e-12)
            m = (d - n2) * np.exp(-0.5 * n2)
            assert z[g] == pytest.approx(sum(c * rk for c, rk in zip(csp, r)) / 18 - m, rel=1e-12)
            np.testing.assert_allclose(psi1[g], sum(c * yk for c, yk in zip(csp, y)) / 18, rtol=1e-12)
            np.testing.assert_allclose(psi2[g], sum(c * np.outer(yk, yk) for c, yk in zip(csp, y)) / 18, rtol=1e-12)
            assert psi3[g] == pytest.approx(sum(c * rk for c, rk in zip(csm, r)) / 18, rel=1e-12)
            np.testing.assert_allclose(psi4[g], sum(c * rk * yk for c, rk, yk in zip(csm, r, y)) / 18, rtol=1e-12)

    def test_psi5_direct_sum(self):
        s = _sample(12, n=18, d=2)
        t = np.array([0.7, -0.2])
        b = _sums(s, t)
        y = s.residuals
        r = np.einsum("ij,ij->i", y, y)
        proj = y @ t
        cs = np.cos(proj) + np.sin(proj)
        direct = sum(cs[j] * r[j] * np.outer(y[j], y[j]) for j in range(18)) / 18
        np.testing.assert_allclose(b.psi5, direct, rtol=1e-12)

    def test_symmetry(self):
        b = _sums(_sample(13, n=22, d=3), np.array([0.1, 0.5, -0.4]))
        np.testing.assert_allclose(b.psi2, b.psi2.T, atol=1e-12)
        np.testing.assert_allclose(b.psi5, b.psi5.T, atol=1e-12)

    def test_psi3_converges_under_null(self):
        rng = make_rng(14)
        n, d = 200_000, 2
        x = rng.standard_normal((n, d))
        s = scaled_residuals(x)
        t = np.array([0.8, -0.5])
        b = _sums(s, t)
        target = _m(t)
        r = np.einsum("ij,ij->i", x, x)
        proj = x @ t
        se = float(np.std((np.cos(proj) + np.sin(proj)) * r, ddof=1) / np.sqrt(n))
        assert abs(b.psi3_plus - target) < 3.0 * se


def _grid_integral(f, a, d, points=900):
    spec = QuadratureSpec(points=points)
    pts, wt = spec.grid(a, d)
    return (f(pts) * np.exp(-a * np.einsum("ij,ij->i", pts, pts))) @ wt


class TestKernelIntegrals:
    def test_p1_diagonal(self):
        for d in (1, 3):
            y = make_rng(d).normal(size=d)
            assert p1(y, y, 0.7) == pytest.approx((np.pi / 0.7) ** (d / 2.0), rel=1e-12)

    def test_p2_diagonal_zero(self):
        y = make_rng(5).normal(size=3)
        np.testing.assert_allclose(p2(y, y, 0.7), np.zeros(3))

    def test_p2_antisymmetric(self):
        rng = make_rng(6)
        y, z = rng.normal(size=2), rng.normal(size=2)
        np.testing.assert_allclose(p2(y, z, 0.4), -p2(z, y, 0.4), rtol=1e-12)

    def test_q1_at_zero(self):
        for d, a in ((1, 0.5), (2, 1.0), (4, 2.0)):
            expected = (2 * np.pi) ** (d / 2) * 2 * d * a * (2 * a + 1) / (2 * a + 1) ** (d / 2 + 2)
            assert q1(np.zeros(d), a) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("a", [0.3, 1.1])
    def test_against_defining_integrals(self, d, a):
        rng = make_rng(20 + d)
        y, z = rng.normal(size=d), rng.normal(size=d)
        points = 900 if d == 1 else 150

        def csp(pts, v):
            pr = pts @ v
            return np.cos(pr) + np.sin(pr)

        def csm(pts, v):
            pr = pts @ v
            return np.cos(pr) - np.sin(pr)

        def m_of(pts):
            n2 = np.einsum("ij,ij->i", pts, pts)
            return (d - n2) * np.exp(-0.5 * n2)

        got = _grid_integral(lambda p: m_of(p) * csp(p, y), a, d, points)
        assert got == pytest.approx(q1(y, a), rel=1e-6)
        got = _grid_integral(lambda p: csp(p, y) * csp(p, z), a, d, points)
        assert got == pytest.approx(p1(y, z, a), rel=1e-6)
        for k in range(d):
            got = _grid_integral(lambda p: csp(p, y) * csm(p, z) * p[:, k], a, d, points)
            assert got == pytest.approx(p2(y, z, a)[k], rel=1e-6, abs=1e-9)
            got = _grid_integral(lambda p: m_of(p) * csm(p, y) * p[:, k], a, d, points)
            assert got == pytest.approx(q2(y, a)[k], rel=1e-6, abs=1e-9)


def _naive_influence(sample, a):
    """The (4, n) influence matrix from literal double/triple loops over the
    displayed aggregate definitions."""
    y = sample.residuals
    n, d = y.shape
    r = [float(yy @ yy) for yy in y]
    p1m = [[p1(y[j], y[k], a) for k in range(n)] for j in range(n)]
    p2m = [[p2(y[j], y[k], a) for k in range(n)] for j in range(n)]
    q1v = [float(q1(y[j], a)) for j in range(n)]
    q2v = [np.asarray(q2(y[j], a)) for j in range(n)]

    p1a2_t = sum(r[j] * p1m[j][k] * y[k] for j in range(n) for k in range(n)) / n**2 - sum(
        q1v[j] * y[j] for j in range(n)
    ) / n
    p1a2_of = np.array(
        [
            sum(r[k] * float(y[j] @ y[el]) ** 2 * p1m[k][el] for k in range(n) for el in range(n))
            / n**2
            - sum(float(y[j] @ y[k]) ** 2 * q1v[k] for k in range(n)) / n
            for j in range(n)
        ]
    )
    p1a3_of = np.array(
        [sum(r[k] * p1m[j][k] for k in range(n)) / n - q1v[j] for j in range(n)]
    )
    p2a1 = sum(
        r[j] * r[k] * float(y[k] @ p2m[j][k]) for j in range(n) for k in range(n)
    ) / n**2 - sum(r[j] * float(y[j] @ q2v[j]) for j in range(n)) / n
    p2a_t = sum(r[j] * r[k] * p2m[j][k] for j in range(n) for k in range(n)) / n**2 - sum(
        r[j] * q2v[j] for j in range(n)
    ) / n
    # the pairing index of the scalar product rides on p2's second argument
    p2a3_of = np.array(
        [
            sum(
                r[k] * r[el] * float(y[el] @ y[j]) * float(y[j] @ p2m[k][el])
                for k in range(n)
                for el in range(n)
            )
            / n**2
            - sum(r[k] * float(y[k] @ y[j]) * float(y[j] @ q2v[k]) for k in range(n)) / n
            for j in range(n)
        ]
    )
    r = np.array(r)
    v = 2.0 * p1a2_t + p2a_t
    return np.stack([r * p1a3_of, -0.5 * (p2a3_of - p2a1), -(y @ v), -p1a2_of])


class TestPAggregates:
    @pytest.mark.parametrize("d,seed", [(1, 31), (2, 32)])
    def test_naive_loop_oracle(self, d, seed):
        sample = _sample(seed, n=10, d=d)
        a = 0.6
        naive = _naive_influence(sample, a)
        np.testing.assert_allclose(p_aggregates(sample, a), naive, rtol=1e-9, atol=1e-12)

    def test_two_point_p1a3_hand_identity(self):
        # A_1(Y_k) = r_k P^{1,a,3}(Y_k), and r_k = 1 at both points
        a = 0.8
        amat = p_aggregates(TWO_POINT, a)
        for j, yj in enumerate([-1.0, 1.0]):
            expected = 0.5 * (p1([yj], [-1.0], a) + p1([yj], [1.0], a)) - q1([yj], a)
            assert amat[0, j] == pytest.approx(expected, rel=1e-12)

    def test_all_finite(self):
        amat = p_aggregates(_sample(33, n=30, d=3), 1.0)
        assert amat.shape == (4, 30)
        assert np.all(np.isfinite(amat))


def _l_matrix_from_psi(sample, s, t):
    """The closed-form L^{i,j}(s,t) displays, assembled from the trigonometric sums."""
    y = sample.residuals
    n = sample.n
    r = np.einsum("ij,ij->i", y, y)
    bs, bt = _sums(sample, s), _sums(sample, t)
    proj_s, proj_t = y @ s, y @ t
    l = np.empty((4, 4))
    l[0, 0] = float(np.mean(r**2 * np.cos((t - s) @ y.T)) + np.mean(r**2 * np.sin((t + s) @ y.T)))
    l[0, 1] = float(-0.5 * bs.psi4_minus @ bt.psi5 @ s + 0.5 * bt.psi3_plus * bs.psi4_minus @ s)
    l[0, 2] = float((-2.0 * bs.psi1 - bs.psi3_minus * s) @ bt.psi4_plus)
    csp_t = np.cos(proj_t) + np.sin(proj_t)
    l[0, 3] = float(-np.mean(r * csp_t * np.einsum("kp,pq,kq->k", y, bs.psi2, y)))
    l[1, 1] = float(
        0.25
        * np.mean((y @ bt.psi4_minus) * (proj_t) * ((y @ bs.psi4_minus) * proj_s - bs.psi4_minus @ s))
    )
    l[1, 2] = float(np.mean((y @ bt.psi4_minus) * proj_t * (y @ (bs.psi1 + 0.5 * bs.psi3_minus * s))))
    l[1, 3] = float(
        0.5
        * np.mean(
            ((y @ bt.psi4_minus) * proj_t - bt.psi4_minus @ t)
            * np.einsum("kp,pq,kq->k", y, bs.psi2, y)
        )
    )
    l[2, 2] = float((2.0 * bt.psi1 + bt.psi3_minus * t) @ (2.0 * bs.psi1 + bs.psi3_minus * s))
    l[2, 3] = float(
        np.mean((y @ (2.0 * bs.psi1 + bs.psi3_minus * s)) * np.einsum("kp,pq,kq->k", y, bt.psi2, y))
    )
    l[3, 3] = float(
        np.mean(np.einsum("kp,pq,kq->k", y, bt.psi2, y) * np.einsum("kp,pq,kq->k", y, bs.psi2, y))
    )
    return l


def _l_direct(sample, s, t):
    """(1/n) sum_k v_i(s, Y_k) v_j(t, Y_k) from the influence-function pieces."""
    y = sample.residuals
    n = sample.n
    r = np.einsum("ij,ij->i", y, y)

    def v_parts(u):
        b = _sums(sample, u)
        proj = y @ u
        csp = np.cos(proj) + np.sin(proj)
        v1 = r * csp
        v2 = -0.5 * (proj * (y @ b.psi4_minus) - float(u @ b.psi4_minus))
        v3 = -(y @ (2.0 * b.psi1 + b.psi3_minus * u))
        v4 = -np.einsum("kp,pq,kq->k", y, b.psi2, y)
        return np.stack([v1, v2, v3, v4])

    vs, vt = v_parts(s), v_parts(t)
    return vs @ vt.T / n


class TestLnDisplays:
    def test_closed_forms_match_direct_products(self):
        sample = _sample(41, n=12, d=2)
        rng = make_rng(42)
        s, t = rng.normal(size=2), rng.normal(size=2)
        direct = _l_direct(sample, s, t)
        disp = _l_matrix_from_psi(sample, s, t)
        # each display pairs its second v-index with s, so the off-diagonal
        # entries correspond to the transposed direct product
        pairs = {
            (0, 0): (0, 0),
            (1, 1): (1, 1),
            (2, 2): (2, 2),
            (3, 3): (3, 3),
            (0, 1): (1, 0),
            (0, 2): (2, 0),
            (0, 3): (3, 0),
            (1, 2): (2, 1),
            (1, 3): (3, 1),
            (2, 3): (2, 3),
        }
        for (i, j), (k, m) in pairs.items():
            assert disp[i, j] == pytest.approx(direct[k, m], rel=1e-9, abs=1e-12), (i, j)

    def test_total_symmetric_in_s_t(self):
        sample = _sample(43, n=12, d=1)
        rng = make_rng(44)
        for _ in range(3):
            s, t = rng.normal(size=1), rng.normal(size=1)
            lst = float(_l_direct(sample, s, t).sum())
            lts = float(_l_direct(sample, t, s).sum())
            assert lst == pytest.approx(lts, rel=1e-10, abs=1e-10)


class TestSigmaHat:
    @pytest.mark.parametrize("a", [0.1, 0.5])
    def test_matches_quadrature_d1(self, a):
        for seed in (51, 52, 53):
            sample = _sample(seed, n=20, d=1)
            closed = sigma_hat_sq(sample, a)
            oracle = sigma_hat_sq_quadrature(sample, a)
            assert closed == pytest.approx(oracle, rel=1e-3)

    def test_matches_quadrature_d2(self):
        sample = _sample(54, n=12, d=2)
        closed = sigma_hat_sq(sample, 0.5)
        oracle = sigma_hat_sq_quadrature(sample, 0.5)
        assert closed == pytest.approx(oracle, rel=1e-3)

    def test_components_match_quadrature(self):
        sample = _sample(55, n=15, d=1)
        closed = sigma_hat_sq_components(sample, 0.3)
        oracle = sigma_hat_sq_components_quadrature(sample, 0.3)
        np.testing.assert_allclose(closed, oracle, rtol=1e-6, atol=1e-10)
        np.testing.assert_allclose(closed, closed.T, rtol=1e-12)
        # the closed-form influence matrix is the oracle's, entry by entry
        for sample, a in ((sample, 0.3), (_sample(54, n=12, d=2), 0.5)):
            amat = p_aggregates(sample, a)
            oracle = _projected_influence(sample, a)
            np.testing.assert_allclose(amat, oracle, rtol=1e-10)

    # sigma^{i,j} (upper triangle, row by row) and sigma_hat, recorded with a
    # per-entry assembly of the closed form (one identity per sigma^{i,j})
    FROZEN = {
        (71, 30, 1, 0.5): (
            [0.6803484732959145, -0.021216547259559144, -0.421492278371052, -0.1570680779685699,
             0.0020074205554075717, 0.008909494341562246, 0.011340310937453283,
             0.3981776378074252, 0.05033147431743954, 0.10127528931611395],
            0.351308373041989,
        ),
        (72, 60, 2, 1.0): (
            [0.8106289013391856, -0.4327129384666779, -0.0121473696955063, -0.02434001693390142,
             0.47505503796206544, 0.006623735826002079, -0.09818857690315462,
             0.029646594693950534, -0.0008171850751626982, 0.1145897849235931],
            0.5538552305629991,
        ),
        (73, 40, 3, 0.2): (
            [4349.294377248775, -139.01464420612123, -21.2125876163075, -2755.0180621473487,
             8.623193084344539, 0.7376312700344039, 74.22576490084704,
             5.872403994995806, 5.595470978110974, 2067.216908230189],
            27.59771782080421,
        ),
        (74, 300, 2, 2.0): (
            [0.47972815711452094, -0.05426777705769384, -0.06295588349751705, 0.011124713763837519,
             0.020148551620359237, 0.007435539686984418, -0.023282301245844537,
             0.043457216323313, -0.008604190715650464, 0.07346711225310083],
            0.5964069409216547,
        ),
    }

    @pytest.mark.parametrize("case", sorted(FROZEN))
    def test_frozen_values(self, case):
        seed, n, d, a = case
        entries, sigma = self.FROZEN[case]
        sample = _sample(seed, n=n, d=d)
        comps = sigma_hat_sq_components(sample, a)
        np.testing.assert_allclose(comps[np.triu_indices(4)], entries, rtol=1e-12)
        assert delta_estimate(sample, a).sigma_hat == pytest.approx(sigma, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sum_of_squares_is_the_component_sum(self, d):
        # sigma_hat^2 = (4/n) sum_k (sum_i A_i(Y_k))^2 cannot be negative, and
        # it equals the sum of the 16 Gram components up to their cancellation
        for i, n in enumerate((d + 2, d + 4, 12)):
            sample = _sample(7600 + 10 * d + i, n=n, d=d)
            for a in (1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6):
                total = sigma_hat_sq(sample, a)
                comps = sigma_hat_sq_components(sample, a)
                assert total >= 0.0
                assert abs(total - comps.sum()) <= 1e-11 * np.abs(comps).sum()

    def test_grid_refinement_improves(self):
        # on grids too coarse to resolve the oscillation, each refinement must
        # cut the discrepancy by at least half (it is spectral once resolved)
        sample = _sample(56, n=20, d=1)
        a = 0.5
        closed = sigma_hat_sq(sample, a)
        errs = [
            abs(sigma_hat_sq_quadrature(sample, a, QuadratureSpec(points=p, halfwidth=6.0)) - closed)
            for p in (12, 24, 48)
        ]
        assert errs[1] < 0.5 * errs[0]
        assert errs[2] < 0.5 * errs[1]

    def test_consistency_trend(self):
        # under the null the population variance is zero (the centred
        # projection vanishes), so the estimator must shrink with n; under a
        # fixed alternative it must stabilize at a positive constant
        null_vals, alt_vals = [], []
        for n in (100, 400, 1600):
            rng = make_rng(57)
            null_vals.append(sigma_hat_sq(scaled_residuals(rng.standard_normal((n, 1))), 0.5))
            alt = rng.uniform(-np.sqrt(3), np.sqrt(3), size=(n, 1))
            alt_vals.append(sigma_hat_sq(scaled_residuals(alt), 0.1))
        assert all(v >= 0.0 and np.isfinite(v) for v in null_vals + alt_vals)
        assert null_vals[2] < null_vals[0]
        assert 0.5 < alt_vals[2] / alt_vals[1] < 2.0

    def test_small_a_keeps_its_limit(self):
        # sigma_hat^2 a^4 tends to a constant as a -> 0; the diagonal terms of the
        # pairwise pass, which cancel exactly, must not leave roundoff behind that
        # (pi/a)^{d/2} / (2a) amplifies
        setosa = np.loadtxt(IRIS, delimiter=",", skiprows=1, max_rows=50)
        sample = scaled_residuals(setosa)
        ref = sigma_hat_sq(sample, 1e-8) * 1e-8**4
        for a in (1e-12, 1e-14, 1e-16):
            assert sigma_hat_sq(sample, a) * a**4 == pytest.approx(ref, rel=1e-9)


class TestDeltaValues:
    def test_reference_alternatives(self):
        assert delta_a_univariate(uniform_cf_second_derivative, 0.1) == pytest.approx(
            0.3322, abs=2e-3
        )
        assert delta_a_univariate(laplace_cf_second_derivative, 0.1) == pytest.approx(
            0.127, abs=2e-3
        )
        assert delta_a_univariate(logistic_cf_second_derivative, 0.1) == pytest.approx(
            0.033, abs=2e-3
        )

    def test_normal_gives_zero(self):
        cf2 = lambda t: (t * t - 1.0) * np.exp(-0.5 * t * t)
        assert delta_a_univariate(cf2, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_cf_derivatives_stable_at_large_t(self):
        for f in (uniform_cf_second_derivative, laplace_cf_second_derivative, logistic_cf_second_derivative):
            assert np.isfinite(f(80.0))
        assert logistic_cf_second_derivative(200.0) == pytest.approx(0.0, abs=1e-100)


class TestConfidenceInterval:
    def test_degenerate_at_zero_sigma(self):
        from normtest import DeltaEstimate

        est = DeltaEstimate(delta_hat=0.4, sigma_hat=0.0, n=50, d=1, a=0.1)
        ci = confidence_interval(est, 0.05)
        assert ci.lower == ci.upper == 0.4

    def test_width_formula(self):
        from scipy.special import ndtri

        est = delta_estimate(_sample(61, n=40, d=1), 0.2)
        ci = confidence_interval(est, 0.1)
        width = ci.upper - ci.lower
        assert width == pytest.approx(2.0 * ndtri(0.95) * est.sigma_hat / np.sqrt(40), rel=1e-12)

    def test_tiny_alpha_refused_by_name(self):
        # z at 1 - alpha/2 is infinite where that p rounds to 1; the library names alpha, not the quantile's domain
        from normtest import DeltaEstimate

        est = DeltaEstimate(delta_hat=0.4, sigma_hat=0.1, n=50, d=1, a=0.1)
        with pytest.raises(ValueError, match=r"^alpha 1e-17 is too small: 1 - 5e-18 rounds to 1, where z is infinite$"):
            confidence_interval(est, 1e-17)

    def test_width_shrinks_like_root_n(self):
        rng = make_rng(62)
        n = 400
        x = rng.uniform(-np.sqrt(3), np.sqrt(3), size=(4 * n, 1))
        w_small = _ci_width(x[:n], 0.1)
        w_big = _ci_width(x, 0.1)
        assert w_big / w_small == pytest.approx(0.5, rel=0.2)


def _ci_width(x, a):
    est = delta_estimate(scaled_residuals(x), a)
    ci = confidence_interval(est, 0.05)
    return ci.upper - ci.lower


class TestValidation:
    def test_retain_at_boundary(self):
        from normtest import DeltaEstimate

        est = DeltaEstimate(delta_hat=0.1, sigma_hat=0.2, n=100, d=1, a=0.5)
        res = validation_test(est, delta0=0.1, alpha=0.05)
        assert not res.reject
        assert res.threshold < 0.1

    def test_reject_at_zero_distance(self):
        from normtest import DeltaEstimate

        est = DeltaEstimate(delta_hat=0.0, sigma_hat=0.2, n=10_000, d=1, a=0.5)
        assert validation_test(est, delta0=0.1, alpha=0.05).reject

    def test_consistency_under_null(self):
        # exact normal data has distance 0 < delta0: rejection rate grows to 1
        rates = []
        for n in (100, 400):
            hits = 0
            reps = 120
            for i in range(reps):
                x = make_rng(1000 * n + i).standard_normal((n, 1))
                est = delta_estimate(scaled_residuals(x), 1.0)
                hits += validation_test(est, delta0=0.1, alpha=0.05).reject
            rates.append(hits / reps)
        assert rates[1] >= rates[0]
        assert rates[1] >= 0.95

    def test_parameter_validation(self):
        from normtest import DeltaEstimate

        est = DeltaEstimate(delta_hat=0.1, sigma_hat=0.1, n=10, d=1, a=1.0)
        for delta0 in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="delta0 must be a positive finite real"):
                validation_test(est, delta0=delta0, alpha=0.05)
        for alpha in (0.0, 1.0, 1.5, np.nan):
            with pytest.raises(ValueError, match=re.escape("alpha must be in (0, 1)")):
                validation_test(est, delta0=0.1, alpha=alpha)
            with pytest.raises(ValueError, match=re.escape("alpha must be in (0, 1)")):
                confidence_interval(est, alpha)

    def test_tiny_alpha_refused_by_name(self):
        from normtest import DeltaEstimate

        est = DeltaEstimate(delta_hat=0.1, sigma_hat=0.1, n=10, d=1, a=1.0)
        with pytest.raises(ValueError, match=r"^alpha 1e-17 is too small: 1 - 1e-17 rounds to 1, where z is infinite$"):
            validation_test(est, delta0=0.5, alpha=1e-17)


class TestAsymptoticNormality:
    def test_studentized_distance_pivot_is_normal(self):
        # sqrt(n)(T/n - Delta)/sigma_hat ~ N(0,1) under a fixed alternative
        from scipy import stats

        delta_u = 0.3321978029080993  # frozen from delta_a_univariate(uniform, 0.1)
        n = 300
        zs = []
        for i in range(1000):
            rng = make_rng(500_000 + i)
            x = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=(n, 1))
            s = scaled_residuals(x)
            tn = t_statistic(s, 0.1).value / n
            sd = np.sqrt(sigma_hat_sq(s, 0.1))
            zs.append(np.sqrt(n) * (tn - delta_u) / sd)
        assert stats.kstest(zs, "norm").statistic < 0.1


class TestDeltaEstimate:
    def test_matches_statistic_over_n(self):
        sample = _sample(63, n=30, d=2)
        est = delta_estimate(sample, 0.5)
        assert est.delta_hat == pytest.approx(t_statistic(sample, 0.5).value / 30, rel=1e-12)
        assert est.sigma_hat >= 0.0
        assert not est.clipped

    @pytest.mark.parametrize("a", [1e-100, 1e62])
    def test_sigma_out_of_the_float_range_refused(self, a):
        # T's constants are finite at both; sigma_hat^2's squares are not (at 1e62 a power in q2 overflows)
        sample = _sample(64, n=50, d=4)
        assert np.isfinite(t_statistic(sample, a).value)
        with pytest.raises(ValueError, match=r"takes sigma_hat\^2 out of the float range at n=50, d=4"):
            delta_estimate(sample, a)
