import ast
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normtest import (
    SingularCovariance,
    evaluate,
    load_csv,
    nulldist,
    parallel,
    scaled_residuals,
    spd_inverse_sqrt,
    t_statistic,
)
from normtest.competitors import parse_competitor
from normtest.samplers import parse_spec, sample
from normtest.standardize import _whiten
from conftest import make_rng, random_invertible, random_spd

ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestSampleMean:
    """The ``mean`` field of :func:`scaled_residuals`."""

    def test_two_point(self):
        assert scaled_residuals([[0.0], [2.0]]).mean == pytest.approx([1.0])

    def test_columns(self):
        np.testing.assert_allclose(scaled_residuals([[1, 2], [3, 5], [5, 5]]).mean, [3.0, 4.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scaled_residuals(np.empty((0, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            scaled_residuals([[1.0], [np.nan]])


class TestSampleCovariance:
    """The divisor-n ``covariance`` field of :func:`scaled_residuals`."""

    def test_two_point(self):
        # divisor n: ((0-1)^2 + (2-1)^2)/2 = 1
        np.testing.assert_allclose(scaled_residuals([[0.0], [2.0]]).covariance, [[1.0]])

    def test_divisor_is_n(self):
        np.testing.assert_allclose(
            scaled_residuals([[-1.0], [0.0], [1.0]]).covariance, [[2.0 / 3.0]]
        )

    def test_constant_column_degenerate(self):
        # A constant column zeroes a row and a column of the covariance, so its
        # smallest eigenvalue is 0 and the sample is refused as singular.
        data = np.column_stack([make_rng(1).normal(size=10), np.full(10, 3.0)])
        with pytest.raises(SingularCovariance) as err:
            scaled_residuals(data)
        low, high = map(float, re.search(r"eigenvalues in \[(\S+), (\S+)\]", str(err.value)).groups())
        assert abs(low) <= 1e-14
        assert high == pytest.approx(np.var(data[:, 0]), rel=1e-3)

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="d\\+1"):
            scaled_residuals([[1.0]])

    def test_symmetric(self):
        s = scaled_residuals(make_rng(2).normal(size=(20, 4))).covariance
        np.testing.assert_array_equal(s, s.T)


class TestSpdInverseSqrt:
    def test_identity(self):
        np.testing.assert_allclose(spd_inverse_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            spd_inverse_sqrt(np.diag([4.0, 0.25])), np.diag([0.5, 2.0]), atol=1e-14
        )

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_r_a_r_is_identity(self, seed, d):
        a = random_spd(d, make_rng(seed))
        r = spd_inverse_sqrt(a)
        np.testing.assert_allclose(r @ a @ r, np.eye(d), atol=1e-10 * np.abs(a).max())
        np.testing.assert_allclose(r, r.T, atol=1e-12 * np.abs(r).max())
        assert np.all(np.linalg.eigvalsh(r) > 0)

    def test_singular_raises(self):
        with pytest.raises(SingularCovariance):
            spd_inverse_sqrt(np.diag([1.0, 0.0]))

    def test_relative_threshold(self):
        # min/max eigenvalue ratio 1e-13 < default 1e-12: singular at any scale
        for scale in (1e-8, 1.0, 1e8):
            with pytest.raises(SingularCovariance):
                spd_inverse_sqrt(scale * np.diag([1e-13, 1.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            spd_inverse_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestScaledResiduals:
    def test_two_point_symmetry(self):
        s = scaled_residuals([[0.0], [2.0]])
        np.testing.assert_allclose(np.sort(s.residuals[:, 0]), [-1.0, 1.0], atol=1e-12)

    def test_three_point(self):
        s = scaled_residuals([[-1.0], [0.0], [1.0]])
        root = np.sqrt(1.5)
        np.testing.assert_allclose(s.residuals[:, 0], [-root, 0.0, root], atol=1e-12)

    @pytest.mark.parametrize("d,n", [(1, 10), (3, 25), (5, 40)])
    def test_standardization_identities(self, d, n):
        x = make_rng(100 + d).normal(size=(n, d)) @ random_invertible(d, make_rng(d)) + 3.0
        s = scaled_residuals(x)
        y = s.residuals
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.T @ y / n, np.eye(d), atol=1e-8)
        assert np.sum(y**2) == pytest.approx(n * d, rel=1e-8)
        # inv_sqrt @ covariance @ inv_sqrt == identity
        np.testing.assert_allclose(
            s.inv_sqrt @ s.covariance @ s.inv_sqrt, np.eye(d), atol=1e-10
        )
        np.testing.assert_array_equal(s.inv_sqrt, s.inv_sqrt.T)

    def test_needs_d_plus_one(self):
        with pytest.raises(ValueError, match="d\\+1"):
            scaled_residuals(np.eye(3)[:2])

    def test_duplicated_points_singular(self):
        row = np.array([1.0, 2.0])
        with pytest.raises(SingularCovariance):
            scaled_residuals(np.tile(row, (5, 1)))

    def test_singular_slice_of_a_stack(self):
        # slices 1 and 2 repeat a row, so their covariance has rank d - 1; the
        # stack reports the first, as a lone call on it would
        xs = make_rng(4).normal(size=(4, 4, 3))
        xs[1, 3] = xs[1, 0]
        xs[2, 2] = xs[2, 1]
        with pytest.raises(SingularCovariance) as lone:
            _whiten(xs[1])
        with pytest.raises(SingularCovariance) as stacked:
            _whiten(xs)
        assert str(stacked.value) == str(lone.value)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_affine_invariance_of_statistic(self, seed):
        rng = make_rng(seed)
        d = int(rng.integers(1, 4))
        x = rng.normal(size=(20, d))
        a_mat = random_invertible(d, rng)
        b = rng.normal(size=d)
        t0 = t_statistic(scaled_residuals(x), 1.0).value
        t1 = t_statistic(scaled_residuals(x @ a_mat.T + b), 1.0).value
        assert t1 == pytest.approx(t0, rel=1e-8)


class TestCsv:
    def test_round_trip_with_header_and_delimiter(self, tmp_path):
        x = make_rng(3).normal(size=(8, 2))
        path = tmp_path / "data.csv"
        with open(path, "w") as f:
            f.write("u;v\n")
            for row in x:
                f.write(f"{float(row[0])!r};{float(row[1])!r}\n")
        loaded = load_csv(path, delimiter=";", header=True)
        np.testing.assert_array_equal(loaded, x)

    def test_headerless_default(self, tmp_path):
        path = tmp_path / "plain.csv"
        np.savetxt(path, np.arange(6.0).reshape(3, 2), delimiter=",")
        assert load_csv(path).shape == (3, 2)

    def test_iris_fixture(self):
        import pathlib

        iris = load_csv(pathlib.Path(__file__).parent / "data" / "iris.csv", header=True)
        assert iris.shape == (150, 4)


class TestOneWhitening:
    """Monte Carlo replications whiten with exactly the operations of the public path."""

    @pytest.mark.parametrize("n,d", [(20, 2), (50, 3), (30, 5)])
    def test_null_replication_matches_public_path(self, n, d):
        for i in range(20):
            draw = parallel.substream(321, i).standard_normal((n, d))
            public = t_statistic(scaled_residuals(draw), 1.5).scaled
            assert nulldist._rep([parallel.substream(321, i)], parse_spec("std"), n, d, (1.5,))[0, 0] == public

    @pytest.mark.parametrize("comp", ["bhep:0.5", "hv:5", "hjg:1.5"])
    def test_competitor_replication_matches_evaluate(self, comp):
        spec = parse_competitor(comp)
        for alt in (parse_spec("std"), parse_spec("mt:nu=5")):
            for i in range(4):
                draw = sample(alt, 50, parallel.substream(7, i), d=2)
                got = nulldist._rep([parallel.substream(7, i)], alt, 50, 2, (spec,))[0, 0]
                assert got == evaluate(spec, draw)

    def test_eigh_only_in_standardize(self):
        files = [*(ROOT / "src" / "normtest").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
        counts = {f.name: f.read_text().count("linalg.eigh(") for f in files}
        # the one whitening, and the one Golub-Welsch step of the limit law's Gauss rules
        assert len(files) > 3 and {k: v for k, v in counts.items() if v} == {"standardize.py": 1, "nulldist.py": 1}

    def test_one_replication_path_in_power(self):
        text = (ROOT / "src" / "normtest" / "power.py").read_text()
        assert "map_replications(" not in text and text.count("derive_seed(") == 1
        assert (ROOT / "src" / "normtest" / "nulldist.py").read_text().count("map_replications(") == 1

    def test_one_monte_carlo_cell(self):
        # outside the engine, every simulation is nulldist._cell; the CLI checks cells through it
        calls = [
            (f.name, fn.name)
            for f in sorted((ROOT / "src" / "normtest").glob("*.py"))
            if f.name != "parallel.py"
            for fn in ast.walk(ast.parse(f.read_text()))
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and "map_replications" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        ]
        assert calls == [("nulldist.py", "_cell")]
        assert "check_sample_size" not in (ROOT / "src" / "normtest" / "cli.py").read_text()
