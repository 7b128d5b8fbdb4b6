import os
import pathlib

import numpy as np
import pytest

from normtest import nulldist, parallel, power
from normtest.competitors import parse_competitor
from normtest.samplers import parse_spec, sample

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _first_normal(rngs):
    return np.array([float(rng.standard_normal()) for rng in rngs])


def _index_probe(rngs):
    return np.array([float(rng.integers(0, 2**31)) for rng in rngs])


class _ChunkSizes:
    """:func:`_first_normal` that records how many substreams each call gets."""

    def __init__(self):
        self.sizes = []

    def __call__(self, rngs):
        self.sizes.append(len(rngs))
        return _first_normal(rngs)


class TestSubstreams:
    def test_matches_manual_loop(self):
        out = parallel.map_replications(_first_normal, 32, seed=99, workers=1)
        manual = np.array([_first_normal([parallel.substream(99, i)])[0] for i in range(32)])
        np.testing.assert_array_equal(out, manual)

    def test_streams_distinct(self):
        out = parallel.map_replications(_index_probe, 64, seed=5, workers=1)
        assert len(np.unique(out)) == 64

    @pytest.mark.parametrize("workers", [2, 4, 16])
    def test_worker_count_invariance(self, workers):
        base = parallel.map_replications(_first_normal, 150, seed=7, workers=1)
        out = parallel.map_replications(_first_normal, 150, seed=7, workers=workers)
        np.testing.assert_array_equal(base, out)

    def test_chunk_holds_at_most_1000_substreams(self):
        # on one worker, 16 000 // 8 would make chunks of 2 000
        record = _ChunkSizes()
        one = parallel.map_replications(record, 16_000, seed=6, workers=1)
        assert max(record.sizes) == 1_000 and sum(record.sizes) == 16_000
        two = parallel.map_replications(_first_normal, 16_000, seed=6, workers=2)
        np.testing.assert_array_equal(one, two)


def _draws(rng):
    # an odd count of 32-bit integers leaves half a 64-bit word buffered
    return rng.standard_normal((3, 2)).tolist(), rng.integers(0, 2**31, size=3, dtype=np.int32).tolist()


class TestBatchedStreams:
    """``_streams`` repeats numpy's SeedSequence and PCG64 seeding; these
    equalities with ``substream`` guard it against a numpy upgrade."""

    SEEDS = [0, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 3, 12345678901234567890123, 2**130 + 5]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("lo,hi", [(0, 50), (2**32 - 20, 2**32), (2**32 - 3, 2**32 + 3)])
    def test_equals_substream(self, seed, lo, hi):
        streams = parallel._streams(seed, lo, hi)
        assert len(streams) == hi - lo
        got = [_draws(rng) for rng in streams]
        assert got == [_draws(parallel.substream(seed, i)) for i in range(lo, hi)]

    def test_rep_equals_on_a_list(self):
        # n = 50, d = 2 stacks 81 draws at a time: stacks of 81 and 9
        args = (parse_spec("mt:nu=5"), 50, 2, (1.0,))
        lazy = nulldist._rep(parallel._streams(41, 5, 95), *args)
        listed = nulldist._rep([parallel.substream(41, i) for i in range(5, 95)], *args)
        np.testing.assert_array_equal(lazy, listed)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            parallel._streams(-3, 0, 10)


class TestSeedingContract:
    """Frozen values: a change here changes every published table."""

    def test_derived_seeds(self):
        assert parallel.derive_seed(4242, parallel.CRIT, 2, 20, parallel.float_key(1.0)) == 11935040800261041523
        assert parallel.derive_seed(4242, parallel.ALT, 2, 50, parallel.float_key(0.5)) == 18095698259103607017

    def test_first_draws(self):
        assert parallel.substream(31).standard_normal(3).tolist() == [
            -0.39530128858657, 0.2639148850157296, 0.6071282687955677
        ]
        assert parallel.substream(99, 5).standard_normal(3).tolist() == [
            1.1719223571002384, -0.7037862765640882, -0.598648033686762
        ]
        assert sample(parse_spec("std"), 2, 17, d=2).tolist() == [
            [1.101262453505847, 0.3384312766461778], [-0.5399715152535035, -1.2602418568524327]
        ]

    def test_seed_sequences_built_only_in_parallel(self):
        files = [*(ROOT / "src" / "normtest").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
        offenders = [f.name for f in files if f.name != "parallel.py" and "SeedSequence(" in f.read_text()]
        assert len(files) > 3 and offenders == []


class TestPowerSeedLayout:
    """Frozen power_matrix rows: they pin the (CRIT, d, n, a) and
    (CRIT, d, n, kind id, tuning) keys of every critical value and the
    (ALT, d, n) key of every power row, shared by its columns."""

    def test_multivariate_columns(self):
        alts = [parse_spec(s) for s in ("std", "mt:nu=5", "nmix:p=0.1,mu=3,sigma=I", "prod:uniform")]
        comps = [parse_competitor(s) for s in ("bhep:0.5", "hv:5", "hjg:1.5", "hvinf")]
        columns, rows = power.power_matrix(alts, 2, 20, [0.5, 2.0], comps, 0.05, 60, 11, crit_replications=120)
        assert columns == ["t:0.5", "t:2", "bhep:0.5", "hv:5", "hjg:1.5", "hv_inf"]
        assert rows == [
            [5.0, 5.0, 1.6666666666666667, 1.6666666666666667, 3.3333333333333335, 0.0],
            [36.666666666666664, 38.333333333333336, 23.333333333333332, 16.666666666666664, 28.333333333333332,
             11.666666666666666],
            [30.0, 41.66666666666667, 33.33333333333333, 18.333333333333332, 21.666666666666668, 15.0],
            [0.0, 1.6666666666666667, 0.0, 0.0, 1.6666666666666667, 0.0],
        ]

    def test_univariate_columns(self):
        alts = [parse_spec(s) for s in ("std", "t:nu=3", "uniform")]
        comps = [parse_competitor(s) for s in ("bcmr", "be")]
        columns, rows = power.power_matrix(alts, 1, 15, [1.0], comps, 0.05, 40, 5, crit_replications=80)
        assert columns == ["t:1", "bcmr", "be:1"]
        assert rows == [[7.5, 5.0, 7.5], [40.0, 27.500000000000004, 37.5], [5.0, 7.5, 5.0]]


class TestPowerRow:
    """A power row is one cell: every column on the draws of the row key."""

    ALTS = ("mt:nu=5", "nmix:p=0.1,mu=3,sigma=I")
    A = [0.5, 2.0]
    COMPS = ("bhep:0.5", "hv:5", "hjg:1.5", "hvinf")

    def _matrix(self, a_list, comps):
        alts = [parse_spec(s) for s in self.ALTS]
        return power.power_matrix(alts, 2, 20, a_list, [parse_competitor(c) for c in comps], 0.05, 60, 11,
                                  crit_replications=120)[1]

    def test_columns_equal_the_single_column_functions(self):
        rows = self._matrix(self.A, self.COMPS)
        for alt, row in zip(self.ALTS, rows):
            alt = parse_spec(alt)
            want = []
            for a in self.A:
                crit = power.t_critical_value(2, 20, a, 0.05, 120, 11)
                want.append(100.0 * power.t_power(alt, 2, 20, a, crit, 60, 11))
            for text in self.COMPS:
                comp = parse_competitor(text)
                crit = power.competitor_critical_value(comp, 2, 20, 0.05, 120, 11)
                want.append(100.0 * power.competitor_power(alt, comp, 2, 20, crit, 60, 11))
            assert row == want

    def test_dropping_a_column_leaves_the_others(self):
        rows = self._matrix(self.A, self.COMPS)
        kept = [c for c in range(len(self.A) + len(self.COMPS)) if c not in (0, 3)]  # t:0.5 and hv:5 go
        dropped = self._matrix(self.A[1:], self.COMPS[:1] + self.COMPS[2:])
        assert dropped == [[row[c] for c in kept] for row in rows]

    def test_univariate_row_equals_the_single_column_functions(self):
        alt = parse_spec("t:nu=3")
        comps = [parse_competitor(c) for c in ("bcmr", "be", "hvinf")]
        _, rows = power.power_matrix([alt], 1, 15, [1.0], comps, 0.05, 40, 5, crit_replications=80)
        want = [100.0 * power.t_power(alt, 1, 15, 1.0, power.t_critical_value(1, 15, 1.0, 0.05, 80, 5), 40, 5)]
        for comp in comps:
            crit = power.competitor_critical_value(comp, 1, 15, 0.05, 80, 5)
            want.append(100.0 * power.competitor_power(alt, comp, 1, 15, crit, 40, 5))
        assert rows == [want]


class TestPowerCellCheck:
    @pytest.mark.parametrize("a", [float("nan"), float("inf"), 0.0, -1.0])
    def test_t_power_refuses_a_bad_a(self, a):
        with pytest.raises(ValueError, match="tuning parameter a must be a positive finite real"):
            power.t_power(parse_spec("uniform"), 1, 20, a, 0.5, 50, 3)


class TestCheckpoint:
    def test_reused_when_meta_matches(self, tmp_path):
        path, meta = parallel._checkpoint_file(_first_normal, (), 10, 1, str(tmp_path))
        fake = np.arange(10.0)
        parallel._save_checkpoint(path, meta, fake)
        out = parallel.map_replications(_first_normal, 10, seed=1, workers=1, checkpoint=str(tmp_path))
        np.testing.assert_array_equal(out, fake)

    def test_ignored_when_meta_differs(self, tmp_path):
        path, _ = parallel._checkpoint_file(_first_normal, (), 10, 1, str(tmp_path))
        parallel._save_checkpoint(path, "other", np.arange(10.0))
        out = parallel.map_replications(_first_normal, 10, seed=1, workers=1, checkpoint=str(tmp_path))
        manual = np.array([_first_normal([parallel.substream(1, i)])[0] for i in range(10)])
        np.testing.assert_array_equal(out, manual)

    def test_written_at_completion(self, tmp_path):
        out = parallel.map_replications(_first_normal, 25, seed=2, workers=1, checkpoint=str(tmp_path))
        path, meta = parallel._checkpoint_file(_first_normal, (), 25, 2, str(tmp_path))
        saved = parallel._load_checkpoint(path, meta)
        np.testing.assert_array_equal(saved, out)

    def test_saved_when_prefix_crosses_a_multiple(self, tmp_path, monkeypatch):
        # chunks of 125 replications never end on a multiple of 150
        monkeypatch.setattr(parallel, "CHECKPOINT_EVERY", 150)
        saved = []
        monkeypatch.setattr(parallel, "_save_checkpoint", lambda path, meta, v: saved.append(len(v)))
        parallel.map_replications(_first_normal, 1000, seed=3, workers=1, checkpoint=str(tmp_path))
        assert saved == [250, 375, 500, 625, 750, 1000]


class TestWorkerResolution:
    def test_positive_argument_is_the_count(self):
        assert parallel.resolve_workers(8) == 8
        assert parallel.resolve_workers(1) == 1

    def test_negative_argument_refused(self):
        with pytest.raises(ValueError, match="workers must be a non-negative integer, got -3"):
            parallel.resolve_workers(-3)

    def test_zero_means_auto(self):
        assert parallel.resolve_workers(0) >= 1
        assert parallel.resolve_workers(None) >= 1

    def test_zero_means_the_cpus_this_process_may_use(self, monkeypatch):
        # taskset -c 0 leaves one CPU in the affinity mask, whatever os.cpu_count() says
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert parallel.resolve_workers(0) == parallel.resolve_workers(None) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert parallel.resolve_workers(0) == 3
        # a platform with no affinity mask counts every CPU
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert parallel.resolve_workers(0) == 8
