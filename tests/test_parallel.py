import numpy as np
import pytest

from normtest import parallel


def _first_normal(rng):
    return float(rng.standard_normal())


def _index_probe(rng):
    return float(rng.integers(0, 2**31))


class TestSubstreams:
    def test_matches_manual_loop(self):
        out = parallel.map_replications(_first_normal, 32, seed=99, workers=1)
        manual = np.array([_first_normal(parallel.substream(99, i)) for i in range(32)])
        np.testing.assert_array_equal(out, manual)

    def test_streams_distinct(self):
        out = parallel.map_replications(_index_probe, 64, seed=5, workers=1)
        assert len(np.unique(out)) == 64

    @pytest.mark.parametrize("workers", [2, 4, 16])
    def test_worker_count_invariance(self, workers):
        base = parallel.map_replications(_first_normal, 150, seed=7, workers=1)
        out = parallel.map_replications(_first_normal, 150, seed=7, workers=workers)
        np.testing.assert_array_equal(base, out)


class TestCheckpoint:
    def test_reused_when_meta_matches(self, tmp_path):
        path = str(tmp_path / "c.npz")
        fake = np.arange(10.0)
        parallel._save_checkpoint(path, "meta-x R=10", fake)
        out = parallel.map_replications(
            _first_normal, 10, seed=1, workers=1, checkpoint=path, checkpoint_meta="meta-x R=10"
        )
        np.testing.assert_array_equal(out, fake)

    def test_ignored_when_meta_differs(self, tmp_path):
        path = str(tmp_path / "c.npz")
        parallel._save_checkpoint(path, "other", np.arange(10.0))
        out = parallel.map_replications(
            _first_normal, 10, seed=1, workers=1, checkpoint=path, checkpoint_meta="mine"
        )
        manual = np.array([_first_normal(parallel.substream(1, i)) for i in range(10)])
        np.testing.assert_array_equal(out, manual)

    def test_written_at_completion(self, tmp_path):
        path = str(tmp_path / "c.npz")
        out = parallel.map_replications(
            _first_normal, 25, seed=2, workers=1, checkpoint=path, checkpoint_meta="m"
        )
        saved = parallel._load_checkpoint(path, "m")
        np.testing.assert_array_equal(saved, out)

    def test_saved_when_prefix_crosses_a_multiple(self, tmp_path, monkeypatch):
        # chunks of 125 replications never end on a multiple of 150
        monkeypatch.setattr(parallel, "CHECKPOINT_EVERY", 150)
        saved = []
        monkeypatch.setattr(parallel, "_save_checkpoint", lambda path, meta, v: saved.append(len(v)))
        parallel.map_replications(
            _first_normal, 1000, seed=3, workers=1, checkpoint=str(tmp_path / "c.npz"),
            checkpoint_meta="m",
        )
        assert saved == [250, 375, 500, 625, 750, 1000]


class TestWorkerResolution:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv(parallel.ENV_WORKERS, "3")
        assert parallel.resolve_workers(8) == 3
        monkeypatch.delenv(parallel.ENV_WORKERS)
        assert parallel.resolve_workers(8) == 8
        assert parallel.resolve_workers(1) == 1

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.delenv(parallel.ENV_WORKERS, raising=False)
        assert parallel.resolve_workers(0) >= 1
        assert parallel.resolve_workers(None) >= 1
