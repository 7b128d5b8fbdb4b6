"""Seeded, replication-parallel Monte Carlo engine; the package's one seeding rule.

Every random stream is ``substream(seed, *key)``.  A study cell derives its
seed as ``derive_seed(master, purpose, *cell)``; replication i then draws from
``substream(cell_seed, i)`` only, so the full vector of results is
bit-for-bit identical for any worker count, any chunking and any resume.
The unit of work is a chunk of consecutive replications: one call of the
replication function gets the chunk's substreams, in index order, and
returns one value per substream.  Results are gathered in replication order.
"""

from __future__ import annotations

import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np

ENV_WORKERS = "NORMTEST_THREADS"

# Checkpoint granularity for long runs (completed-prefix replications).
CHECKPOINT_EVERY = 10_000


# Purpose tags of derived seeds.  Their values are part of the
# reproducibility contract: changing one changes every table built on it.
CRIT, ALT, LIMIT = 0, 1, 2


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the stream labelled ``key`` of master ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def derive_seed(seed: int, *key: int) -> int:
    """Deterministic 64-bit sub-seed for a labelled purpose/cell key."""
    state = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int.from_bytes(state.generate_state(2).tobytes(), "little")


def float_key(x: float) -> int:
    """Bit pattern of a float, so that it enters a seed key exactly."""
    return int(np.float64(x).view(np.uint64))


def resolve_workers(workers: int | None) -> int:
    """Worker count: NORMTEST_THREADS overrides, else the argument, else 1."""
    env = os.environ.get(ENV_WORKERS)
    if env:
        return max(1, int(env))
    if workers is None or workers <= 0:
        return max(1, os.cpu_count() or 1)
    return workers


def _run_range(fn, seed: int, lo: int, hi: int, args: tuple) -> np.ndarray:
    return fn([substream(seed, i) for i in range(lo, hi)], *args)


def _load_checkpoint(path: str, meta: str) -> np.ndarray | None:
    try:
        with np.load(path, allow_pickle=False) as f:
            if str(f["meta"]) == meta:
                return np.asarray(f["values"])
    except (OSError, KeyError, ValueError):
        pass
    return None


def _save_checkpoint(path: str, meta: str, values: np.ndarray) -> None:
    # Atomic replace so an interrupted run never leaves a torn file.
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".", suffix=".npz")
    os.close(fd)
    try:
        np.savez(tmp, meta=np.asarray(meta), values=values)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def map_replications(
    fn,
    replications: int,
    seed: int,
    *,
    args: tuple = (),
    workers: int | None = 1,
    checkpoint: str | None = None,
    checkpoint_meta: str = "",
    progress: bool = False,
) -> np.ndarray:
    """Evaluate replications 0..replications-1, replication i on ``substream(seed, i)``.

    ``fn(rngs, *args)`` gets the substreams of one chunk of consecutive
    replications, as a list in index order, and returns one float per
    substream; value k must depend on ``rngs[k]`` only.  It must be a
    picklable module-level callable.
    With ``checkpoint`` set, the completed prefix is persisted whenever it
    crosses a multiple of :data:`CHECKPOINT_EVERY` replications and at the
    end, and reused on rerun when
    ``checkpoint_meta`` (a description of the run parameters) matches.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    nworkers = resolve_workers(workers)
    out = np.empty(replications)
    start = 0
    if checkpoint is not None:
        prev = _load_checkpoint(checkpoint, checkpoint_meta)
        if prev is not None:
            start = min(len(prev), replications)
            out[:start] = prev[:start]
            if progress and start:
                print(f"resumed {start}/{replications} replications", file=sys.stderr)
    if start >= replications:
        return out

    # Chunks small enough to parallelize and to checkpoint, fixed relative to
    # replication indices so chunking never affects values.  A chunk's
    # substreams all exist while it runs (about 0.9 kB each), hence the cap.
    chunk = min(CHECKPOINT_EVERY, 1_000, max(64, (replications - start) // (8 * nworkers) or 64))
    ranges = [(lo, min(lo + chunk, replications)) for lo in range(start, replications, chunk)]

    def note_progress(lo: int, hi: int) -> None:
        if progress:
            print(f"\r{hi}/{replications} replications", end="", file=sys.stderr, flush=True)
        if checkpoint is not None and (
            hi // CHECKPOINT_EVERY > lo // CHECKPOINT_EVERY or hi == replications
        ):
            _save_checkpoint(checkpoint, checkpoint_meta, out[:hi])

    if nworkers == 1:
        for lo, hi in ranges:
            out[lo:hi] = _run_range(fn, seed, lo, hi, args)
            note_progress(lo, hi)
    else:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            futures = [(lo, hi, pool.submit(_run_range, fn, seed, lo, hi, args)) for lo, hi in ranges]
            # Gather in replication order: checkpoints always cover a prefix.
            for lo, hi, fut in futures:
                out[lo:hi] = fut.result()
                note_progress(lo, hi)
    if progress:
        print(file=sys.stderr)
    return out
