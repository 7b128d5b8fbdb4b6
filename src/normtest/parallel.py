"""Seeded, replication-parallel Monte Carlo engine; the package's one seeding rule.

Every random stream is ``substream(seed, *key)``.  A study cell derives its
seed as ``derive_seed(master, purpose, *cell)``; replication i then draws from
``substream(cell_seed, i)`` only, so the full array of results is
bit-for-bit identical for any worker count, any chunking and any resume.
The unit of work is a chunk of consecutive replications: one call of the
replication function gets the chunk's substreams as a lazy sequence in index
order, and returns one row of values per substream, as one array.  The
sequence hands out one reused generator, reseeded per replication, so the
function must consume item k before it takes item k+1 and keep no reference
to it.  Its seeds are hashed from numpy's own ``SeedSequence(seed).pool`` for
the whole chunk at once.  One gather loop serves every worker count: it maps the chunks with the
builtin ``map`` on one worker and with ``ProcessPoolExecutor.map`` on a pool,
both of which yield in replication order, so results, progress and
checkpoints always cover a prefix.  The engine names each checkpoint file
from the run's description (function, arguments, replications and seed).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import operator
import os
import sys
import tempfile
import zipfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np
# numpy loads numpy.random on first use.  Loaded here, in the parent, it is
# inherited by a pool's forked workers, which would each import it otherwise.
import numpy.random  # noqa: F401

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
    """Worker count: NORMTEST_THREADS overrides the argument; 0 or None means all cores.

    A negative count, from either source, is refused.
    """
    env = os.environ.get(ENV_WORKERS)
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = -1
        if workers < 0:
            raise ValueError(f"{ENV_WORKERS} must be a non-negative integer, got {env!r}")
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be a non-negative integer, got {workers}")
    return workers or max(1, os.cpu_count() or 1)


# numpy's SeedSequence hash constants (pool of four 32-bit words) and the
# PCG64 multiplier: _streams finishes numpy's seeding arithmetic with them,
# starting from the pool numpy itself mixed from the seed's words.
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hash of 32-bit ``value`` (an int or a uint64 array), and the next constant."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


class _streams:
    """``substream(seed, i)`` for i in lo..hi-1, in order, as one reused Generator.

    ``SeedSequence(seed, spawn_key=(i,))`` differs between replications only
    in its last entropy word, i, so the pool is numpy's own
    ``SeedSequence(seed).pool``, and i is mixed into it as an array over the
    chunk, followed by ``generate_state(4, uint64)``.  Each hash then gives
    the PCG64 state ``default_rng`` would seed, which the one Generator takes
    in turn.  An index of 2**32 or more is two key words, and comes from
    :func:`substream`.  Consume item k before taking item k+1, and keep no
    reference to it.
    """

    def __init__(self, seed: int, lo: int, hi: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        self.seed, self.lo, self.hi = seed, lo, hi

    def __len__(self) -> int:
        return self.hi - self.lo

    def __iter__(self):
        split = max(self.lo, min(self.hi, 2**32))
        # numpy's pool for the seed alone; mixing its words, padded to at least
        # _POOL, took _POOL hashes per word, each advancing the hash constant
        nwords = max(_POOL, (self.seed.bit_length() + 31) // 32)
        pool = [int(w) for w in np.random.SeedSequence(self.seed).pool]
        const = _INIT_A * pow(_MULT_A, _POOL * nwords, 2**32) & _MASK32
        index = np.arange(self.lo, split, dtype=np.uint64)
        for dst in range(_POOL):
            h, const = _hashmix(index, const, _MULT_A)
            pool[dst] = _mix(pool[dst], h)
        state, const = [], _INIT_B
        for k in range(2 * _POOL):
            h, const = _hashmix(pool[k % _POOL], const, _MULT_B)
            state.append(h)
        # little-endian uint32 pairs are the words s0, s1, i0, i1 of generate_state
        s0, s1, i0, i1 = ((state[k] | state[k + 1] << 32).tolist() for k in range(0, 2 * _POOL, 2))
        rng = np.random.Generator(np.random.PCG64(0))
        bitgen = rng.bit_generator
        for a, b, c, e in zip(s0, s1, i0, i1):
            # pcg64_set_seed: state = ((inc + initstate) * M + inc) mod 2**128
            inc = ((c << 64 | e) << 1 | 1) & _MASK128
            pcg = ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": pcg, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng
        for i in range(split, self.hi):
            yield substream(self.seed, i)


def _run_range(fn, seed: int, lo: int, hi: int, args: tuple) -> np.ndarray:
    return fn(_streams(seed, lo, hi), *args)


def _load_checkpoint(path: str, meta: str) -> np.ndarray | None:
    """The values saved for ``meta`` at ``path``, or None; a damaged file is
    reported on stderr and left for the run to overwrite."""
    try:
        with np.load(path, allow_pickle=False) as f:
            if str(f["meta"]) == meta:
                return np.asarray(f["values"])
    except FileNotFoundError:
        pass
    except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        print(f"warning: cannot read checkpoint {path} ({exc}); recomputing its replications", file=sys.stderr)
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


def _checkpoint_file(fn, args: tuple, replications: int, seed: int, directory: str) -> tuple[str, str]:
    """(path, description) of a run's checkpoint, the file named by the description's SHA-256."""
    meta = f"{fn.__module__}.{fn.__qualname__}{args!r} R={replications} seed={seed}"
    return os.path.join(directory, hashlib.sha256(meta.encode()).hexdigest()[:16] + ".npz"), meta


def map_replications(
    fn,
    replications: int,
    seed: int,
    *,
    args: tuple = (),
    workers: int | None = 1,
    checkpoint: str | None = None,
    progress: bool = False,
) -> np.ndarray:
    """Evaluate replications 0..replications-1, replication i on ``substream(seed, i)``.

    ``fn(rngs, *args)`` gets the substreams of one chunk of consecutive
    replications, as a lazy sequence in index order (``len(rngs)`` is the
    chunk size), and returns an array of one row per substream, a float or
    a row of C floats; row k must depend on the k-th substream only.  The
    rows are gathered, and checkpointed, as one (replications,) or
    (replications, C) array.  The sequence reuses one generator, so ``fn``
    must consume item k before it takes item k+1 and keep no reference to
    it.  ``fn`` must be a picklable module-level callable.
    With ``checkpoint`` (a directory) set, the completed prefix is persisted
    whenever it crosses a multiple of :data:`CHECKPOINT_EVERY` replications
    and at the end, to the file :func:`_checkpoint_file` names, and reused on
    a rerun whose description matches.  A file that cannot be read gets one
    ``warning:`` line on stderr, and the run recomputes and overwrites it.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    nworkers = resolve_workers(workers)
    out = None  # allocated from the first rows, whose shape it takes
    start = 0
    if checkpoint:
        os.makedirs(checkpoint, exist_ok=True)
        path, meta = _checkpoint_file(fn, args, replications, seed, checkpoint)
        prev = _load_checkpoint(path, meta)
        if prev is not None:
            start = min(len(prev), replications)
            out = np.empty((replications, *prev.shape[1:]))
            out[:start] = prev[:start]
            if progress and start:
                print(f"resumed {start}/{replications} replications", file=sys.stderr)
    if start >= replications:
        return out

    # Chunks small enough to parallelize and to checkpoint, fixed relative to
    # replication indices so chunking never affects values.  A chunk holds one
    # generator and its replications' hashed seeds (under 0.3 kB each); the cap
    # keeps progress and a single worker's units of work fine-grained.
    chunk = min(CHECKPOINT_EVERY, 1_000, max(64, (replications - start) // (8 * nworkers) or 64))
    los = range(start, replications, chunk)
    his = [min(lo + chunk, replications) for lo in los]
    run = functools.partial(_run_range, fn, seed, args=args)
    with ProcessPoolExecutor(max_workers=nworkers) if nworkers > 1 else contextlib.nullcontext() as pool:
        # Both maps yield in replication order: checkpoints always cover a prefix.
        results = map(run, los, his) if pool is None else pool.map(run, los, his)
        for lo, hi, values in zip(los, his, results):
            if out is None:
                out = np.empty((replications, *np.shape(values)[1:]))
            out[lo:hi] = values
            if progress:
                print(f"\r{hi}/{replications} replications", end="", file=sys.stderr, flush=True)
            if checkpoint and (
                hi // CHECKPOINT_EVERY > lo // CHECKPOINT_EVERY or hi == replications
            ):
                _save_checkpoint(path, meta, out[:hi])
    if progress:
        print(file=sys.stderr)
    return out
