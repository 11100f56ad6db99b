"""Deterministic named randomness streams, a worker pool and the replication driver.

Every random quantity in the package is drawn from a stream derived from a
single 64-bit master seed plus a human-readable path, e.g.
``stream_rng(seed, "power", "cauchy", 0.3, rep)``.  Two consequences:

* reruns with the same seed and configuration are bitwise identical, and
* each replication owns its stream, so campaign output does not depend on
  how replications are scheduled across workers (``FSTEST_THREADS``).

:func:`simulate` is the one loop behind every simulation campaign: it draws
replication r of a dataset from the stream ``(seed, *path, r)``, stacks the
replications into (block, n, d) batches of bounded size and reduces each
batch to per-replication arrays.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "stream_rng",
    "stream_seed_words",
    "worker_count",
    "parallel_map",
    "replication_slices",
    "simulate",
]

_DOMAIN = b"fstest/1"

THREADS_ENV_VAR = "FSTEST_THREADS"


def stream_seed_words(seed: int, *path: object) -> list[int]:
    """Hash (seed, path) into eight 32-bit words suitable for SeedSequence."""
    h = hashlib.sha256()
    h.update(_DOMAIN)
    h.update((int(seed) % (1 << 64)).to_bytes(8, "little"))
    for part in path:
        h.update(b"/")
        if isinstance(part, float):
            # repr() is the shortest round-trip form, stable across platforms
            h.update(repr(part).encode())
        else:
            h.update(str(part).encode())
    return [int(w) for w in np.frombuffer(h.digest(), dtype=np.uint32)]


def stream_rng(seed: int, *path: object) -> np.random.Generator:
    """Return the generator for the named stream ``(seed, *path)``.

    Identical arguments always yield a generator producing identical draws;
    distinct paths yield independent streams.
    """
    entropy = stream_seed_words(seed, *path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def worker_count() -> int:
    """Workers from FSTEST_THREADS (default 1), clamped to 1..os.cpu_count()."""
    raw = os.environ.get(THREADS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")
    return max(1, min(n, os.cpu_count() or 1))


def parallel_map(fn: Callable, items: Sequence, workers: int | None = None) -> list:
    """Map ``fn`` over ``items`` preserving order.

    With ``workers`` (default: :func:`worker_count`) above one, items are
    distributed over a process pool.  ``fn`` must be picklable and must not
    rely on shared mutable state; per-item determinism then guarantees the
    result is independent of the pool size.
    """
    if workers is None:
        workers = worker_count()
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def replication_slices(reps: int, workers: int | None = None) -> list[slice]:
    """Split 0..reps into contiguous chunks, one per available worker.

    Chunk boundaries never affect results because every replication owns a
    stream derived from its own index.
    """
    if reps < 0:
        raise ValueError("reps must be nonnegative")
    if workers is None:
        workers = worker_count()
    if workers <= 1 or reps <= 1:
        return [slice(0, reps)]
    chunk = -(-reps // workers)
    return [slice(s, min(s + chunk, reps)) for s in range(0, reps, chunk)]


#: float64 entries of simulated data one batch may hold (32 MB)
SIMULATION_BLOCK_FLOATS = 4_000_000


def simulate(
    sample: Callable, reduce: Callable, path: Sequence, n: int, d: int, reps: int, seed: int
) -> dict:
    """Simulate ``reps`` (n, d) datasets and reduce them to per-replication arrays.

    Replication r is ``sample(n, stream_rng(seed, *path, r))``.  ``reduce``
    maps a (block, n, d) batch to a dict of arrays over the batch; the result
    concatenates them per key in replication order.  Batches hold at most
    :data:`SIMULATION_BLOCK_FLOATS` entries and worker slices come from
    :func:`replication_slices`; as ``reduce`` treats replications
    independently, neither changes a result.  With several workers, ``sample``
    and ``reduce`` must pickle (bound methods or partials, not lambdas).
    """
    run = partial(_simulate_slice, sample, reduce, tuple(path), n, d, seed)
    parts = [part for chunk in parallel_map(run, replication_slices(reps)) for part in chunk]
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def _simulate_slice(sample, reduce, path, n, d, seed, reps: slice) -> list[dict]:
    block = max(1, SIMULATION_BLOCK_FLOATS // max(1, n * d))
    parts = []
    # an empty slice (reps = 0) still reduces one empty batch, which fixes the keys
    for start in range(reps.start, max(reps.stop, reps.start + 1), block):
        stop = min(start + block, reps.stop)
        data = np.empty((stop - start, n, d))
        for i in range(stop - start):
            data[i] = sample(n, stream_rng(seed, *path, start + i))
        parts.append(reduce(data))
    return parts
