"""Deterministic named randomness streams, a worker pool and the replication driver.

Every random quantity in the package is drawn from a stream derived from a
single 64-bit master seed plus a human-readable path, e.g.
``stream_rng(seed, "critical-value", 0.5, 2.0)``: the sha256 of
``(seed, *path)`` seeds a numpy ``SeedSequence``, which seeds a PCG64
``Generator``.  Reruns with the same seed and configuration are bitwise
identical.

:func:`simulate` is the one loop behind every simulation campaign.  It uses
one stream per block of replications: replications r in [kB, (k+1)B) draw
from ``stream_rng(seed, *path, "block", k)``, one call per variate for the
whole block, where B is 64, or fewer when n * d is large, and depends on n
and d alone.  Memory batches and worker slices hold whole stream blocks, so
the output depends neither on :data:`SIMULATION_BLOCK_FLOATS` nor on how
many workers share the run (``FSTEST_THREADS``).  The last block draws only
the replications asked for, so a run of fewer replications is in general
not a prefix of a longer one.
"""

from __future__ import annotations

import hashlib
import os
from functools import partial
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "stream_rng",
    "ThreadCountError",
    "worker_count",
    "parallel_map",
    "replication_slices",
    "simulate",
]

_DOMAIN = b"fstest/1"

THREADS_ENV_VAR = "FSTEST_THREADS"


def _stream_words(seed: int, *path: object) -> np.ndarray:
    """The sha256 of the domain, seed mod 2**64, then per path part ``/`` and
    the float's repr or the part's str, as eight uint32 words."""
    h = hashlib.sha256(_DOMAIN)
    h.update((int(seed) % (1 << 64)).to_bytes(8, "little"))
    for part in path:
        # repr() of a Python float is the shortest round-trip form, stable across
        # platforms; numpy's float64 reprs differ between numpy 1 and 2
        h.update(b"/" + (repr(float(part)) if isinstance(part, float) else str(part)).encode())
    return np.frombuffer(h.digest(), dtype=np.uint32)


def stream_rng(seed: int, *path: object) -> np.random.Generator:
    """Return the generator for the named stream ``(seed, *path)``.

    Identical arguments always yield a generator producing identical draws;
    distinct paths yield independent streams.  ``SeedSequence`` takes the
    digest's eight words as one uint32 array, which seeds the same state as
    their list and skips its coercion of eight Python ints.
    """
    return np.random.default_rng(np.random.SeedSequence(_stream_words(seed, *path)))


class ThreadCountError(ValueError):
    """FSTEST_THREADS is set but is not an integer."""


def worker_count() -> int:
    """Workers from FSTEST_THREADS (default 1), clamped to 1..os.cpu_count()."""
    raw = os.environ.get(THREADS_ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ThreadCountError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
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
    # imported here, so that a serial run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def replication_slices(reps: int, workers: int | None = None) -> list[slice]:
    """Split 0..reps into contiguous chunks, one per available worker.

    :func:`simulate` splits its stream blocks with it, so chunk boundaries
    never cut a stream and never affect results.
    """
    if reps < 0:
        raise ValueError("reps must be nonnegative")
    if workers is None:
        workers = worker_count()
    if workers <= 1 or reps <= 1:
        return [slice(0, reps)]
    chunk = -(-reps // workers)
    return [slice(s, min(s + chunk, reps)) for s in range(0, reps, chunk)]


#: float64 entries of simulated data one batch may hold (8 MB)
SIMULATION_BLOCK_FLOATS = 1_000_000

#: replications that share one stream, and the data entries a stream block may hold
_STREAM_BLOCK, _STREAM_BLOCK_FLOATS = 64, 1 << 20


def _stream_block(n: int, d: int) -> int:
    """Replications per stream at sample size n in dimension d (64, fewer when n * d is large)."""
    return max(1, min(_STREAM_BLOCK, _STREAM_BLOCK_FLOATS // max(1, n * d)))


def simulate(sampler, reduce: Callable, path: Sequence, n: int, reps: int, seed: int) -> dict:
    """Simulate ``reps`` (n, d) datasets and reduce them to per-replication arrays.

    Replications r in [kB, (k+1)B) form stream block k and draw from the
    stream ``stream_rng(seed, *path, "block", k)``; B depends on n and
    ``sampler.d`` alone.  The ``sampler`` (an ``EllipticalModel`` or a
    ``MixtureModel``) allocates a batch's arrays with ``buffers(reps, n)``;
    ``draw(rng, *buffers)`` writes one stream block's raw variates into its
    rows of each, one call per variate, and ``finish(*buffers)`` turns the
    batch into C-contiguous (reps, n, ``sampler.d``) data, which ``reduce``
    maps to a dict of arrays over the batch.  The result concatenates them
    per key in replication order.  Batches hold whole stream blocks, at most
    :data:`SIMULATION_BLOCK_FLOATS` data entries unless one block is larger,
    and :func:`replication_slices` splits the stream blocks among workers;
    as ``finish`` and ``reduce`` treat replications independently, neither
    changes a result.  With several workers, ``sampler`` and ``reduce`` must
    pickle (partials, not lambdas).
    """
    blocks = -(-reps // _stream_block(n, sampler.d))
    run = partial(_simulate_slice, sampler, reduce, tuple(path), n, reps, seed)
    parts = [part for chunk in parallel_map(run, replication_slices(blocks)) for part in chunk]
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def _simulate_slice(sampler, reduce, path, n, reps, seed, blocks: slice) -> list[dict]:
    """The stream blocks ``blocks`` of a run of ``reps`` replications, batch by batch."""
    block = _stream_block(n, sampler.d)
    batch = block * max(1, SIMULATION_BLOCK_FLOATS // max(1, block * n * sampler.d))
    start, stop = blocks.start * block, min(blocks.stop * block, reps)
    parts = []
    # an empty run (reps = 0) still reduces one empty batch, which fixes the keys
    for lo in range(start, max(stop, start + 1), batch):
        hi = min(lo + batch, stop)
        buffers = sampler.buffers(hi - lo, n)
        for first in range(lo, hi, block):
            rows = slice(first - lo, min(first + block, hi) - lo)
            sampler.draw(stream_rng(seed, *path, "block", first // block), *(b[rows] for b in buffers))
        parts.append(reduce(sampler.finish(*buffers)))
    return parts
