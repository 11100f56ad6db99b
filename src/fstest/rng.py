"""Deterministic named randomness streams, a thread pool and the replication driver.

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
and d alone.  Its batches hold whole stream blocks and run on up to
``FSTEST_THREADS`` threads, so the output depends neither on
:data:`SIMULATION_BLOCK_FLOATS` nor on the thread count.  The last block draws only
the replications asked for, so a run of fewer replications is in general
not a prefix of a longer one.
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "stream_rng",
    "ThreadCountError",
    "worker_count",
    "parallel_map",
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


def parallel_map(fn: Callable, items: Sequence) -> list:
    """Map ``fn`` over ``items`` preserving order.

    With :func:`worker_count` above one and several items, the items are
    spread over a pool of that many threads (at most one per item), opened
    for this call.  ``fn`` must not rely on state that another item's call
    mutates; per-item determinism then makes the result independent of the
    pool size.
    """
    workers, items = worker_count(), list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here, so that a serial run loads no pool module
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


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
    per key in replication order.  A batch holds whole stream blocks: at
    most :data:`SIMULATION_BLOCK_FLOATS` data entries unless one block is
    larger, and at most a 1/:func:`worker_count` share of the blocks
    (rounded up), and :func:`parallel_map` spreads the batches over the workers; as ``finish``
    and ``reduce`` treat replications independently, neither changes a
    result.  ``sampler`` and ``reduce`` must share no mutable state between
    batches, as batches may run on several threads at once.
    """
    block = _stream_block(n, sampler.d)
    blocks = -(-reps // block)
    cap = max(1, SIMULATION_BLOCK_FLOATS // max(1, block * n * sampler.d))
    batch = block * min(cap, max(1, -(-blocks // worker_count())))

    def run(lo: int) -> dict:
        hi = min(lo + batch, reps)
        buffers = sampler.buffers(hi - lo, n)
        for first in range(lo, hi, block):
            rows = slice(first - lo, min(first + block, hi) - lo)
            sampler.draw(stream_rng(seed, *path, "block", first // block), *(b[rows] for b in buffers))
        return reduce(sampler.finish(*buffers))

    # an empty run (reps = 0) still reduces one empty batch, which fixes the keys
    parts = parallel_map(run, range(0, max(reps, 1), batch))
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
