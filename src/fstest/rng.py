"""Deterministic named randomness streams, a worker pool and the replication driver.

Every random quantity in the package is drawn from a stream derived from a
single 64-bit master seed plus a human-readable path, e.g.
``stream_rng(seed, "power", "cauchy", 0.3, rep)``.  Two consequences:

* reruns with the same seed and configuration are bitwise identical, and
* each replication owns its stream, so campaign output does not depend on
  how replications are scheduled across workers (``FSTEST_THREADS``).

:func:`simulate` is the one loop behind every simulation campaign: it draws
the raw variates of replication r from the stream ``(seed, *path, r)`` into
(block, n, d) batches of bounded size, transforms each batch at once and
reduces it to per-replication arrays.

:func:`stream_rng` defines a stream: the sha256 of ``(seed, *path)`` seeds a
numpy ``SeedSequence``, which seeds a PCG64 ``Generator``.  Building those two
objects costs about 30 us, far more than one replication's draws, so
:func:`simulate` derives the generator states of a whole block at once: it
hashes the ``(seed, *path)`` prefix once, runs ``SeedSequence``'s mixing over
the block's hash words as numpy uint32 arithmetic and PCG64's seeding with
Python ints, and sets each state into one reused generator.  The draws are
those of :func:`stream_rng`; each worker slice checks its first state against
:func:`stream_rng` and raises if numpy ever seeds differently.
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
    "ThreadCountError",
    "worker_count",
    "parallel_map",
    "replication_slices",
    "simulate",
]

_DOMAIN = b"fstest/1"

THREADS_ENV_VAR = "FSTEST_THREADS"


def _part_bytes(part: object) -> bytes:
    """One path part as hashed: ``/`` then the float's repr or the part's str."""
    # repr() is the shortest round-trip form, stable across platforms
    return b"/" + (repr(part) if isinstance(part, float) else str(part)).encode()


def _stream_hash(seed: int, *path: object):
    """The sha256 of a stream name: domain, seed mod 2**64, then each path part."""
    h = hashlib.sha256(_DOMAIN)
    h.update((int(seed) % (1 << 64)).to_bytes(8, "little"))
    for part in path:
        h.update(_part_bytes(part))
    return h


def stream_seed_words(seed: int, *path: object) -> list[int]:
    """Hash (seed, path) into eight 32-bit words suitable for SeedSequence."""
    return [int(w) for w in np.frombuffer(_stream_hash(seed, *path).digest(), dtype=np.uint32)]


def stream_rng(seed: int, *path: object) -> np.random.Generator:
    """Return the generator for the named stream ``(seed, *path)``.

    Identical arguments always yield a generator producing identical draws;
    distinct paths yield independent streams.
    """
    entropy = stream_seed_words(seed, *path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


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


def simulate(sampler, reduce: Callable, path: Sequence, n: int, reps: int, seed: int) -> dict:
    """Simulate ``reps`` (n, d) datasets and reduce them to per-replication arrays.

    Replication r draws from the stream ``stream_rng(seed, *path, r)``.  The
    ``sampler`` (an ``EllipticalModel`` or a ``MixtureModel``) allocates a
    block's arrays with ``buffers(block, n)``; ``draw(rng, *rows)`` writes one
    replication's raw variates into its row of each, and ``finish(*buffers)``
    turns the block into C-contiguous (block, n, ``sampler.d``) data, which
    ``reduce`` maps to a dict of arrays over the block.  The result
    concatenates them per key in replication order.  Blocks hold at most
    :data:`SIMULATION_BLOCK_FLOATS` data entries and worker slices come from
    :func:`replication_slices`; as ``finish`` and ``reduce`` treat
    replications independently, neither changes a result.  With several
    workers, ``sampler`` and ``reduce`` must pickle (partials, not lambdas).

    ``draw`` gets one generator, reused with each replication's state: it
    must not keep it after it returns.
    """
    run = partial(_simulate_slice, sampler, reduce, tuple(path), n, seed)
    parts = [part for chunk in parallel_map(run, replication_slices(reps)) for part in chunk]
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def _simulate_slice(sampler, reduce, path, n, seed, reps: slice) -> list[dict]:
    block = max(1, SIMULATION_BLOCK_FLOATS // max(1, n * sampler.d))
    prefix = _stream_hash(seed, *path)
    # one generator serves the whole slice; its stream_rng state guards the derivation
    rng = stream_rng(seed, *path, reps.start)
    expected = rng.bit_generator.state
    parts = []
    # an empty slice (reps = 0) still reduces one empty batch, which fixes the keys
    for start in range(reps.start, max(reps.stop, reps.start + 1), block):
        stop = min(start + block, reps.stop)
        states = _stream_states(prefix, start, stop)
        if start == reps.start and states and states[0] != expected:
            raise RuntimeError(
                f"block stream derivation disagrees with stream_rng at {(seed, *path, start)}; "
                f"numpy {np.__version__} seeds its generators differently"
            )
        buffers = sampler.buffers(stop - start, n)
        for state, rows in zip(states, zip(*buffers)):
            rng.bit_generator.state = state
            sampler.draw(rng, *rows)
        parts.append(reduce(sampler.finish(*buffers)))
    return parts


# numpy's SeedSequence mixing (after O'Neill's seed_seq_fe) and PCG64 seeding,
# which stream_rng runs once per stream; _stream_states runs them for a block
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _stream_states(prefix, start: int, stop: int) -> list[dict]:
    """``stream_rng(seed, *path, r).bit_generator.state`` for r in start..stop-1.

    ``prefix`` is :func:`_stream_hash` of ``(seed, *path)``.
    """
    digests = []
    for r in range(start, stop):
        h = prefix.copy()
        h.update(_part_bytes(r))
        digests.append(h.digest())
    words = np.frombuffer(b"".join(digests), dtype=np.uint32).reshape(-1, 8)
    states = []
    for s0, s1, q0, q1 in _seed_sequence_state(words).tolist():
        inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
        state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
        states.append({
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        })
    return states


def _seed_sequence_state(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of (B, 8) uint32 words.

    numpy mixes word by word; hashmix's constants do not depend on the data,
    so each step below runs over every pool word it updates at once.
    """
    pool_size, n_words = _POOL_SIZE, words.shape[1]

    def hashmixer(init, mult, calls):
        # the k-th hashmix xors constant k, then multiplies by constant k + 1
        consts = [init]
        for _ in range(calls):
            consts.append(consts[-1] * mult & _MASK32)
        consts = np.array(consts, dtype=np.uint32)

        def hashmix(value, k):
            c = consts[k:k + value.shape[1] + 1]
            value = (value ^ c[:-1]) * c[1:]
            return value ^ (value >> _XSHIFT)

        return hashmix

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    # the entropy is 8 words, more than the pool, so the pool starts from its first words
    hashmix = hashmixer(_INIT_A, _MULT_A, pool_size * n_words)
    pool = hashmix(words[:, :pool_size], 0)
    k = pool_size
    # every pool word into every other one, in turn
    for src in range(pool_size):
        dst = [i for i in range(pool_size) if i != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, [src] * len(dst)], k))
        k += len(dst)
    # then each remaining entropy word into every pool word
    rest = hashmix(np.repeat(words[:, pool_size:], pool_size, axis=1), k)
    for src in range(n_words - pool_size):
        pool = mix(pool, rest[:, src * pool_size:(src + 1) * pool_size])

    # generate_state: 8 words read cyclically from the pool, paired into uint64
    out = hashmixer(_INIT_B, _MULT_B, 2 * pool_size)(np.tile(pool, 2), 0)
    return out.astype("<u4").view("<u8").astype(np.uint64)
