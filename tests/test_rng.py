import sys
import threading

import numpy as np
import pytest

import oracles
from fstest import estimators
from fstest import rng as rng_module
from fstest.engine import power_table
from fstest.estimators import EstimatorKind
from fstest.robustness import finite_sample_efficiencies
from fstest.rng import (
    parallel_map,
    simulate,
    stream_rng,
    ThreadCountError,
    worker_count,
)

# (seed, path) pairs: str, int and float parts, seed 0, negative seeds, seeds >= 2**64
STREAM_NAMES = [
    (0, ()),
    (1, ("calibration", "gaussian")),
    (-1, ("power", "cauchy", repr(0.2))),
    (-(2**70) - 3, ("power", "light100", 0.1)),
    (2**64, ("efficiency", "gaussian", 100)),
    (2**64 + 7, ("offsets", 3, -2.5e-300, "")),
]


class TestStreams:
    def test_same_path_same_draws(self):
        a = stream_rng(7, "power", "cauchy", 0.3, 12).standard_normal(5)
        b = stream_rng(7, "power", "cauchy", 0.3, 12).standard_normal(5)
        assert np.array_equal(a, b)

    def test_different_rep_differs(self):
        a = stream_rng(7, "power", 0).standard_normal(5)
        b = stream_rng(7, "power", 1).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = stream_rng(1, "x").standard_normal(5)
        b = stream_rng(2, "x").standard_normal(5)
        assert not np.array_equal(a, b)

    def test_words_shape_and_range(self):
        words = oracles.stream_seed_words(123, "a", 1.5, 7)
        assert len(words) == 8
        assert all(0 <= w < 2**32 for w in words)

    @pytest.mark.parametrize("seed, path", STREAM_NAMES)
    def test_state_equals_seeding_from_the_word_list(self, seed, path):
        # stream_rng passes the words as one uint32 array; their list is the oracle
        want = np.random.default_rng(np.random.SeedSequence(oracles.stream_seed_words(seed, *path)))
        assert stream_rng(seed, *path).bit_generator.state == want.bit_generator.state

    def test_float_path_uses_repr(self):
        # 0.1 and the string "0.1" must hash identically only via repr
        assert oracles.stream_seed_words(0, 0.1) == oracles.stream_seed_words(0, "0.1")
        assert oracles.stream_seed_words(0, 0.1) != oracles.stream_seed_words(0, 0.2)

    def test_numpy_float_path_hashes_as_python_float(self):
        # repr(np.float64(0.5)) is 'np.float64(0.5)' under numpy 2 and '0.5' under numpy 1
        assert oracles.stream_seed_words(1, np.float64(0.5)) == oracles.stream_seed_words(1, 0.5)

    def test_large_seed_wraps(self):
        assert oracles.stream_seed_words(2**64 + 5, "s") == oracles.stream_seed_words(5, "s")


class TestWorkerCount:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("FSTEST_THREADS", raising=False)
        assert worker_count() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        monkeypatch.setenv("FSTEST_THREADS", "4")
        assert worker_count() == 4

    @pytest.mark.parametrize("cpus", [1, 3, None])
    def test_capped_at_cpu_count(self, monkeypatch, cpus):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        monkeypatch.setenv("FSTEST_THREADS", str(10**6))
        assert worker_count() == (cpus or 1)

    def test_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("FSTEST_THREADS", "0")
        assert worker_count() == 1

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("FSTEST_THREADS", "many")
        with pytest.raises(ThreadCountError, match="got 'many'"):
            worker_count()


def _square(x):
    return x * x


class TestParallelMap:
    def test_serial_matches_parallel(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        items = list(range(17))
        results = []
        for threads in ("1", "3"):
            monkeypatch.setenv("FSTEST_THREADS", threads)
            results.append(parallel_map(_square, items))
        assert results[0] == results[1] == [x * x for x in items]

    def test_preserves_order(self, monkeypatch):
        # a lambda: items run on threads of this process, so nothing is pickled
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setenv("FSTEST_THREADS", "2")
        assert parallel_map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_items_run_on_that_many_threads_at_once(self, monkeypatch):
        # the barrier opens only when three calls wait at it together
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        monkeypatch.setenv("FSTEST_THREADS", "3")
        barrier = threading.Barrier(3, timeout=30)
        assert parallel_map(lambda x: (barrier.wait(), x)[1], [0, 1, 2]) == [0, 1, 2]


class TestSimulate:
    def test_block_bound_changes_no_result(self, monkeypatch):
        def campaigns():
            table = power_table(["cauchy"], [0.0, 0.5], n=30, reps=25, null_reps=40, seed=3)
            effs = finite_sample_efficiencies(
                tuple(EstimatorKind), family="gaussian", n=12, d=3, reps=30, seed=3
            )
            return table, effs

        whole = campaigns()
        # one replication per block
        monkeypatch.setattr(rng_module, "SIMULATION_BLOCK_FLOATS", 1)
        assert campaigns() == whole

    def test_threads_switching_fast_equal_serial(self, monkeypatch):
        # more threads than cores, a switch every microsecond, and the band caches built while they run
        def table():
            estimators._hl_small_band_sums.cache_clear()
            estimators._hl_large_band_sums.cache_clear()
            return power_table(["cauchy"], [0.0, 0.5], n=30, reps=400, null_reps=400, seed=3)

        serial = table()
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        monkeypatch.setenv("FSTEST_THREADS", "4")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = table()
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


def _draws(shape, rng):
    # an odd number of 32-bit draws leaves a spare half-word in the generator
    ints = rng.integers(0, 2**32, size=shape, dtype=np.uint32)
    return np.stack([ints, rng.standard_normal(shape)], axis=-1)


class _Draws:
    """A simulate sampler whose stream block of c replications is ``_draws((c, n), rng)``."""

    d = 2

    def buffers(self, reps, n):
        return (np.empty((reps, n, self.d)),)

    def draw(self, rng, z):
        z[:] = _draws(z.shape[:2], rng)

    def finish(self, z):
        return z


DRAWS = _Draws()


def _keep(data):
    return {"data": data}


def _reference(seed, path, reps, n=3, block=64):
    """Replications 0..reps-1: stream block k draws its rows from (seed, *path, "block", k)."""
    return np.concatenate([
        _draws((min(block, reps - first), n), stream_rng(seed, *path, "block", first // block))
        for first in range(0, reps, block)
    ])


class TestBlockStreams:
    """simulate's stream blocks against stream_rng, the definition of a stream."""

    @pytest.mark.parametrize("seed, path", STREAM_NAMES)
    def test_simulate_draws_equal_stream_rng(self, seed, path):
        got = simulate(DRAWS, _keep, path, 3, 150, seed)["data"]
        assert np.array_equal(got, _reference(seed, path, 150))

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    @pytest.mark.parametrize("blocks_per_batch", [1, 2, 5, None])
    def test_batches_cover_every_block_once_in_order(self, monkeypatch, threads, blocks_per_batch):
        # the memory cap (in stream blocks of 64 x 3 x 2 floats) or the thread count bounds a batch
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        monkeypatch.setenv("FSTEST_THREADS", threads)
        if blocks_per_batch is not None:
            monkeypatch.setattr(rng_module, "SIMULATION_BLOCK_FLOATS", blocks_per_batch * 64 * 3 * 2)
        starts = []

        def spy(fn, items):
            starts.append(list(items))
            return parallel_map(fn, items)

        monkeypatch.setattr(rng_module, "parallel_map", spy)
        seed, path = 11, ("power", "gaussian", repr(0.5))
        for reps in (1, 64, 65, 300, 641):
            got = simulate(DRAWS, _keep, path, 3, reps, seed)["data"]
            assert np.array_equal(got, _reference(seed, path, reps)), reps
            blocks = -(-reps // 64)
            per_batch = min(blocks_per_batch or blocks, -(-blocks // int(threads)))
            assert starts[-1] == list(range(0, reps, 64 * per_batch)), reps

    def test_two_workers_equal_stream_rng(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setenv("FSTEST_THREADS", "2")
        got = simulate(DRAWS, _keep, ("calibration", "cauchy"), 3, 150, 5)["data"]
        assert np.array_equal(got, _reference(5, ("calibration", "cauchy"), 150))

    def test_one_stream_per_block(self, monkeypatch):
        calls = []

        def spy(seed, *path):
            calls.append(path)
            return stream_rng(seed, *path)

        monkeypatch.setattr(rng_module, "stream_rng", spy)
        simulate(DRAWS, _keep, ("calibration", "gaussian"), 3, 2000, 1)
        assert calls == [("calibration", "gaussian", "block", k) for k in range(32)]

    def test_stream_block_depends_on_n_and_d_alone(self, monkeypatch):
        monkeypatch.setattr(rng_module, "SIMULATION_BLOCK_FLOATS", 1)
        block = rng_module._stream_block
        assert block(100, 4) == block(1, 1) == 64
        assert block(1024, 32) == 32
        # a block shrinks to one replication at n * d = 10**6; nothing that large is drawn
        assert block(1000, 1000) == block(10**6, 1) == 1
        assert block(0, 4) == 64


class TestNumpyDrawEquivalences:
    """The samplers draw chi-squared and gamma variates as standard_gamma into
    block buffers; these identities of numpy's make that bit for bit the
    chisquare and gamma calls of one replication.  A numpy release that breaks
    one fails here first."""

    SIZES = [1, 7, 400, (50, 4)]

    @staticmethod
    def pair(seed):
        return np.random.default_rng(seed), np.random.default_rng(seed)

    @staticmethod
    def assert_same(a, b, want, got):
        assert np.array_equal(want.view(np.int64), got.view(np.int64))
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 3])
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("df", [1, 4, 7.5])
    def test_chisquare_is_twice_standard_gamma(self, seed, size, df):
        a, b = self.pair(seed)
        want = a.chisquare(df, size)
        got = np.empty(size)
        b.standard_gamma(df / 2, out=got)
        self.assert_same(a, b, want, 2.0 * got)

    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 3])
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("shape", [4 / 200, 100 / 200, 3.0])
    def test_gamma_is_standard_gamma(self, seed, size, shape):
        a, b = self.pair(seed)
        want = a.gamma(shape, size=size)
        got = np.empty(size)
        b.standard_gamma(shape, out=got)
        self.assert_same(a, b, want, got)

    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 3])
    @pytest.mark.parametrize("size", SIZES)
    def test_standard_normal_into_a_buffer(self, seed, size):
        a, b = self.pair(seed)
        want = a.standard_normal(size)
        got = np.empty(size)
        b.standard_normal(out=got)
        self.assert_same(a, b, want, got)
