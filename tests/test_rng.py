import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fstest import rng as rng_module
from fstest.engine import power_table
from fstest.estimators import EstimatorKind
from fstest.robustness import finite_sample_efficiencies
from fstest.rng import (
    parallel_map,
    replication_slices,
    simulate,
    stream_rng,
    stream_seed_words,
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
        words = stream_seed_words(123, "a", 1.5, 7)
        assert len(words) == 8
        assert all(0 <= w < 2**32 for w in words)

    def test_float_path_uses_repr(self):
        # 0.1 and the string "0.1" must hash identically only via repr
        assert stream_seed_words(0, 0.1) == stream_seed_words(0, "0.1")
        assert stream_seed_words(0, 0.1) != stream_seed_words(0, 0.2)

    def test_large_seed_wraps(self):
        assert stream_seed_words(2**64 + 5, "s") == stream_seed_words(5, "s")


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
    def test_serial_matches_parallel(self):
        items = list(range(17))
        assert parallel_map(_square, items, workers=1) == parallel_map(
            _square, items, workers=3
        )

    def test_preserves_order(self):
        out = parallel_map(_square, [3, 1, 2], workers=2)
        assert out == [9, 1, 4]


class TestReplicationSlices:
    def test_single_worker_single_slice(self):
        assert replication_slices(10, workers=1) == [slice(0, 10)]

    def test_huge_thread_setting_is_capped(self, monkeypatch):
        # only slices are built here; no pool is started
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setenv("FSTEST_THREADS", str(10**6))
        assert replication_slices(10**6) == [slice(0, 500_000), slice(500_000, 10**6)]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            replication_slices(-1)

    @given(st.integers(0, 500), st.integers(1, 16))
    def test_partition(self, reps, workers):
        slices = replication_slices(reps, workers=workers)
        covered = []
        for s in slices:
            covered.extend(range(s.start, s.stop))
        assert covered == list(range(reps))
        assert len(slices) <= max(1, workers)


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


def _draws(n, rng):
    # an odd number of 32-bit draws leaves a spare half-word in the generator
    ints = rng.integers(0, 2**32, size=n, dtype=np.uint32)
    return np.column_stack([ints, rng.standard_normal(n)])


class _Draws:
    """A simulate sampler whose replication is ``_draws(n, rng)``."""

    d = 2

    def buffers(self, reps, n):
        return (np.empty((reps, n, self.d)),)

    def draw(self, rng, z):
        z[:] = _draws(len(z), rng)

    def finish(self, z):
        return z


DRAWS = _Draws()


def _keep(data):
    return {"data": data}


def _reference(seed, path, reps, n=3):
    return np.stack([_draws(n, stream_rng(seed, *path, r)) for r in reps])


class TestBlockStreams:
    """The block derivation inside simulate against stream_rng, the definition of a stream."""

    @pytest.mark.parametrize("seed, path", STREAM_NAMES)
    def test_states_equal_stream_rng(self, seed, path):
        states = rng_module._stream_states(rng_module._stream_hash(seed, *path), 0, 40)
        assert states == [stream_rng(seed, *path, r).bit_generator.state for r in range(40)]

    @pytest.mark.parametrize("seed, path", STREAM_NAMES)
    def test_simulate_draws_equal_stream_rng(self, seed, path):
        got = simulate(DRAWS, _keep, path, 3, 23, seed)["data"]
        assert np.array_equal(got, _reference(seed, path, range(23)))

    def test_slices_starting_mid_range_across_block_bounds(self, monkeypatch):
        # three replications per block; slices start on, before and after a block bound
        monkeypatch.setattr(rng_module, "SIMULATION_BLOCK_FLOATS", 3 * 3 * 2)
        seed, path = 11, ("power", "gaussian", repr(0.5))
        for start, stop in [(0, 10), (1, 2), (5, 12), (6, 13), (999, 1004)]:
            parts = rng_module._simulate_slice(DRAWS, _keep, path, 3, seed, slice(start, stop))
            assert len(parts) == -(-(stop - start) // 3)
            got = np.concatenate([part["data"] for part in parts])
            assert np.array_equal(got, _reference(seed, path, range(start, stop)))

    def test_two_workers_equal_stream_rng(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setenv("FSTEST_THREADS", "2")
        assert replication_slices(25)[1].start == 13
        got = simulate(DRAWS, _keep, ("calibration", "cauchy"), 3, 25, 5)["data"]
        assert np.array_equal(got, _reference(5, ("calibration", "cauchy"), range(25)))

    @pytest.mark.parametrize("constant", ["_MULT_A", "_INIT_B", "_MIX_MULT_R", "_PCG64_MULT"])
    def test_guard_raises_on_a_wrong_derivation(self, monkeypatch, constant):
        monkeypatch.setattr(rng_module, constant, getattr(rng_module, constant) ^ 1)
        with pytest.raises(RuntimeError, match="disagrees with stream_rng"):
            simulate(DRAWS, _keep, ("calibration", "gaussian"), 3, 5, 1)


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
