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
    stream_rng,
    stream_seed_words,
    worker_count,
)


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
        with pytest.raises(ValueError):
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
                tuple(EstimatorKind), family="gaussian", n=12, d=3, reps=30, seed=3, bootstrap=4
            )
            return table, effs

        whole = campaigns()
        # one replication per block
        monkeypatch.setattr(rng_module, "SIMULATION_BLOCK_FLOATS", 1)
        assert campaigns() == whole
