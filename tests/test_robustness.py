import math

import numpy as np
import pytest
from scipy import stats

from fstest import estimators as est
from fstest import rng as rng_module
from fstest.elliptical import standard_model
from fstest.engine import LimitLaw, StatKind
from fstest.estimators import EstimatorKind
from fstest.linalg import SpdMatrix
from fstest.rng import stream_rng
from fstest.robustness import (
    DEFAULT_MAGNITUDE_LADDER,
    SingularCovariance,
    _replicated_estimates,
    breakdown_experiment,
    empirical_limit_covariance,
    finite_sample_efficiencies,
    finite_sample_efficiency,
)


def trimmed_variance(family, d, gamma):
    return LimitLaw(StatKind.T1, family, d, gamma).scale


PLAIN_KINDS = (EstimatorKind.MEAN, EstimatorKind.CW_MEDIAN, EstimatorKind.HODGES_LEHMANN)


def bootstrap_stderrs(values, numerators, d, resamples, rng):
    """SE of each efficiency against the forward search by resampling replications."""
    reps = len(values[EstimatorKind.FORWARD_SEARCH])

    def log_det(v):
        return np.linalg.slogdet(np.cov(v, rowvar=False, bias=True))[1]

    draws = np.empty((resamples, len(numerators)))
    for b in range(resamples):
        idx = rng.integers(0, reps, size=reps)
        base = log_det(values[EstimatorKind.FORWARD_SEARCH][idx])
        draws[b] = [math.exp((log_det(values[k][idx]) - base) / d) for k in numerators]
    return draws.std(axis=0, ddof=1)


def breakdown_by_loop(gamma, n, d, seed, ladder=DEFAULT_MAGNITUDE_LADDER):
    """Deviations one sample at a time: each count contaminates its own copy, rung by rung."""
    rng = stream_rng(seed, "breakdown", repr(float(gamma)), n, d)
    clean = standard_model("gaussian", d).sample(n, rng)
    config = est.ForwardSearchConfig(np.zeros(d), SpdMatrix.identity(d), gamma)
    reference = est.forward_search(clean, config).value
    deviations = np.empty((n - 1, len(ladder)))
    for i, n_star in enumerate(range(1, n)):
        corrupted = clean.copy()
        for j, magnitude in enumerate(ladder):
            corrupted[:n_star] = magnitude
            shifted = est.forward_search(corrupted, config).value
            deviations[i, j] = float(np.linalg.norm(shifted - reference))
    return deviations


def breakdown_per_count(gamma, n, d, seed, ladder=DEFAULT_MAGNITUDE_LADDER):
    """(deviations, broke, break_fraction) from one forward-search batch per count,
    a replication per rung, and one np.linalg.norm per row."""
    rng = stream_rng(seed, "breakdown", repr(float(gamma)), n, d)
    clean = standard_model("gaussian", d).sample(n, rng)
    params = (np.zeros(d), SpdMatrix.identity(d), gamma)
    reference = est.batch_estimates(EstimatorKind.FORWARD_SEARCH, clean[None], *params)[0]
    deviations = np.empty((n - 1, len(ladder)))
    rungs = np.array(ladder, dtype=float)[:, None, None]
    corrupted = np.repeat(clean[None], len(rungs), axis=0)
    for i, n_star in enumerate(range(1, n)):
        corrupted[:, :n_star] = rungs
        shifted = est.batch_estimates(EstimatorKind.FORWARD_SEARCH, corrupted, *params)
        deviations[i] = [np.linalg.norm(row - reference) for row in shifted]
    a, b, c = deviations[:, -3:].T
    broke = tuple(bool(x) for x in (c > ladder[-1] / 100.0) & (a < b) & (b < c))
    fraction = next((k / n for k, flag in zip(range(1, n), broke) if flag), None)
    return deviations, broke, fraction


def same_sweep(result, expect):
    deviations, broke, fraction = expect
    return (
        np.array_equal(result.deviations.view(np.int64), deviations.view(np.int64))
        and result.broke == broke
        and result.break_fraction == fraction
    )


class TestBreakdown:
    @pytest.mark.parametrize("gamma, n, d, seed", [
        (0.5, 2, 1, 0), (1.0, 2, 1, 4), (1.0, 9, 3, 1), (0.3, 20, 4, 3), (0.7, 13, 2, 8), (0.01, 6, 5, 2),
    ])
    def test_deviations_match_one_sample_at_a_time(self, gamma, n, d, seed):
        got = breakdown_experiment(gamma, n=n, d=d, seed=seed).deviations
        expect = breakdown_by_loop(gamma, n, d, seed)
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))

    @pytest.mark.parametrize("gamma", [0.05, 0.3, 0.5, 0.7, 1.0])
    @pytest.mark.parametrize("n, d", [(20, 4), (7, 2), (30, 1), (12, 10)])
    def test_one_batch_equals_a_batch_per_count(self, gamma, n, d):
        for seed in range(3):
            result = breakdown_experiment(gamma, n=n, d=d, seed=seed)
            assert same_sweep(result, breakdown_per_count(gamma, n, d, seed)), seed

    def test_blocks_stay_within_the_simulation_cap(self, monkeypatch):
        n, d, cap = 20, 4, 7 * 20 * 4 + 5  # 7 replications a block, 190 in all
        blocks = []
        batch = est.batch_estimates

        def recording(kind, data, *args):
            blocks.append(data.shape)
            return batch(kind, data, *args)

        monkeypatch.setattr(rng_module, "SIMULATION_BLOCK_FLOATS", cap)
        monkeypatch.setattr(est, "batch_estimates", recording)
        result = breakdown_experiment(0.5, n=n, d=d, seed=3)
        sweep = blocks[1:]  # the first call is the clean sample's estimate
        assert len(sweep) >= 3
        assert all(reps * rows * dim <= cap for reps, rows, dim in sweep)
        assert sum(reps for reps, _, _ in sweep) == (n - 1) * len(DEFAULT_MAGNITUDE_LADDER)
        monkeypatch.setattr(est, "batch_estimates", batch)
        assert same_sweep(result, breakdown_per_count(0.5, n, d, 3))

    def test_one_replication_a_block_when_a_sample_exceeds_the_cap(self, monkeypatch):
        monkeypatch.setattr(rng_module, "SIMULATION_BLOCK_FLOATS", 1)
        result = breakdown_experiment(0.3, n=6, d=2, seed=4)
        assert same_sweep(result, breakdown_per_count(0.3, 6, 2, 4))

    def test_break_exactly_where_trimming_saturates(self):
        # with m = floor(n * gamma) kept, the sweep survives while the far
        # points can all be excluded: n - n_star >= m, so the first broken
        # count is n - m + 1
        for gamma in (0.3, 0.5, 0.7):
            result = breakdown_experiment(gamma, n=20, d=4, seed=3)
            m = max(1, math.floor(20 * gamma))
            first_broken = 20 - m + 1
            expected = [count >= first_broken for count in result.corrupted_counts]
            assert list(result.broke) == expected, gamma
            assert result.break_fraction == pytest.approx(first_broken / 20)

    def test_break_fraction_close_to_retention_complement(self):
        for gamma in (0.3, 0.5, 0.7):
            result = breakdown_experiment(gamma, n=20, d=4, seed=3)
            assert abs(result.break_fraction - (1 - gamma)) <= 1 / 20 + 1e-12

    def test_deterministic(self):
        a = breakdown_experiment(0.5, n=12, d=2, seed=9)
        b = breakdown_experiment(0.5, n=12, d=2, seed=9)
        assert a.to_json_dict() == b.to_json_dict()
        assert np.array_equal(a.deviations, b.deviations)

    def test_unbroken_counts_stay_bounded(self):
        result = breakdown_experiment(0.5, n=20, d=4, seed=3)
        safe = [i for i, b in enumerate(result.broke) if not b]
        # excluded contamination leaves the estimate within the clean spread
        assert result.deviations[safe, -1].max() < 10.0

    def test_broken_counts_track_magnitude(self):
        result = breakdown_experiment(0.5, n=20, d=4, seed=3)
        broken = [i for i, b in enumerate(result.broke) if b]
        top = result.magnitudes[-1]
        assert np.all(result.deviations[broken, -1] > top / 100)

    def test_fractions_and_json(self):
        result = breakdown_experiment(0.5, n=10, d=2, seed=1)
        assert result.fractions == tuple(c / 10 for c in range(1, 10))
        payload = result.to_json_dict()
        assert payload["n"] == 10
        assert len(payload["top_deviations"]) == 9

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            breakdown_experiment(0.5, n=10, magnitude_ladder=(1e3, 1e4))
        with pytest.raises(ValueError):
            breakdown_experiment(0.5, n=10, magnitude_ladder=(1e4, 1e3, 1e5))

    def test_default_ladder(self):
        assert DEFAULT_MAGNITUDE_LADDER[0] == 1e3
        assert DEFAULT_MAGNITUDE_LADDER[-1] == 1e12
        assert len(DEFAULT_MAGNITUDE_LADDER) == 10


class TestFiniteSampleEfficiency:
    def test_same_estimator_is_exactly_one(self):
        r = finite_sample_efficiency(
            EstimatorKind.MEAN, EstimatorKind.MEAN, n=30, d=2, reps=60, seed=4
        )
        assert r.value == 1.0

    def test_reversed_pair_is_reciprocal(self):
        args = dict(family="gaussian", n=40, d=3, reps=80, gamma=0.5, seed=11)
        ab = finite_sample_efficiency(EstimatorKind.MEAN, EstimatorKind.CW_MEDIAN, **args)
        ba = finite_sample_efficiency(EstimatorKind.CW_MEDIAN, EstimatorKind.MEAN, **args)
        assert ab.value == pytest.approx(1.0 / ba.value, rel=1e-12)

    def test_full_retention_matches_mean(self):
        r = finite_sample_efficiency(
            EstimatorKind.MEAN, EstimatorKind.FORWARD_SEARCH, n=25, d=2, reps=60, gamma=1.0, seed=2
        )
        assert r.value == 1.0

    def test_gaussian_mean_vs_trimmed_magnitude(self):
        # per-coordinate variances 1 vs 0.948 at gamma = 1/2 -> ratio ~ 1.054
        r = finite_sample_efficiency(
            EstimatorKind.MEAN, EstimatorKind.FORWARD_SEARCH, n=100, d=4, reps=1500, seed=8
        )
        assert r.value == pytest.approx(1.054, abs=0.06)

    def test_bootstrap_stderr(self):
        r = finite_sample_efficiency(
            EstimatorKind.MEAN, EstimatorKind.CW_MEDIAN, n=30, d=2, reps=100, seed=5
        )
        assert r.stderr > 0

    @pytest.mark.parametrize("family, n, d, reps, numerators", [
        ("gaussian", 100, 4, 200, PLAIN_KINDS),
        ("gaussian", 10, 50, 1000, PLAIN_KINDS),
        ("light100", 30, 10, 300, PLAIN_KINDS),
        # the cauchy mean's replications have no finite variance, so neither
        # its delta SE nor a bootstrap SE estimates anything; it is left out
        ("cauchy", 100, 4, 200, PLAIN_KINDS[1:]),
    ], ids=["gaussian-100-4", "gaussian-10-50", "light100-30-10", "cauchy-100-4"])
    def test_delta_stderr_matches_bootstrap(self, family, n, d, reps, numerators):
        results = finite_sample_efficiencies(numerators, family=family, n=n, d=d, reps=reps, seed=1)
        kinds = (*numerators, EstimatorKind.FORWARD_SEARCH)
        values = _replicated_estimates(family, n, d, 0.5, kinds, reps, 1)
        boot = bootstrap_stderrs(values, numerators, d, 1000, stream_rng(1, "efficiency-bootstrap", family, n))
        for result, expected in zip(results, boot):
            assert result.stderr == pytest.approx(expected, rel=0.15), result.numerator

    def test_deterministic(self):
        a = finite_sample_efficiency(EstimatorKind.HODGES_LEHMANN, n=20, d=2, reps=50, seed=3)
        b = finite_sample_efficiency(EstimatorKind.HODGES_LEHMANN, n=20, d=2, reps=50, seed=3)
        assert a == b

    def test_replications_follow_documented_stream_path(self):
        # the 10 replications form stream block 0 and draw at once from
        # ("efficiency", family, n, "block", 0)
        kinds = (EstimatorKind.FORWARD_SEARCH, EstimatorKind.HODGES_LEHMANN)
        model = standard_model("light100", 3)
        data = model.sample(10 * 15, stream_rng(6, "efficiency", "light100", 15, "block", 0)).reshape(10, 15, 3)
        values = _replicated_estimates("light100", 15, 3, 0.5, kinds, 10, 6)
        for kind in kinds:
            expected = est.batch_estimates(kind, data, np.zeros(3), SpdMatrix.identity(3), 0.5)
            assert np.array_equal(values[kind], expected)

    def test_degenerate_covariance_raises(self):
        with pytest.raises(SingularCovariance):
            finite_sample_efficiency(EstimatorKind.MEAN, n=20, d=4, reps=3, seed=1)


class TestLimitCovariance:
    def test_oracle_values(self):
        assert trimmed_variance("gaussian", 2, 0.5) == pytest.approx(
            0.613705639, rel=1e-8
        )
        assert trimmed_variance("gaussian", 4, 0.5) == pytest.approx(
            0.948288392, rel=1e-8
        )
        assert trimmed_variance("cauchy", 4, 0.5) == pytest.approx(
            1.340022395, rel=1e-8
        )

    def test_oracle_full_retention_gaussian_is_unit(self):
        assert trimmed_variance("gaussian", 3, 1.0) == pytest.approx(1.0, rel=1e-9)

    def test_gaussian_chi2_truncation_identity(self):
        # E[X_1^2 1{chi2_d <= q}] / gamma^2 via the chi2_{d+2} cdf
        d, gamma = 4, 0.5
        q = stats.chi2.ppf(gamma, d)
        expect = stats.chi2.cdf(q, d + 2) / gamma**2
        assert trimmed_variance("gaussian", d, gamma) == pytest.approx(expect, rel=1e-9)

    def test_full_retention_recovers_identity(self):
        cov = empirical_limit_covariance("gaussian", 1.0, n=300, d=2, reps=4000, seed=6)
        se_diag = 3 * math.sqrt(2 / 4000)
        se_off = 3 * math.sqrt(1 / 4000)
        assert abs(cov.entries[0, 0] - 1.0) < se_diag
        assert abs(cov.entries[1, 1] - 1.0) < se_diag
        assert abs(cov.entries[0, 1]) < se_off

    def test_trimmed_covariance_matches_moment_oracle(self):
        cov = empirical_limit_covariance("gaussian", 0.5, n=400, d=2, reps=4000, seed=6)
        oracle = trimmed_variance("gaussian", 2, 0.5)
        assert np.allclose(np.diag(cov.entries), oracle, atol=0.05)
        assert abs(cov.entries[0, 1]) < 0.05
