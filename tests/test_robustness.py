import math

import numpy as np
import pytest
from scipy import stats

from fstest import estimators as est
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
    finite_sample_efficiency,
)


def trimmed_variance(family, d, gamma):
    return LimitLaw(StatKind.T1, family, d, gamma).scale


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


class TestBreakdown:
    @pytest.mark.parametrize("gamma, n, d, seed", [
        (0.5, 2, 1, 0), (1.0, 2, 1, 4), (1.0, 9, 3, 1), (0.3, 20, 4, 3), (0.7, 13, 2, 8), (0.01, 6, 5, 2),
    ])
    def test_deviations_match_one_sample_at_a_time(self, gamma, n, d, seed):
        got = breakdown_experiment(gamma, n=n, d=d, seed=seed).deviations
        expect = breakdown_by_loop(gamma, n, d, seed)
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))

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
            EstimatorKind.MEAN, EstimatorKind.CW_MEDIAN, n=30, d=2, reps=100, seed=5, bootstrap=60
        )
        assert r.stderr is not None and r.stderr > 0
        no_boot = finite_sample_efficiency(
            EstimatorKind.MEAN, EstimatorKind.CW_MEDIAN, n=30, d=2, reps=100, seed=5
        )
        assert no_boot.stderr is None
        assert no_boot.value == r.value

    @pytest.mark.parametrize("bootstrap", (1, -1))
    def test_bootstrap_needs_two_draws_or_none(self, bootstrap):
        with pytest.raises(ValueError):
            finite_sample_efficiency(EstimatorKind.MEAN, n=20, d=2, reps=50, seed=3, bootstrap=bootstrap)

    def test_deterministic(self):
        a = finite_sample_efficiency(EstimatorKind.HODGES_LEHMANN, n=20, d=2, reps=50, seed=3)
        b = finite_sample_efficiency(EstimatorKind.HODGES_LEHMANN, n=20, d=2, reps=50, seed=3)
        assert a == b

    def test_replications_follow_documented_stream_path(self):
        # replication r draws from ("efficiency", family, n, r)
        kinds = (EstimatorKind.FORWARD_SEARCH, EstimatorKind.HODGES_LEHMANN)
        model = standard_model("light100", 3)
        data = np.stack([model.sample(15, stream_rng(6, "efficiency", "light100", 15, r)) for r in range(10)])
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
