import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fstest import engine
from fstest.elliptical import (
    EllipticalModel,
    MixtureModel,
    generator_by_name,
    sample_mixture,
    standard_model,
)
from fstest.engine import (
    ALL_KINDS,
    InfiniteVariance,
    LimitLaw,
    LimitSpec,
    StatKind,
    batch_statistics,
    bootstrap_report,
    critical_value,
    empirical_critical_value,
    limit_weights,
    power_table,
    run_test,
    scatter_scale_constant,
    statistic,
    weighted_chisq_sample,
)
from fstest.estimators import ForwardSearchConfig
from fstest.linalg import SpdMatrix
from fstest.rng import stream_rng


class TestStatistic:
    def test_mean_statistic_by_hand(self):
        data = np.array([[1.0, 0.0], [3.0, 0.0]])
        # mean (2, 0), n = 2 -> 2 * 4 = 8
        assert statistic(StatKind.T2, data, np.zeros(2)) == pytest.approx(8.0)

    def test_median_statistic_by_hand(self):
        data = np.array([[0.0], [1.0], [5.0]])
        assert statistic(StatKind.T3, data, np.array([0.0])) == pytest.approx(3.0)

    def test_trimmed_equals_mean_at_full_retention(self, gauss_data):
        data = gauss_data(n=30, d=3)
        config = ForwardSearchConfig(np.zeros(3), SpdMatrix.identity(3), 1.0)
        t1 = statistic(StatKind.T1, data, np.zeros(3), config)
        t2 = statistic(StatKind.T2, data, np.zeros(3))
        assert t1 == pytest.approx(t2, rel=1e-12)

    def test_accepts_string_kind(self, gauss_data):
        data = gauss_data()
        assert statistic("t2", data, np.zeros(3)) == statistic(StatKind.T2, data, np.zeros(3))

    def test_batch_matches_loop(self, rng):
        data = rng.standard_normal((6, 40, 2))
        sigma = SpdMatrix.identity(2)
        got = batch_statistics(data, np.zeros(2), sigma, 0.5)
        config = ForwardSearchConfig(np.zeros(2), sigma, 0.5)
        for kind in ALL_KINDS:
            expect = [statistic(kind, data[r], np.zeros(2), config) for r in range(6)]
            assert np.allclose(got[kind], expect, rtol=1e-12)

    def test_rotation_invariance_identity_scatter(self, rng):
        data = rng.standard_normal((50, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        config = ForwardSearchConfig(np.zeros(3), SpdMatrix.identity(3), 0.5)
        base = statistic(StatKind.T1, data, np.zeros(3), config)
        rotated = statistic(StatKind.T1, data @ q.T, np.zeros(3), config)
        assert rotated == pytest.approx(base, rel=1e-9)


def limit_scale(kind, family, d=4, gamma=0.5):
    return LimitLaw(kind, family, d, gamma).scale


class TestVarianceConstants:
    def test_gaussian_d4(self):
        c1 = scatter_scale_constant("gaussian", 4, 0.5)
        assert c1 == pytest.approx(78.95683520871486, rel=1e-12)
        assert c1 == pytest.approx((2 * math.pi) ** 2 / 0.5, rel=1e-12)
        assert limit_scale(StatKind.T2, "gaussian") == pytest.approx(1.0, rel=1e-10)
        assert limit_scale(StatKind.T3, "gaussian") == pytest.approx(math.pi / 2, rel=1e-10)
        assert limit_scale(StatKind.T4, "gaussian") == pytest.approx(math.pi / 3, rel=1e-10)

    def test_cauchy_d4(self):
        assert scatter_scale_constant("cauchy", 4, 0.5) == math.inf
        assert limit_scale(StatKind.T2, "cauchy") == math.inf
        assert limit_scale(StatKind.T3, "cauchy") == pytest.approx(math.pi**2 / 4, rel=1e-10)
        assert limit_scale(StatKind.T4, "cauchy") == pytest.approx(math.pi**2 / 3, rel=1e-10)

    def test_light_tail_d4(self):
        assert limit_scale(StatKind.T3, "light100") == pytest.approx(0.345079299, rel=1e-8)
        assert limit_scale(StatKind.T4, "light100") == pytest.approx(0.191000810, rel=1e-8)

    def test_scalar_lookup(self):
        # the t1 scale is the trimmed variance P(chi2_{d+2} <= q) / gamma^2, not c1
        q = stats.chi2.ppf(0.5, 4)
        assert limit_scale(StatKind.T1, "gaussian") == pytest.approx(
            stats.chi2.cdf(q, 6) / 0.25, rel=1e-9
        )
        assert limit_scale("t4", "gaussian") == limit_scale(StatKind.T4, "gaussian")

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            LimitLaw(StatKind.T1, "unknown-family", 4)
        with pytest.raises(ValueError):
            LimitLaw(StatKind.T1, "gaussian", 0)
        with pytest.raises(ValueError):
            LimitLaw(StatKind.T1, "gaussian", 4, gamma=0.0)

    def test_c1_scales_inversely_with_gamma(self):
        half = scatter_scale_constant("gaussian", 4, 0.5)
        full = scatter_scale_constant("gaussian", 4, 1.0)
        assert half == pytest.approx(2 * full, rel=1e-12)


class TestLimitSpec:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            LimitSpec.central(np.array([1.0, 0.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(Exception):
            LimitSpec(np.ones(3), np.zeros(2))

    def test_central_offsets_zero(self):
        spec = LimitSpec.central(np.array([2.0, 1.0]))
        assert np.array_equal(spec.offsets, np.zeros(2))

    def test_limit_weights_identity_scatter(self):
        spec = limit_weights(StatKind.T2, standard_model("gaussian", 3), 0.5)
        assert np.allclose(spec.weights, np.ones(3))

    def test_limit_weights_scale_with_scatter(self):
        model_scaled = standard_model("gaussian", 2).with_location(np.zeros(2))
        spec1 = limit_weights(StatKind.T3, model_scaled, 0.5)
        assert np.allclose(spec1.weights, math.pi / 2 * np.ones(2))

    def test_cauchy_mean_is_infinite_variance(self):
        with pytest.raises(InfiniteVariance):
            limit_weights(StatKind.T2, standard_model("cauchy", 4), 0.5)

    def test_cauchy_trimmed_limit_diverges(self):
        # finite for gamma < 1 (the trim keeps only the inner half), the mean's
        # divergent variance at gamma = 1
        spec = limit_weights(StatKind.T1, standard_model("cauchy", 4), 0.5)
        assert np.array_equal(spec.weights, np.full(4, LimitLaw(StatKind.T1, "cauchy", 4, 0.5).scale))
        with pytest.raises(InfiniteVariance):
            limit_weights(StatKind.T1, standard_model("cauchy", 4), 1.0)


class TestCriticalValues:
    def test_unit_weights_match_chi2(self):
        for d in (1, 2, 5):
            spec = LimitSpec.central(np.ones(d))
            q = critical_value(spec, 0.05, mc_samples=200_000, seed=11)
            ref = stats.chi2.ppf(0.95, d)
            assert abs(q.value - ref) < 4 * q.stderr
            assert q.stderr > 0

    def test_weighted_sample_mean(self):
        spec = LimitSpec(np.array([2.0, 3.0]), np.array([1.0, 0.0]))
        draws = weighted_chisq_sample(spec, 400_000, np.random.default_rng(1))
        # E = sum w_i (1 + a_i^2) = 2*2 + 3*1 = 7
        assert draws.mean() == pytest.approx(7.0, abs=0.05)

    @pytest.mark.parametrize("offsets", [(0.0, 0.0, 0.0), (1.5, -0.25, 3e-8)])
    def test_weighted_sample_is_squared_shift_dot_weights(self, offsets):
        spec = LimitSpec(np.array([0.7, 2.0, 1.3]), np.array(offsets))
        draws = weighted_chisq_sample(spec, 5000, np.random.default_rng(2))
        z = np.random.default_rng(2).standard_normal((5000, 3))
        expect = (z + spec.offsets) ** 2 @ spec.weights
        assert np.array_equal(draws.view(np.int64), expect.view(np.int64))

    @pytest.mark.parametrize("size, level", [(200_000, 0.95), (1001, 0.9), (100, 0.5)])
    def test_quantile_with_se_matches_unsorted_formula(self, size, level, rng):
        # ties (rounded draws) included: the value is np.quantile of the unsorted
        # draws, the SE the density from an order-statistic spacing
        for draws in (rng.chisquare(3, size), np.round(rng.chisquare(3, size))):
            got = engine._quantile_with_se(draws, level)
            srt = np.sort(draws)
            k, h = int(level * (size - 1)), max(1, int(math.sqrt(size)))
            lo, hi = max(0, k - h), min(size - 1, k + h)
            spacing = srt[hi] - srt[lo]
            se = 0.0
            if spacing > 0:
                se = math.sqrt(level * (1.0 - level) / size) / ((hi - lo) / (size * spacing))
            assert got.value == float(np.quantile(draws, level))
            assert got.stderr == se
            assert got.n_samples == size

    def test_reproducible(self):
        spec = LimitSpec.central(np.ones(3))
        a = critical_value(spec, 0.1, mc_samples=10_000, seed=3)
        b = critical_value(spec, 0.1, mc_samples=10_000, seed=3)
        assert a == b

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            critical_value(LimitSpec.central(np.ones(2)), 0.05, mc_samples=50)

    def test_empirical_reproducible_and_positive(self):
        args = (StatKind.T1, "gaussian", np.zeros(3), SpdMatrix.identity(3), 50, 0.5, 0.05, 400, 9)
        a = empirical_critical_value(*args)
        b = empirical_critical_value(*args)
        assert a == b
        assert a.value > 0

    def test_empirical_follows_calibration_stream_path(self):
        # replication r of the null simulation draws from ("calibration", family, r)
        mu = np.array([1.0, -1.0])
        sigma = SpdMatrix([[2.0, 0.3], [0.3, 1.0]])
        model = EllipticalModel(generator_by_name("cauchy"), 2, mu, sigma)
        data = np.stack([model.sample(30, stream_rng(4, "calibration", "cauchy", r)) for r in range(60)])
        stats = batch_statistics(data, mu, sigma, 0.5, (StatKind.T1,))[StatKind.T1]
        q = empirical_critical_value(StatKind.T1, "cauchy", mu, sigma, 30, 0.5, 0.1, 60, 4)
        assert q.value == float(np.quantile(stats, 0.9))

    def test_empirical_tracks_trimmed_variance(self):
        # null 95% point of the trimmed statistic ~ (trimmed variance) * chi2
        q = empirical_critical_value(
            StatKind.T1, "gaussian", np.zeros(4), SpdMatrix.identity(4), 400, 0.5, 0.05, 3000, 5
        )
        ref = limit_scale(StatKind.T1, "gaussian") * stats.chi2.ppf(0.95, 4)
        assert q.value == pytest.approx(ref, rel=0.12)

    @pytest.mark.parametrize("family", ["gaussian", "cauchy", "light100"])
    def test_formula_matches_empirical_t1(self, family):
        # both calibrations of the trimmed statistic estimate one quantile
        d, n = 4, 2000
        formula = critical_value(limit_weights(StatKind.T1, standard_model(family, d), 0.5), 0.05)
        empirical = empirical_critical_value(
            StatKind.T1, family, np.zeros(d), SpdMatrix.identity(d), n, 0.5, 0.05, 2000, 0
        )
        assert abs(formula.value - empirical.value) <= 3 * empirical.stderr


class TestRunTest:
    def test_null_data_usually_retained(self, rng):
        data = rng.standard_normal((100, 3))
        report = run_test(
            StatKind.T1, data, np.zeros(3), null_reps=500, seed=2
        )
        assert report.decision in ("reject", "retain")
        assert (report.value > report.critical_value) == (report.decision == "reject")

    def test_shifted_data_rejected(self, rng):
        data = rng.standard_normal((100, 3)) + 2.0
        for calibration in ("formula", "empirical"):
            report = run_test(
                StatKind.T2,
                data,
                np.zeros(3),
                calibration=calibration,
                mc_samples=20_000,
                null_reps=500,
                seed=2,
            )
            assert report.decision == "reject"

    def test_decision_monotone_in_alpha(self, rng):
        data = rng.standard_normal((60, 2)) + 0.25
        rejected = []
        for alpha in (0.01, 0.05, 0.2, 0.5):
            report = run_test(
                StatKind.T2,
                data,
                np.zeros(2),
                alpha=alpha,
                calibration="formula",
                mc_samples=50_000,
                seed=4,
            )
            rejected.append(report.decision == "reject")
        # once rejected at a small level, larger levels must also reject
        assert rejected == sorted(rejected)

    def test_unknown_calibration(self, rng):
        with pytest.raises(ValueError):
            run_test(StatKind.T2, rng.standard_normal((20, 2)), np.zeros(2), calibration="exact")

    def test_report_json_shape(self, rng):
        report = run_test(
            StatKind.T3,
            rng.standard_normal((40, 2)),
            np.zeros(2),
            null_reps=300,
            seed=8,
        )
        payload = report.to_json_dict()
        assert payload["schema"] == "fstest/1"
        assert payload["statistic"] == "t3"
        assert set(payload) >= {"value", "critical_value", "alpha", "decision", "p_value"}


class TestPowerCampaign:
    def test_rates_are_probabilities_and_deterministic(self):
        kwargs = dict(reps=40, null_reps=200, seed=21)
        a = power_table(["gaussian"], [0.0, 0.4], **kwargs)
        b = power_table(["gaussian"], [0.0, 0.4], **kwargs)
        assert a == b
        for kind in ALL_KINDS:
            for beta, rate in a["gaussian"][kind].items():
                assert 0.0 <= rate <= 1.0

    def test_strong_contamination_always_detected(self):
        t = power_table(["gaussian"], [0.9], kinds=(StatKind.T2,), reps=30, null_reps=200, seed=6)
        assert t["gaussian"][StatKind.T2][0.9] == 1.0

    def test_single_kind_table_slices_full_table(self):
        single = power_table(
            ["gaussian"], [0.0, 0.8], kinds=(StatKind.T3,), reps=30, null_reps=200, seed=13
        )
        full = power_table(["gaussian"], [0.0, 0.8], reps=30, null_reps=200, seed=13)
        assert single["gaussian"] == {StatKind.T3: full["gaussian"][StatKind.T3]}

    def test_follows_documented_stream_paths(self):
        # null replication r draws from ("calibration", family, r), mixture
        # replication r at beta from ("power", family, repr(beta), r)
        d, n, reps, null_reps, seed = 2, 20, 40, 60, 17
        mu0, sigma = np.zeros(d), SpdMatrix.identity(d)
        null = standard_model("gaussian", d)
        shifted = EllipticalModel(generator_by_name("gaussian"), d, np.full(d, 0.5), sigma)

        def statistics(sample, *path, count):
            data = np.stack([sample(n, stream_rng(seed, *path, r)) for r in range(count)])
            return batch_statistics(data, mu0, sigma, 0.5)

        null_stats = statistics(null.sample, "calibration", "gaussian", count=null_reps)
        expected = {k: {} for k in ALL_KINDS}
        for beta in (0.3, 0.7):
            sample = partial(sample_mixture, MixtureModel(beta, null, shifted))
            stats = statistics(sample, "power", "gaussian", repr(beta), count=reps)
            for k in ALL_KINDS:
                crit = float(np.quantile(null_stats[k], 0.95))
                expected[k][beta] = float(np.mean(stats[k] > crit))
        table = power_table(
            ["gaussian"], [0.3, 0.7], d=d, n=n, reps=reps, shift_scale=0.5,
            null_reps=null_reps, seed=seed,
        )
        assert table == {"gaussian": expected}

    @pytest.mark.parametrize("family", ("gaussian", "cauchy", "light100"))
    def test_consistency_in_sample_size(self, family):
        """Against the fixed shift 5*1 the trimmed test detects with
        probability approaching one as n grows, in every family."""
        rates = []
        for n in (50, 100, 200, 400):
            table = power_table(
                [family],
                [1.0],  # every observation from the shifted component
                kinds=(StatKind.T1,),
                n=n,
                reps=150,
                null_reps=600,
                seed=30,
            )
            rates.append(table[family][StatKind.T1][1.0])
        noise = 2 * math.sqrt(0.25 / 150)
        assert all(b >= a - noise for a, b in zip(rates, rates[1:])), rates
        assert rates[-1] >= 0.99, rates


class TestBootstrap:
    def test_p_value_reproducible_in_unit_interval(self, rng):
        data = rng.standard_normal((50, 2))
        p1 = bootstrap_report(StatKind.T4, data, np.zeros(2), SpdMatrix.identity(2), j=500, seed=3).p_value
        p2 = bootstrap_report(StatKind.T4, data, np.zeros(2), SpdMatrix.identity(2), j=500, seed=3).p_value
        assert p1 == p2
        assert 0.0 <= p1 <= 1.0

    def test_constant_data_at_mu0_gives_zero(self):
        # t0 = 0 and every resample statistic is 0; strict inequality -> p = 0
        data = np.full((30, 2), 1.5)
        p = bootstrap_report(StatKind.T2, data, np.full(2, 1.5), SpdMatrix.identity(2), j=200, seed=1).p_value
        assert p == 0.0

    def test_null_p_values_spread_over_unit_interval(self):
        # resampling without recentering: under H0 the p-value is rarely small
        hits = 0
        for seed in range(50):
            data = np.random.default_rng(seed).standard_normal((200, 2))
            p = bootstrap_report(
                StatKind.T2, data, np.zeros(2), SpdMatrix.identity(2), j=2000, seed=seed
            ).p_value
            if p > 0.05:
                hits += 1
        assert hits >= 45

    def test_blocked_draws_equal_one_draw(self, rng):
        # j = 1201 at n = 1000, d = 4 spans three resample blocks of 500
        data = rng.standard_normal((1000, 4))
        mu0, sigma = np.full(4, 0.05), SpdMatrix.identity(4)
        idx = stream_rng(8, "bootstrap", "t2").integers(0, 1000, size=(1201, 1000))
        stats = batch_statistics(data[idx], mu0, sigma, 0.5, (StatKind.T2,))[StatKind.T2]
        t0 = statistic(StatKind.T2, data, mu0)
        expected = (float(np.mean(stats > t0)), float(np.quantile(stats, 0.95)), t0)
        report = bootstrap_report(StatKind.T2, data, mu0, sigma, j=1201, seed=8)
        assert (report.p_value, report.critical_value, report.value) == expected

    def test_report_consistency(self, rng):
        data = rng.standard_normal((40, 2))
        report = bootstrap_report(
            StatKind.T1, data, np.zeros(2), SpdMatrix.identity(2), j=500, seed=7
        )
        assert (report.value > report.critical_value) == (report.p_value <= 0.05)


@given(st.integers(0, 2**63), st.floats(0.2, 0.9))
@settings(max_examples=10)
def test_statistic_nonnegative(seed, gamma):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((12, 2))
    config = ForwardSearchConfig(np.zeros(2), SpdMatrix.identity(2), gamma)
    for kind in ALL_KINDS:
        assert statistic(kind, data, np.zeros(2), config) >= 0.0
