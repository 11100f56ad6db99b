import math
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from fstest import engine
from fstest import estimators as est
from fstest import rng as rng_module
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
from fstest.linalg import SpdMatrix, mahalanobis_sq_many
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
        t1 = statistic(StatKind.T1, data, np.zeros(3), config.sigma, config.gamma)
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
            expect = [statistic(kind, data[r], np.zeros(2), config.sigma, config.gamma) for r in range(6)]
            assert np.array_equal(got[kind], expect)

    @pytest.mark.parametrize("n", [20, 21])
    @pytest.mark.parametrize("scatter", ["identity", "general"])
    def test_negative_zero_entries_read_as_positive_zeros(self, n, scatter, rng):
        # a null batch at mu0 = 0 skips the location add, whose only effect was -0.0 -> +0.0
        d = 3
        data = rng.standard_normal((6, n, d))
        data[0] = -0.0  # every entry
        data[1, :, 1] = -0.0  # a column whose median and HL are zeros
        data[2, ::2] = -0.0  # rows at distance zero, kept by the forward search
        data[3, : n // 2 + 1] = -0.0  # a majority of the rows
        data[4][rng.random((n, d)) < 0.3] = -0.0
        positive = data + 0.0
        assert np.signbit(data).sum() > np.signbit(positive).sum()
        a = rng.standard_normal((d, d))
        sigma = SpdMatrix.identity(d) if scatter == "identity" else SpdMatrix(a @ a.T + d * np.eye(d))
        got = batch_statistics(data, np.zeros(d), sigma, 0.5)
        want = batch_statistics(positive, np.zeros(d), sigma, 0.5)
        for kind in ALL_KINDS:
            assert np.array_equal(got[kind].view(np.int64), want[kind].view(np.int64)), kind

    @pytest.mark.parametrize("kinds", [(StatKind.T3, StatKind.T4), (StatKind.T4, StatKind.T3), ALL_KINDS])
    @pytest.mark.parametrize("n, d", [(1, 3), (2, 1), (7, 4), (40, 2), (30, 100)])
    def test_median_and_hl_share_one_sort(self, kinds, n, d, rng, monkeypatch):
        data = rng.standard_normal((5, n, d))
        data[:, : n // 2] = np.round(data[:, : n // 2], 1)  # ties
        args = (np.zeros(d), SpdMatrix.identity(d), 0.5)
        single = {kind: batch_statistics(data, *args, (kind,))[kind] for kind in kinds}
        sorts = []
        sort = est._sorted_columns
        monkeypatch.setattr(est, "_sorted_columns", lambda x: sorts.append(x.shape) or sort(x))
        together = batch_statistics(data, *args, kinds)
        assert sorts == [data.shape]
        assert list(together) == list(kinds)
        for kind in kinds:
            assert np.array_equal(together[kind].view(np.int64), single[kind].view(np.int64))

    def test_shared_sort_is_freed_before_the_other_kinds_run(self, rng, monkeypatch):
        # a sorted copy alive during t1's scratch raised table3's peak RSS by 12%
        data = rng.standard_normal((4, 9, 3))
        copies, alive = [], {}
        sort, batch = est._sorted_columns, est.batch_estimates

        def sorting(x):
            cols = sort(x)
            copies.append(weakref.ref(cols))
            return cols

        def estimating(kind, *args, **kwargs):
            alive[kind] = any(ref() is not None for ref in copies)
            return batch(kind, *args, **kwargs)

        monkeypatch.setattr(est, "_sorted_columns", sorting)
        monkeypatch.setattr(est, "batch_estimates", estimating)
        batch_statistics(data, np.zeros(3), SpdMatrix.identity(3), 0.5, ALL_KINDS)
        assert len(copies) == 1
        assert alive == {
            StatKind.T1.estimator: False,
            StatKind.T2.estimator: False,
            StatKind.T3.estimator: True,
            StatKind.T4.estimator: True,
        }

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("scatter", ["identity", "general"])
    def test_statistic_is_the_batch_statistic(self, n, d, scatter, rng):
        # the observed value is batch_statistics at reps = 1, bit for bit
        data = rng.standard_normal((8, n, d))
        mu0 = rng.standard_normal(d) / 4
        a = rng.standard_normal((d, d))
        sigma = SpdMatrix.identity(d) if scatter == "identity" else SpdMatrix(a @ a.T + d * np.eye(d))
        got = batch_statistics(data, mu0, sigma, 0.5)
        for kind in ALL_KINDS:
            expect = [statistic(kind, data[r], mu0, sigma, 0.5) for r in range(8)]
            assert np.array_equal(got[kind], expect), kind

    @pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5])
    def test_t2_rejects_gamma_outside_unit_interval(self, gamma, gauss_data):
        # gamma only sets the forward search, yet every kind checks it
        data = gauss_data()
        with pytest.raises(ValueError, match="gamma"):
            statistic(StatKind.T2, data, np.zeros(3), gamma=gamma)

    def test_rotation_invariance_identity_scatter(self, rng):
        data = rng.standard_normal((50, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        config = ForwardSearchConfig(np.zeros(3), SpdMatrix.identity(3), 0.5)
        base = statistic(StatKind.T1, data, np.zeros(3), config.sigma, config.gamma)
        rotated = statistic(StatKind.T1, data @ q.T, np.zeros(3), config.sigma, config.gamma)
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

    @pytest.mark.parametrize("d", (4, 300, 343, 400, 700))
    def test_c1_in_log_space(self, d):
        # c1 = (2 pi)^{d/2} / gamma for the gaussian; its linear-space form overflowed from d = 300
        assert scatter_scale_constant("gaussian", d, 0.5) == pytest.approx(
            (2 * math.pi) ** (d / 2) / 0.5, rel=1e-12, abs=0
        )
        assert scatter_scale_constant("cauchy", d, 0.5) == math.inf

    def test_c1_scales_inversely_with_gamma(self):
        half = scatter_scale_constant("gaussian", 4, 0.5)
        full = scatter_scale_constant("gaussian", 4, 1.0)
        assert half == pytest.approx(2 * full, rel=1e-12)


class TestLimitWeights:
    def test_limit_weights_identity_scatter(self):
        weights = limit_weights(StatKind.T2, "gaussian", SpdMatrix.identity(3), 0.5)
        assert np.allclose(weights, np.ones(3))

    def test_limit_weights_scale_with_scatter(self):
        weights = limit_weights(StatKind.T3, "gaussian", SpdMatrix(np.diag([1.0, 3.0])), 0.5)
        assert np.allclose(np.sort(weights), math.pi / 2 * np.array([1.0, 3.0]))

    def test_cauchy_mean_is_infinite_variance(self):
        with pytest.raises(InfiniteVariance):
            limit_weights(StatKind.T2, "cauchy", SpdMatrix.identity(4), 0.5)

    def test_cauchy_trimmed_limit_diverges(self):
        # finite for gamma < 1 (the trim keeps only the inner half), the mean's
        # divergent variance at gamma = 1
        weights = limit_weights(StatKind.T1, "cauchy", SpdMatrix.identity(4), 0.5)
        assert np.array_equal(weights, np.full(4, LimitLaw(StatKind.T1, "cauchy", 4, 0.5).scale))
        with pytest.raises(InfiniteVariance):
            limit_weights(StatKind.T1, "cauchy", SpdMatrix.identity(4), 1.0)


class TestLimitLawWithoutQuadrature:
    @pytest.mark.parametrize("family", ("gaussian", "cauchy", "light100"))
    def test_every_constant_is_finite(self, family):
        # the package imports no scipy (test_cli's TestImportCost blocks it), so these are
        # the closed forms and the light100 rule
        for kind in ALL_KINDS:
            for d in (1, 2, 3, 4, 10, 100, 343, 400, 1000):
                for gamma in (0.3, 0.5, 1.0):
                    law = LimitLaw(kind, family, d, gamma)
                    mean_like = kind == StatKind.T2 or (kind == StatKind.T1 and gamma == 1.0)
                    diverges = family == "cauchy" and mean_like
                    assert law.scale == math.inf if diverges else 0 < law.scale < math.inf
                    assert math.isfinite(law.drift)

    @pytest.mark.parametrize("family", ("gaussian", "cauchy", "light100"))
    @pytest.mark.parametrize("d", (343, 400, 1000))
    def test_formula_critical_values_at_large_d(self, family, d):
        # the light100 t3/t4 and cauchy t1 limits overflowed here through their quadratures
        sigma = SpdMatrix.identity(d)
        for kind in ALL_KINDS:
            if family == "cauchy" and kind == StatKind.T2:
                with pytest.raises(InfiniteVariance):
                    limit_weights(kind, family, sigma, 0.5)
                continue
            weights = limit_weights(kind, family, sigma, 0.5)
            assert np.all(np.isfinite(weights)) and np.all(weights > 0)
            value = critical_value(weights, 0.05).value
            assert math.isfinite(value) and value > 0


class TestCriticalValues:
    def test_unit_weights_match_chi2(self):
        for d in (1, 2, 5):
            q = critical_value(np.ones(d), 0.05, mc_samples=200_000, seed=11)
            ref = stats.chi2.ppf(0.95, d)
            assert abs(q.value - ref) < 4 * q.stderr
            assert q.stderr > 0

    def test_weighted_sample_mean(self):
        draws = weighted_chisq_sample(np.array([2.0, 3.0]), 400_000, np.random.default_rng(1))
        # E = sum w_i = 2 + 3 = 5
        assert draws.mean() == pytest.approx(5.0, abs=0.05)

    def test_weighted_sample_is_squares_dot_weights(self):
        weights = np.array([0.7, 2.0, 1.3])
        draws = weighted_chisq_sample(weights, 5000, np.random.default_rng(2))
        z = np.random.default_rng(2).standard_normal((5000, 3))
        expect = z**2 @ weights
        assert np.array_equal(draws.view(np.int64), expect.view(np.int64))

    def test_blocked_normals_equal_one_draw(self, monkeypatch):
        # blocks of 16 rows at d = 50; 1001 ends on a 9-row block, 17, 33, ... on a lone row
        monkeypatch.setattr(engine, "_CHISQ_BLOCK_FLOATS", 16 * 50)
        weights = np.linspace(0.5, 2.0, 50)
        for size in (1001, *range(17, 1010, 16)):
            draws = weighted_chisq_sample(weights, size, np.random.default_rng(4))
            z = np.random.default_rng(4).standard_normal((size, 50))
            assert np.array_equal(draws, np.square(z) @ weights)

    @pytest.mark.parametrize("weights", [[1.0, 0.0], [2.0, -1.0], [1.0, math.nan], []])
    def test_rejects_nonpositive_weights(self, weights):
        with pytest.raises(ValueError):
            critical_value(np.array(weights), 0.05, mc_samples=1000)

    def test_stream_names_the_weights_as_floats(self):
        # the stream is named by the weights' float reprs, the same under numpy 1 and 2
        weights = np.array([0.5, 2.0])
        draws = weighted_chisq_sample(weights, 1000, stream_rng(3, "critical-value", 0.5, 2.0))
        expect = engine._quantile_with_se(draws, 0.95)
        assert critical_value(weights, 0.05, mc_samples=1000, seed=3) == expect

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
        a = critical_value(np.ones(3), 0.1, mc_samples=10_000, seed=3)
        b = critical_value(np.ones(3), 0.1, mc_samples=10_000, seed=3)
        assert a == b

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            critical_value(np.ones(2), 0.05, mc_samples=50)

    def test_empirical_reproducible_and_positive(self):
        args = ((StatKind.T1,), "gaussian", np.zeros(3), SpdMatrix.identity(3), 50, 0.5, 0.05, 400, 9)
        a = empirical_critical_value(*args)
        b = empirical_critical_value(*args)
        assert a == b
        assert a[StatKind.T1].value > 0

    def test_empirical_kinds_share_one_null_simulation(self):
        # the stream path names the family, not the kind: each kind's quantile is a one-kind call's
        args = ("cauchy", np.zeros(2), SpdMatrix.identity(2), 30, 0.5, 0.1, 200, 4)
        together = empirical_critical_value(ALL_KINDS, *args)
        assert list(together) == list(ALL_KINDS)
        assert together == {kind: empirical_critical_value((kind,), *args)[kind] for kind in ALL_KINDS}

    def test_empirical_follows_calibration_stream_path(self):
        # null replications 64k.. draw at once from ("calibration", family, "block", k)
        mu = np.array([1.0, -1.0])
        sigma = SpdMatrix([[2.0, 0.3], [0.3, 1.0]])
        model = EllipticalModel(generator_by_name("cauchy"), 2, mu, sigma)
        data = np.concatenate([
            model.sample(30 * count, stream_rng(4, "calibration", "cauchy", "block", k)).reshape(count, 30, 2)
            for k, count in enumerate((64, 36))
        ])
        stats = batch_statistics(data, mu, sigma, 0.5, (StatKind.T1,))[StatKind.T1]
        q = empirical_critical_value((StatKind.T1,), "cauchy", mu, sigma, 30, 0.5, 0.1, 100, 4)[StatKind.T1]
        assert q.value == float(np.quantile(stats, 0.9))

    def test_empirical_tracks_trimmed_variance(self):
        # null 95% point of the trimmed statistic ~ (trimmed variance) * chi2
        q = empirical_critical_value(
            (StatKind.T1,), "gaussian", np.zeros(4), SpdMatrix.identity(4), 400, 0.5, 0.05, 3000, 5
        )[StatKind.T1]
        ref = limit_scale(StatKind.T1, "gaussian") * stats.chi2.ppf(0.95, 4)
        assert q.value == pytest.approx(ref, rel=0.12)

    @pytest.mark.parametrize("family", ["gaussian", "cauchy", "light100"])
    def test_formula_matches_empirical_t1(self, family):
        # both calibrations of the trimmed statistic estimate one quantile
        d, n = 4, 2000
        formula = critical_value(limit_weights(StatKind.T1, family, SpdMatrix.identity(d), 0.5), 0.05)
        empirical = empirical_critical_value(
            (StatKind.T1,), family, np.zeros(d), SpdMatrix.identity(d), n, 0.5, 0.05, 2000, 0
        )[StatKind.T1]
        assert abs(formula.value - empirical.value) <= 3 * empirical.stderr


class TestExactCriticalValues:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 50, 100, 400])
    # the point comes from the upper tail: from the lower one, 1 - alpha lost a small
    # alpha's relative precision (1.05e-6 at d = 4, alpha = 1e-10) and was 1 at 1e-17
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.5, 1e-10, 1e-17, 1e-300])
    def test_equal_weights_match_chi2(self, d, alpha):
        q = critical_value(np.full(d, 1.7), alpha)
        assert q.value == pytest.approx(1.7 * special.chdtri(d, alpha), rel=1e-12, abs=0)
        assert (q.stderr, q.n_samples) == (0.0, 0)

    def test_unequal_weights_default_to_monte_carlo(self):
        # no exact law for spread weights: the default is the DEFAULT_MC_SAMPLES-draw quantile
        weights = np.array([0.5, 2.0, 20.0])
        q = critical_value(weights, 0.05, seed=4)
        assert q == critical_value(weights, 0.05, engine.DEFAULT_MC_SAMPLES, seed=4)
        assert q.n_samples == engine.DEFAULT_MC_SAMPLES and q.stderr > 0

    def test_exact_path_draws_nothing(self, monkeypatch, rng):
        def refuse(*args):
            raise AssertionError("the exact path drew")

        monkeypatch.setattr(engine, "weighted_chisq_sample", refuse)
        monkeypatch.setattr(engine, "stream_rng", refuse)
        for d in (1, 4, 400):
            assert critical_value(np.full(d, 0.3), 0.05).stderr == 0.0
        report = run_test(StatKind.T3, rng.standard_normal((30, 2)), np.zeros(2), calibration="formula")
        assert report.mc_samples == 0

    @pytest.mark.parametrize("weights", [[1.0, 0.0], [0.0, 0.0], [-1.0, -1.0]])
    def test_exact_path_rejects_nonpositive_weights(self, weights):
        with pytest.raises(ValueError):
            critical_value(np.array(weights), 0.05)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_exact_path_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError):
            critical_value(np.ones(2), alpha)


class TestFormulaPValue:
    @pytest.mark.parametrize("kind", list(StatKind))
    @pytest.mark.parametrize("shift", [0.0, 0.2, 0.5, 3.0])
    def test_limit_tail_at_identity_sigma(self, kind, shift, rng):
        data = rng.standard_normal((50, 3)) + shift
        report = run_test(kind, data, np.zeros(3), calibration="formula", alpha=0.05)
        scale = LimitLaw(kind, "gaussian", 3, 0.5).scale
        # the upper tail keeps a small p-value's relative precision (1e-282 at shift 3)
        assert report.p_value == pytest.approx(special.chdtrc(3, report.value / scale), rel=1e-12, abs=0)
        assert (report.p_value <= 0.05) == (report.decision == "reject")

    def test_zero_statistic_has_p_value_one(self):
        # the tail at x = 0, where Q(a, x)'s series would fail; tests/test_special.py checks the edges
        report = run_test(StatKind.T2, np.zeros((5, 2)), np.zeros(2), calibration="formula")
        assert (report.value, report.p_value) == (0.0, 1.0)

    def test_monte_carlo_formula_and_empirical_have_no_p_value(self, rng):
        data = rng.standard_normal((40, 2))
        assert run_test(StatKind.T2, data, np.zeros(2), calibration="formula", mc_samples=1000).p_value is None
        sigma = SpdMatrix(np.diag([0.5, 2.0]))
        assert run_test(StatKind.T2, data, np.zeros(2), sigma, calibration="formula").p_value is None
        assert run_test(StatKind.T2, data, np.zeros(2), null_reps=200).p_value is None


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
        # null replications 64k.. draw at once from ("calibration", family, "block", k),
        # mixture replications at beta from ("power", family, repr(beta), "block", k)
        d, n, reps, null_reps, seed = 2, 20, 40, 100, 17
        mu0, sigma = np.zeros(d), SpdMatrix.identity(d)
        null = standard_model("gaussian", d)
        shifted = EllipticalModel(generator_by_name("gaussian"), d, np.full(d, 0.5), sigma)

        def statistics(sample, *path, count):
            data = np.concatenate([
                sample(n * min(64, count - first), stream_rng(seed, *path, "block", first // 64))
                for first in range(0, count, 64)
            ]).reshape(count, n, d)
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


class TestScratchPeaks:
    """A call's traced peak: its batch (or resample block) and that batch's
    aux arrays, one scratch budget, and arrays of a few floats per replication."""

    @staticmethod
    def peak(fn) -> int:
        fn()  # warm caches, so that only the call's own arrays are traced
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind", [StatKind.T1, StatKind.T3])
    def test_empirical_calibration_holds_one_batch_and_the_budget(self, kind):
        reps, n, d = 2000, 100, 4
        mu0, sigma = np.zeros(d), SpdMatrix.identity(d)
        peak = self.peak(lambda: empirical_critical_value((kind,), "gaussian", mu0, sigma, n, 0.5, 0.05, reps, 1))
        # the gaussian batch (reps, n, d) and its aux (reps, n) fit one simulation batch
        assert reps * n * d <= rng_module.SIMULATION_BLOCK_FLOATS
        assert peak <= 8 * (reps * n * d + reps * n + est._SCRATCH_FLOATS + 16 * reps)

    @pytest.mark.parametrize("kind", [StatKind.T1, StatKind.T2, StatKind.T3])
    def test_bootstrap_holds_one_resample_block_and_the_budget(self, kind):
        j, n, d = 2000, 100, 4
        data = np.random.default_rng(5).standard_normal((n, d))
        mu0, sigma = np.zeros(d), SpdMatrix.identity(d)
        peak = self.peak(lambda: bootstrap_report(kind, data, mu0, sigma, j=j, seed=1))
        # a block's indices, n per resample, and what its kind gathers: t2 and t3
        # the n * d entries of each resample (t2 with a transposed copy of the
        # indices); t1 no such gather, only the n distances, the m kept rows
        # and, twice, their indices
        chunk, m = est._SCRATCH_FLOATS // (n * d), n // 2
        held = 2 * n + m * (d + 2) if kind == StatKind.T1 else 2 * n + n * d
        assert peak <= 8 * (chunk * held + 16 * j)


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

    @pytest.mark.parametrize(
        "kind, n, d, general",
        [
            pytest.param(StatKind.T1, 1000, 4, False, id="t1"),
            pytest.param(StatKind.T1, 1000, 4, True, id="t1-general-sigma"),
            pytest.param(StatKind.T2, 1000, 4, False, id="t2"),
            pytest.param(StatKind.T3, 1000, 4, False, id="t3"),
            # the same n * d at a size where the Walsh sums stay cheap
            pytest.param(StatKind.T4, 40, 100, False, id="t4"),
        ],
    )
    def test_blocked_draws_equal_one_draw(self, rng, kind, n, d, general):
        # j = 1201 at n * d = 4000 spans five resample blocks of 250; the
        # report equals the statistics of the rows regathered as data[idx]
        data = rng.standard_normal((n, d))
        mu0, sigma = np.full(d, 0.05), SpdMatrix.identity(d)
        if general:
            a = rng.standard_normal((d, d))
            mu0, sigma = np.linspace(-0.2, 0.3, d), SpdMatrix(a @ a.T / d + np.eye(d))
        idx = stream_rng(8, "bootstrap", kind.value).integers(0, n, size=(1201, n))
        stats = batch_statistics(data[idx], mu0, sigma, 0.5, (kind,))[kind]
        t0 = statistic(kind, data, mu0, sigma)
        expected = (float(np.mean(stats > t0)), float(np.quantile(stats, 0.95)), t0)
        report = bootstrap_report(kind, data, mu0, sigma, j=1201, seed=8)
        assert (report.p_value, report.critical_value, report.value) == expected

    @staticmethod
    def spy_blocks(monkeypatch) -> tuple[list[int], list[int]]:
        """Sizes of the batches ``batch_statistics`` reduces, and of the index
        blocks whose resamples ``_resample_estimates`` reduces."""
        batches, blocks = [], []
        resample_estimates = est._resample_estimates

        def batch_spy(batch, *args):
            batches.append(len(batch))
            return batch_statistics(batch, *args)

        def block_spy(kind, x, idx, *args):
            blocks.append(len(idx))
            return resample_estimates(kind, x, idx, *args)

        monkeypatch.setattr(engine, "batch_statistics", batch_spy)
        monkeypatch.setattr(est, "_resample_estimates", block_spy)
        return batches, blocks

    def test_resample_blocks_stay_within_the_scratch_budget(self, monkeypatch, rng):
        # a block holds the estimators' 2**18-float scratch budget in entries:
        # j = 2,000 at n * d = 400 is three blocks of 655 and a tail of 35,
        # and a budget of 500 resamples makes four equal blocks
        data = rng.standard_normal((100, 4))
        mu0, sigma = np.zeros(4), SpdMatrix.identity(4)
        batches, sizes = self.spy_blocks(monkeypatch)
        one = bootstrap_report(StatKind.T2, data, mu0, sigma, j=2000, seed=3)
        # the observed statistic is a batch of one; the resamples reduce from their indices
        assert batches == [1]
        assert sizes == [655, 655, 655, 35]
        sizes.clear()
        monkeypatch.setattr(est, "_SCRATCH_FLOATS", 500 * 400)
        assert bootstrap_report(StatKind.T2, data, mu0, sigma, j=2000, seed=3) == one
        assert sizes == [500, 500, 500, 500]

    @pytest.mark.parametrize("kind", list(StatKind))
    def test_uneven_resample_blocks_keep_the_bits_of_one_block(self, kind, monkeypatch, rng):
        # n * d = 45 is odd; a budget of 7 resamples splits j = 101 into 14
        # blocks of 7 and one of 3
        data = np.round(rng.standard_normal((15, 3)), 1)
        mu0, sigma = np.full(3, 0.1), SpdMatrix(np.eye(3) + 0.3)
        _, sizes = self.spy_blocks(monkeypatch)
        monkeypatch.setattr(est, "_SCRATCH_FLOATS", 7 * 45)
        blocked = bootstrap_report(kind, data, mu0, sigma, j=101, seed=4)
        assert sizes == [7] * 14 + [3]
        monkeypatch.setattr(est, "_SCRATCH_FLOATS", 1 << 40)
        assert bootstrap_report(kind, data, mu0, sigma, j=101, seed=4) == blocked
        assert sizes[15:] == [101]

    def test_t1_resamples_get_their_rows_own_distances(self, monkeypatch):
        # distances keep their bits in any layout: on this Fortran-ordered sample,
        # an in-place contraction once changed 7 of 40 in the last bit
        gen = np.random.default_rng(0)
        x = np.asfortranarray(gen.standard_normal((40, 4)) * 3.0)
        mu0, sigma = gen.integers(-3, 4, 4) * 0.1, SpdMatrix.identity(4)
        in_place = mahalanobis_sq_many(x, mu0, sigma)
        copied = mahalanobis_sq_many(np.ascontiguousarray(x), mu0, sigma)
        assert np.array_equal(in_place.view(np.int64), copied.view(np.int64))
        seen = []
        kept, resample = est._forward_search_kept, est._resample_estimates
        monkeypatch.setattr(est, "_forward_search_kept", lambda dist, m: seen.append(dist) or kept(dist, m))
        monkeypatch.setattr(est, "_resample_estimates", lambda k, x, i, *a: seen.append(i) or resample(k, x, i, *a))
        bootstrap_report(StatKind.T1, x, mu0, sigma, j=300, seed=5)
        # the observed statistic selects on its own distances, then comes one block
        assert [a.shape for a in seen] == [(1, 40), (300, 40), (300, 40)]
        _, idx, dist = seen
        data = np.take(x, idx, axis=0)
        assert np.array_equal(dist.view(np.int64), mahalanobis_sq_many(data, mu0, sigma).view(np.int64))

    def test_t4_columns_reach_hodges_lehmann_in_batch_order(self, monkeypatch):
        # the window pass takes its window from the first columns: in resample-major
        # order, as a batch sorts them, they span every coordinate, whose shapes differ
        gen = np.random.default_rng(6)
        x = np.column_stack([gen.standard_normal(80), gen.exponential(size=80), gen.uniform(size=80)])
        seen = []
        hl_batch = est._hodges_lehmann_batch
        monkeypatch.setattr(est, "_hodges_lehmann_batch", lambda cols, d: seen.append(cols) or hl_batch(cols, d))
        bootstrap_report(StatKind.T4, x, np.zeros(3), SpdMatrix.identity(3), j=300, seed=6)
        idx = stream_rng(6, "bootstrap", "t4").integers(0, 80, size=(300, 80))
        assert len(seen) == 2 and np.array_equal(seen[1], est._sorted_columns(x[idx]))

    @pytest.mark.parametrize("kind", list(StatKind))
    @pytest.mark.parametrize(
        "n, d, layout, general",
        [
            pytest.param(9, 1, "C", False, id="d1"),
            pytest.param(30, 1, "F", True, id="d1-fortran-general-sigma"),
            pytest.param(23, 3, "C", False, id="d3"),
            pytest.param(40, 4, "F", True, id="fortran-general-sigma"),
            pytest.param(17, 6, "read-only", True, id="read-only-general-sigma"),
            pytest.param(80, 2, "read-only", False, id="read-only"),
        ],
    )
    def test_resample_statistics_have_the_batch_bits(self, kind, n, d, layout, general, monkeypatch):
        # entries in tenths of mixed magnitudes tie, zeros of both signs probe
        # the order of the sums, and a budget of 7 resamples splits j = 15 into
        # blocks of 7 and 7 and a tail of one resample
        gen = np.random.default_rng(n * d)
        x = np.round(gen.standard_normal((n, d)) * gen.choice([0.1, 1.0, 100.0], (n, d)), 1)
        x[gen.random(x.shape) < 0.1] = 0.0
        x[gen.random(x.shape) < 0.1] = -0.0
        x = np.asfortranarray(x) if layout == "F" else x
        x.setflags(write=layout != "read-only")
        mu0, sigma = np.full(d, 0.05), SpdMatrix.identity(d)
        if general:
            a = gen.standard_normal((d, d))
            mu0, sigma = gen.integers(-3, 4, d) * 0.1, SpdMatrix(a @ a.T / d + np.eye(d))
        stats = []
        quantile = engine._quantile_with_se
        monkeypatch.setattr(engine, "_quantile_with_se", lambda s, level: stats.append(s.copy()) or quantile(s, level))
        _, sizes = self.spy_blocks(monkeypatch)
        monkeypatch.setattr(est, "_SCRATCH_FLOATS", 7 * n * d)
        bootstrap_report(kind, x, mu0, sigma, j=15, seed=2)
        assert sizes == [7, 7, 1]
        idx = stream_rng(2, "bootstrap", kind.value).integers(0, n, size=(15, n))
        expected = batch_statistics(x[idx], mu0, sigma, 0.5, (kind,))[kind]
        assert np.array_equal(stats[0].view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("kind", [StatKind.T3, StatKind.T4])
    def test_a_resample_that_permutes_the_data_ties(self, kind):
        # n = 4: about 9% of resamples permute the data, and t3/t4 sort it, so
        # they reproduce the observed value exactly and must not count as above
        mu0, sigma = np.zeros(2), SpdMatrix.identity(2)
        for seed in range(20):
            data = np.random.default_rng(seed).standard_normal((4, 2))
            report = bootstrap_report(kind, data, mu0, sigma, j=2000, seed=seed)
            idx = stream_rng(seed, "bootstrap", kind.value).integers(0, 4, size=(2000, 4))
            stats = batch_statistics(data[idx], mu0, sigma, 0.5, (kind,))[kind]
            permutes = np.all(np.sort(idx, axis=1) == np.arange(4), axis=1)
            assert permutes.any()
            assert np.array_equal(stats[permutes], np.full(permutes.sum(), report.value))
            assert report.p_value == float(np.mean(stats > report.value))

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
        assert statistic(kind, data, np.zeros(2), config.sigma, config.gamma) >= 0.0
