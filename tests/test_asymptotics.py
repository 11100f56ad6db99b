import math

import numpy as np
import pytest
from scipy import integrate, stats

from fstest.asymptotics import (
    DEFAULT_D_GRID,
    EFFICIENCY_KEYS,
    ContiguousSpec,
    contiguous_power,
    efficiency,
    efficiency_grid,
    estimate_all_offsets,
    estimate_offsets,
    limit_behavior,
    local_power_rows,
    root_efficiency,
)
from fstest import estimators as est
from fstest.elliptical import DivergentIntegral, standard_model
from fstest.engine import LimitLaw, StatKind
from fstest.linalg import SpdMatrix
from fstest.rng import stream_rng


class TestClosedForms:
    def test_gaussian_spot_values(self):
        # e1 = gamma / (2 pi)^{d/2}
        assert efficiency("gaussian", "e1", 4) == pytest.approx(
            0.5 / (2 * math.pi) ** 2, rel=1e-12
        )
        # e2 at d = 2: gamma * pi^0 / 2^2
        assert efficiency("gaussian", "e2", 2) == pytest.approx(0.125, rel=1e-12)
        # e3 at d = 2: gamma / 6
        assert efficiency("gaussian", "e3", 2) == pytest.approx(0.5 / 6, rel=1e-12)

    def test_gamma_scales_linearly(self):
        for which in EFFICIENCY_KEYS:
            full = efficiency("gaussian", which, 4, gamma=1.0)
            half = efficiency("gaussian", which, 4, gamma=0.5)
            assert half == pytest.approx(full / 2, rel=1e-12)

    def test_cauchy_mean_efficiency_infinite(self):
        assert efficiency("cauchy", "e1", 4) == math.inf
        assert root_efficiency("cauchy", "e1", 4) == math.inf

    def test_no_overflow_at_high_dimension(self):
        # log-space evaluation: d=400 must not raise or return nan
        value = efficiency("light100", "e1", 400)
        assert math.isinf(value) or value > 1e100

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            efficiency("gaussian", "e4", 4)
        with pytest.raises(ValueError):
            efficiency("gaussian", "e1", 0)
        with pytest.raises(ValueError):
            efficiency("gaussian", "e1", 4, gamma=0.0)
        with pytest.raises(ValueError):
            efficiency("gaussian", "e1", 4, method="auto")


class TestQuadraturePath:
    @pytest.mark.parametrize("d", (2, 4, 10))
    @pytest.mark.parametrize("which", EFFICIENCY_KEYS)
    def test_gaussian_quadrature_matches_closed(self, which, d):
        closed = efficiency("gaussian", which, d, method="closed")
        quad = efficiency("gaussian", which, d, method="quadrature")
        assert quad == pytest.approx(closed, rel=1e-8)

    def test_cauchy_quadrature_e1_infinite(self):
        assert efficiency("cauchy", "e1", 4, method="quadrature") == math.inf

    def test_cauchy_quadrature_divergence_not_hidden(self):
        # the defining ratios of e2/e3 contain a divergent integral; the
        # tabulated closed forms are finite, and the gap is surfaced as an error
        for which in ("e2", "e3"):
            assert math.isfinite(efficiency("cauchy", which, 4, method="closed"))
            with pytest.raises(DivergentIntegral):
                efficiency("cauchy", which, 4, method="quadrature")


class TestRootConvention:
    def test_dth_root(self):
        raw = efficiency("gaussian", "e2", 4)
        assert root_efficiency("gaussian", "e2", 4) == pytest.approx(raw ** 0.25, rel=1e-12)

    def test_grid_covers_keys_and_dims(self):
        grid = efficiency_grid("gaussian", (2, 4), 0.5)
        assert set(grid) == set(EFFICIENCY_KEYS)
        assert set(grid["e1"]) == {2, 4}

    def test_default_grid(self):
        assert DEFAULT_D_GRID == (2, 4, 10, 20, 50, 100)

    def test_gaussian_root_values_approach_marginal_constant(self):
        # gamma^{1/d} / sqrt(2 pi) -> 0.3989 from below
        v100 = root_efficiency("gaussian", "e1", 100)
        assert v100 == pytest.approx(0.5 ** 0.01 / math.sqrt(2 * math.pi), rel=1e-12)
        assert v100 < 1 / math.sqrt(2 * math.pi)


class TestLimitBehavior:
    def test_gaussian_decays_to_zero(self):
        trend = limit_behavior("gaussian", "e1", d_max=60)
        assert trend.target == "zero"
        assert trend.monotone_tail
        assert trend.crossed_at is not None and trend.crossed_at <= 40

    def test_cauchy_median_efficiency_explodes(self):
        trend = limit_behavior("cauchy", "e2", d_max=80)
        assert trend.target == "infinity"
        assert trend.monotone_tail
        assert trend.crossed_at is not None and trend.crossed_at <= 60

    def test_light_tail_mean_efficiency_explodes(self):
        trend = limit_behavior("light100", "e1", d_max=80)
        assert trend.monotone_tail
        assert trend.crossed_at is not None and trend.crossed_at <= 60

    def test_rejects_small_dmax(self):
        with pytest.raises(ValueError):
            limit_behavior("gaussian", "e1", d_max=5)


class TestOffsets:
    def test_mean_offsets_recover_delta(self):
        spec = ContiguousSpec(np.array([0.8, -0.2, 0.5]), "gaussian")
        off = estimate_offsets(spec, StatKind.T2, reps=4000, seed=5)
        assert np.all(np.abs(off.values - spec.delta) < 4 * off.stderr + 1e-3)

    def test_trimmed_offsets_attenuated(self):
        # the anchored trim pulls the local shift toward the anchor:
        # a = c * delta with c = 0.4741 for the Gaussian kernel at gamma = 1/2
        spec = ContiguousSpec(np.full(4, 1.0), "gaussian")
        off = estimate_offsets(spec, StatKind.T1, reps=6000, seed=5)
        ratio = off.values.mean()
        assert ratio == pytest.approx(0.4741, abs=4 * off.stderr.mean())

    def test_cauchy_trimmed_attenuation(self):
        spec = ContiguousSpec(np.full(4, 1.0), "cauchy")
        off = estimate_offsets(spec, StatKind.T1, reps=6000, seed=5)
        assert off.values.mean() == pytest.approx(0.7986, abs=4 * off.stderr.mean())

    def test_zero_delta_gives_exactly_zero(self):
        spec = ContiguousSpec(np.zeros(3), "gaussian")
        off = estimate_offsets(spec, StatKind.T1, reps=500, seed=2)
        assert np.array_equal(off.values, np.zeros(3))

    def test_sign_antisymmetry_exact(self):
        plus = estimate_offsets(ContiguousSpec(np.full(2, 0.5), "gaussian"), StatKind.T3, reps=800, seed=9)
        minus = estimate_offsets(ContiguousSpec(np.full(2, -0.5), "gaussian"), StatKind.T3, reps=800, seed=9)
        assert np.array_equal(plus.values, -minus.values)

    def test_shared_replications_across_kinds(self):
        spec = ContiguousSpec(np.full(2, 1.0), "gaussian")
        together = estimate_all_offsets(spec, (StatKind.T1, StatKind.T2), reps=400, seed=7)
        alone = estimate_offsets(spec, StatKind.T2, reps=400, seed=7)
        assert np.array_equal(together[StatKind.T2].values, alone.values)

    def test_follows_documented_stream_path(self):
        # replication r draws its null sample from ("offsets", family, r)
        spec = ContiguousSpec(np.array([0.7, -0.4]), "cauchy", n=25)
        model = standard_model("cauchy", 2)
        data = np.stack([model.sample(25, stream_rng(3, "offsets", "cauchy", r)) for r in range(12)])
        scores = model.location_score(data.reshape(-1, 2)).reshape(data.shape)
        gradients = np.einsum("rnj,j->r", scores, spec.delta)
        result = estimate_all_offsets(spec, (StatKind.T1, StatKind.T4), reps=12, seed=3)
        for kind in (StatKind.T1, StatKind.T4):
            values = est.batch_estimates(kind.estimator, data, np.zeros(2), SpdMatrix.identity(2), 0.5)
            samples = values * gradients[:, None]
            assert np.array_equal(result[kind].values, samples.mean(axis=0))
            assert np.array_equal(result[kind].stderr, samples.std(axis=0, ddof=1) / math.sqrt(12))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ContiguousSpec(np.ones(2), "unknown-family")
        with pytest.raises(ValueError):
            ContiguousSpec(np.ones(2), "gaussian", n=0)
        assert ContiguousSpec(np.ones(3), "gaussian").d == 3


def ncx2_power(d, shift, alpha=0.05):
    return stats.ncx2.sf(stats.chi2.ppf(1 - alpha, d), d, shift)


class TestContiguousPower:
    def test_zero_delta_is_exactly_alpha(self):
        p = contiguous_power(StatKind.T1, "gaussian", np.zeros(4), seed=3)
        assert p == pytest.approx(0.05, abs=1e-12)

    def test_cauchy_mean_rule(self):
        assert contiguous_power(StatKind.T2, "cauchy", np.full(4, 2.0), seed=1) == 0.0

    def test_mean_statistic_matches_noncentral_chi2(self):
        delta = np.full(4, 1.0)
        p = contiguous_power(
            StatKind.T2, "gaussian", delta, mc_samples=400_000, seed=17
        )
        oracle = ncx2_power(4, float(delta @ delta))
        assert p == pytest.approx(oracle, abs=1e-10)

    def test_power_increases_with_shift(self):
        small = contiguous_power(StatKind.T3, "gaussian", np.full(2, 0.5), seed=11)
        large = contiguous_power(StatKind.T3, "gaussian", np.full(2, 3.0), seed=11)
        assert large > small

    def test_cauchy_trimmed_uses_finite_trimmed_scalar(self):
        # c1 diverges under cauchy, but the trimmed variance E[x 1{x <= q}] /
        # (d gamma^2) is finite; the squared radius is d * F(d, 1)
        d, gamma = 2, 0.5
        radius = stats.f(d, 1, scale=d)
        q = radius.ppf(gamma)
        v = integrate.quad(lambda x: x * radius.pdf(x), 0, q)[0] / (d * gamma**2)
        kappa = 1 - 2 * q * radius.pdf(q) / (d * gamma)
        oracle = ncx2_power(d, kappa**2 * d / v)
        p = contiguous_power(StatKind.T1, "cauchy", np.full(d, 1.0), mc_samples=20_000, seed=2)
        assert p == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("family, scalar, oracle", [
        ("gaussian", math.pi / 2, 0.0839),
        ("cauchy", math.pi**2 / 4, 0.0710),
    ])
    def test_median_limit_in_variance_units(self, family, scalar, oracle):
        # n |T - mu0|^2 -> lambda chi2_d(|delta|^2 / lambda) with lambda =
        # 1 / (4 g1(0)^2), not chi2_d(|delta|^2)
        delta = np.full(4, 0.5)
        closed = ncx2_power(4, float(delta @ delta) / scalar)
        assert closed == pytest.approx(oracle, abs=5e-5)
        p = contiguous_power(StatKind.T3, family, delta, seed=31)
        assert p == pytest.approx(closed, abs=1e-10)

    def test_makes_no_random_draws(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("contiguous_power drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        monkeypatch.setattr(np.random, "Generator", forbidden)
        delta = np.full(3, 0.7)
        a = contiguous_power(StatKind.T1, "gaussian", delta, mc_samples=100, seed=1)
        b = contiguous_power(StatKind.T1, "gaussian", delta, mc_samples=10**6, seed=2)
        assert a == b

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            contiguous_power(StatKind.T1, "gaussian", np.ones(2), alpha=1.5)


class TestDriftFactor:
    def test_equivariant_statistics_keep_delta(self):
        for family in ("gaussian", "cauchy", "light100"):
            for kind in (StatKind.T2, StatKind.T3, StatKind.T4):
                assert LimitLaw(kind, family, 4).drift == 1.0

    def test_trimmed_closed_form(self):
        # the constants the Monte Carlo offsets in TestOffsets converge to
        assert LimitLaw(StatKind.T1, "gaussian", 4, 0.5).drift == pytest.approx(0.4741, abs=1e-4)
        assert LimitLaw(StatKind.T1, "cauchy", 4, 0.5).drift == pytest.approx(0.7986, abs=1e-4)
        assert abs(LimitLaw(StatKind.T1, "light100", 4, 0.5).drift) < 1e-12

    @pytest.mark.parametrize("family, d, gamma", [("gaussian", 2, 0.3), ("cauchy", 6, 0.7)])
    def test_trimmed_matches_monte_carlo_offsets(self, family, d, gamma):
        # the derivation checked away from d = 4, gamma = 1/2: the closed form
        # against the covariance with the log-likelihood gradient
        spec = ContiguousSpec(np.full(d, 1.0), family, gamma=gamma)
        off = estimate_offsets(spec, StatKind.T1, reps=6000, seed=5)
        kappa = LimitLaw(StatKind.T1, family, d, gamma).drift
        assert off.values.mean() == pytest.approx(kappa, abs=4 * off.stderr.mean())

    def test_gaussian_matches_chi2_density(self):
        for d, gamma in ((2, 0.3), (4, 0.5), (10, 0.8)):
            q = stats.chi2.ppf(gamma, d)
            expect = 1 - 2 * q * stats.chi2.pdf(q, d) / (d * gamma)
            assert LimitLaw(StatKind.T1, "gaussian", d, gamma).drift == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("d", (343, 400))
    def test_gaussian_beyond_the_overflow_of_i0(self, d):
        # I0 is inf at d = 343 (kappa read 1.0) and raised at d = 400
        q = stats.chi2.ppf(0.5, d)
        expect = 1 - 2 * q * stats.chi2.pdf(q, d) / (d * 0.5)
        kappa = LimitLaw(StatKind.T1, "gaussian", d, 0.5).drift
        assert math.isfinite(kappa) and kappa < 1
        assert kappa == pytest.approx(expect, rel=1e-9)

    def test_full_retention_is_the_mean(self):
        assert LimitLaw(StatKind.T1, "gaussian", 3, 1.0).drift == 1.0
        assert LimitLaw(StatKind.T1, "gaussian", 3, 1.0).scale == pytest.approx(1.0, rel=1e-9)
        assert LimitLaw(StatKind.T1, "cauchy", 3, 1.0).scale == math.inf
        assert contiguous_power(StatKind.T1, "cauchy", np.ones(3), gamma=1.0) == 0.0


class TestLocalPowerRows:
    def test_row_layout(self):
        rows = local_power_rows(["gaussian"], [0.5, -0.5], d=2)
        assert len(rows) == 2
        row = rows[0]
        assert row["family"] == "gaussian"
        assert row["delta_component"] == 0.5
        assert row["delta_norm"] == pytest.approx(math.sqrt(2) * 0.5)
        for kind in StatKind:
            assert 0.0 <= row[kind.value] <= 1.0
            assert row[f"{kind.value}_se"] == 0.0

    def test_cauchy_mean_column_zero(self):
        rows = local_power_rows(["cauchy"], [5.0], d=2)
        assert rows[0]["t2"] == 0.0
