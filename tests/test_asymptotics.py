import hashlib
import json
import math

import numpy as np
import pytest
from scipy import integrate, special, stats

import oracles
from fstest import asymptotics
from fstest.asymptotics import (
    DEFAULT_D_GRID,
    EFFICIENCY_KEYS,
    ContiguousSpec,
    contiguous_power,
    efficiency,
    efficiency_grid,
    estimate_all_offsets,
    local_power_rows,
    root_efficiency,
)
from fstest import estimators as est
from fstest.cli import main
from fstest.elliptical import (
    GAUSSIAN,
    LIGHT100,
    DivergentIntegral,
    component_variance,
    generator_by_name,
    marginal_density_at_zero,
    standard_model,
)
from fstest.engine import InfiniteVariance, LimitLaw, StatKind
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


class TestQuadraturePath:
    @pytest.mark.parametrize("d", (2, 4, 10))
    @pytest.mark.parametrize("which", EFFICIENCY_KEYS)
    def test_gaussian_quadrature_matches_closed(self, which, d):
        closed = efficiency("gaussian", which, d)
        quad = oracles.efficiency("gaussian", which, d)
        assert quad == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("d", (300, 343, 400))
    @pytest.mark.parametrize("which", EFFICIENCY_KEYS)
    def test_gaussian_quadrature_beyond_the_overflow_of_i1(self, which, d):
        # I1 and c1 leave the float range from d = 301; the oracle combines log I_p
        closed = efficiency("gaussian", which, d)
        assert oracles.efficiency("gaussian", which, d) == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("family, d", [("gaussian", 4), ("gaussian", 400), ("light100", 4)])
    def test_quadrature_reads_no_closed_form(self, family, d, monkeypatch):
        # the first pass also caches k(d), which the marginal's front takes from the closed I0
        expected = {which: oracles.efficiency(family, which, d) for which in EFFICIENCY_KEYS}

        def closed(*args):
            raise AssertionError("the quadrature oracle read a closed form")

        gen = type(generator_by_name(family))
        for name in ("radial_integral_closed", "g1_zero_closed", "int_g1_sq_closed"):
            monkeypatch.setattr(gen, name, closed)
        for fn in (oracles.marginal_density_at_zero, oracles.marginal_density_sq_integral):
            fn.cache_clear()
        for which in EFFICIENCY_KEYS:
            assert oracles.efficiency(family, which, d) == expected[which]

    def test_cauchy_quadrature_e1_infinite(self):
        assert oracles.efficiency("cauchy", "e1", 4) == math.inf

    def test_cauchy_quadrature_divergence_not_hidden(self):
        # the defining ratios of e2/e3 contain a divergent integral; the
        # tabulated closed forms are finite, and the gap is surfaced as an error
        for which in ("e2", "e3"):
            assert math.isfinite(efficiency("cauchy", which, 4))
            with pytest.raises(DivergentIntegral):
                oracles.efficiency("cauchy", which, 4)

    @pytest.mark.parametrize("d", (343, 344, 400, 1000))
    def test_light100_quadrature_at_large_d(self, d):
        # the marginal's front, pi^{d/2} and Gamma(d/2) overflowed from d = 342; the ratios are
        # now taken in log space and are inf only beyond the float range, as in the closed forms
        values = {which: oracles.efficiency("light100", which, d) for which in EFFICIENCY_KEYS}
        assert all(v > 0 for v in values.values())  # a NaN fails too
        assert math.isfinite(values["e1"]) == (d < 1000)
        if math.isfinite(values["e1"]):
            # e2 / e1 = 1 / (4 g1(0)^2 Var(Y_1)): the c1 of both cancels
            g1_0 = marginal_density_at_zero(LIGHT100, d)
            expected = 1.0 / (4.0 * g1_0**2 * component_variance(LIGHT100, d))
            assert values["e2"] / values["e1"] == pytest.approx(expected, rel=1e-9)


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
    # each closed form over d = 2..d_max: monotone from d = 10, and past 1e-6 (gaussian,
    # decaying) or 1e3 (the others, growing) by the stated d
    @staticmethod
    def values(family, which, d_max):
        return {d: efficiency(family, which, d) for d in range(2, d_max + 1)}

    def test_gaussian_decays_to_zero(self):
        values = self.values("gaussian", "e1", 60)
        tail = [v for d, v in values.items() if d >= 10]
        assert all(b < a for a, b in zip(tail, tail[1:]))
        assert any(v < 1e-6 for d, v in values.items() if d <= 40)

    def test_cauchy_median_efficiency_explodes(self):
        values = self.values("cauchy", "e2", 80)
        tail = [v for d, v in values.items() if d >= 10]
        assert all(b > a or math.isinf(a) for a, b in zip(tail, tail[1:]))
        assert any(v > 1e3 for d, v in values.items() if d <= 60)

    def test_light_tail_mean_efficiency_explodes(self):
        values = self.values("light100", "e1", 80)
        tail = [v for d, v in values.items() if d >= 10]
        assert all(b > a or math.isinf(a) for a, b in zip(tail, tail[1:]))
        assert any(v > 1e3 for d, v in values.items() if d <= 60)


class TestOffsets:
    def test_mean_offsets_recover_delta(self):
        spec = ContiguousSpec(np.array([0.8, -0.2, 0.5]), "gaussian")
        off = estimate_all_offsets(spec, (StatKind.T2,), reps=4000, seed=5)[StatKind.T2]
        assert np.all(np.abs(off.values - spec.delta) < 4 * off.stderr + 1e-3)

    def test_trimmed_offsets_attenuated(self):
        # the anchored trim pulls the local shift toward the anchor:
        # a = c * delta with c = 0.4741 for the Gaussian kernel at gamma = 1/2
        spec = ContiguousSpec(np.full(4, 1.0), "gaussian")
        off = estimate_all_offsets(spec, (StatKind.T1,), reps=6000, seed=5)[StatKind.T1]
        ratio = off.values.mean()
        assert ratio == pytest.approx(0.4741, abs=4 * off.stderr.mean())

    def test_cauchy_trimmed_attenuation(self):
        spec = ContiguousSpec(np.full(4, 1.0), "cauchy")
        off = estimate_all_offsets(spec, (StatKind.T1,), reps=6000, seed=5)[StatKind.T1]
        assert off.values.mean() == pytest.approx(0.7986, abs=4 * off.stderr.mean())

    def test_zero_delta_gives_exactly_zero(self):
        spec = ContiguousSpec(np.zeros(3), "gaussian")
        off = estimate_all_offsets(spec, (StatKind.T1,), reps=500, seed=2)[StatKind.T1]
        assert np.array_equal(off.values, np.zeros(3))

    def test_sign_antisymmetry_exact(self):
        plus = estimate_all_offsets(ContiguousSpec(np.full(2, 0.5), "gaussian"), (StatKind.T3,), reps=800, seed=9)
        minus = estimate_all_offsets(ContiguousSpec(np.full(2, -0.5), "gaussian"), (StatKind.T3,), reps=800, seed=9)
        assert np.array_equal(plus[StatKind.T3].values, -minus[StatKind.T3].values)

    def test_shared_replications_across_kinds(self):
        spec = ContiguousSpec(np.full(2, 1.0), "gaussian")
        together = estimate_all_offsets(spec, (StatKind.T1, StatKind.T2), reps=400, seed=7)
        alone = estimate_all_offsets(spec, (StatKind.T2,), reps=400, seed=7)[StatKind.T2]
        assert np.array_equal(together[StatKind.T2].values, alone.values)

    def test_follows_documented_stream_path(self):
        # the 12 replications form stream block 0 and draw their null samples at once
        # from ("offsets", family, "block", 0)
        spec = ContiguousSpec(np.array([0.7, -0.4]), "cauchy", n=25)
        model = standard_model("cauchy", 2)
        data = model.sample(12 * 25, stream_rng(3, "offsets", "cauchy", "block", 0)).reshape(12, 25, 2)
        scores = -2.0 * model.generator.dlog_g(np.einsum("rni,rni->rn", data, data), 2)[..., None] * data
        gradients = np.einsum("rnj,j->r", scores, spec.delta)
        result = estimate_all_offsets(spec, (StatKind.T1, StatKind.T4), reps=12, seed=3)
        for kind in (StatKind.T1, StatKind.T4):
            values = est.batch_estimates(kind.estimator, data, np.zeros(2), SpdMatrix.identity(2), 0.5)
            samples = values * gradients[:, None]
            assert np.array_equal(result[kind].values, samples.mean(axis=0))
            assert np.array_equal(result[kind].stderr, samples.std(axis=0, ddof=1) / math.sqrt(12))

    def test_pinned_digests(self):
        # the sha256 of each kind's offsets and standard errors pins the kappa check's bits
        pinned = {
            StatKind.T1: ("c64eb3dfc1926c418a9572e48871439054b94981f5fee792fcae24717e502039",
                          "8fcd80e48c9960376ae68b346430b6615620c4dd9647d8896c61bcf5b666c6a2"),
            StatKind.T2: ("7545f7ea360a087aff0b9865a6f4335c050589de23be96dcfbb0a2e93cbe73c0",
                          "c52a554948420e3bde13947338ca6a145dfafca22f187bb0c361119f43dc999c"),
            StatKind.T3: ("16bfceea929897a242e160fdefd7b26ff8b078147296ec43b1d7bf88aeb6a659",
                          "5340b7dd092589bb2fe58a245fc13408549bd8a912454c654ca08a90516dfd21"),
            StatKind.T4: ("8be919602d9de756cf2c5e7ca75cd25cfe9c14989c64984c7356aaaff949483f",
                          "7f74e0588dad217b1448178902d2a46f21ab54fd39c00eac7c4ab9304bef06d8"),
        }
        result = estimate_all_offsets(ContiguousSpec(np.array([0.7, -0.4]), "cauchy", n=25), tuple(StatKind),
                                      reps=12, seed=3)
        for kind, (values, stderr) in pinned.items():
            assert hashlib.sha256(result[kind].values.tobytes()).hexdigest() == values, kind
            assert hashlib.sha256(result[kind].stderr.tobytes()).hexdigest() == stderr, kind

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
        p = contiguous_power(StatKind.T1, "gaussian", np.zeros(4))
        assert p == pytest.approx(0.05, abs=1e-12)

    def test_cauchy_mean_rule(self):
        assert contiguous_power(StatKind.T2, "cauchy", np.full(4, 2.0)) == 0.0

    def test_mean_statistic_matches_noncentral_chi2(self):
        delta = np.full(4, 1.0)
        p = contiguous_power(StatKind.T2, "gaussian", delta)
        oracle = ncx2_power(4, float(delta @ delta))
        assert p == pytest.approx(oracle, abs=1e-10)

    def test_power_increases_with_shift(self):
        small = contiguous_power(StatKind.T3, "gaussian", np.full(2, 0.5))
        large = contiguous_power(StatKind.T3, "gaussian", np.full(2, 3.0))
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
        p = contiguous_power(StatKind.T1, "cauchy", np.full(d, 1.0))
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
        p = contiguous_power(StatKind.T3, family, delta)
        assert p == pytest.approx(closed, abs=1e-10)

    def test_makes_no_random_draws(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("contiguous_power drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        monkeypatch.setattr(np.random, "Generator", forbidden)
        delta = np.full(3, 0.7)
        assert 0.05 < contiguous_power(StatKind.T1, "gaussian", delta) < 1.0

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            contiguous_power(StatKind.T1, "gaussian", np.ones(2), alpha=1.5)

    @pytest.mark.parametrize("family", ("cauchy", "gaussian", "light100"))
    def test_shift_whose_square_overflows_has_power_one(self, family):
        # |delta|^2 = 4e400 is past the float range; the sample mean under cauchy keeps 0
        for kind in StatKind:
            expect = 0.0 if (kind, family) == (StatKind.T2, "cauchy") else 1.0
            assert contiguous_power(kind, family, np.full(4, 1e200)) == expect


class TestNoncentralOracles:
    """The gaussian radial quantile and the powers built on the chi-squared laws
    against scipy, which the package no longer imports; tests/test_special.py
    checks the laws themselves."""

    DS = (1, 2, 3, 4, 10, 50, 100, 400)

    def test_gaussian_radial_quantile(self):
        # the lower-tail path that the t1 limit law takes; from a = d/2 = 15 on the
        # series' first term takes Stirling's form, where the direct one put the 0.95
        # point 3.4e-14 off scipy's at d = 400 and 1.2e-13 at d = 1000
        for d in self.DS + (1000,):
            for alpha in (0.01, 0.05, 0.1, 0.5, 0.9):
                q = oracles.radial_quantile(GAUSSIAN, d, 1 - alpha)
                assert q == pytest.approx(special.chdtri(d, alpha), rel=1e-12 if d < 30 else 1e-14, abs=0)

    @pytest.mark.parametrize("d", (1, 4, 100, 400))
    @pytest.mark.parametrize("family", ("gaussian", "cauchy", "light100"))
    def test_contiguous_power(self, d, family):
        for kind in StatKind:
            law = LimitLaw(kind, family, d, 0.5)
            for comp in (0.05, 0.5, 1.0, 5.0):
                # 1 - alpha is 1 at alpha = 1e-17: the point comes from the upper tail
                for alpha in (1e-17, 0.01, 0.05):
                    p = contiguous_power(kind, family, np.full(d, comp), alpha=alpha)
                    if math.isinf(law.scale):
                        assert p == 0.0
                        continue
                    shift = law.drift**2 * d * comp**2 / law.scale
                    if alpha < 0.01:
                        # 1 - cdf is exact in absolute terms, as 1 - chndtr was
                        ref = stats.ncx2.sf(special.chdtri(d, alpha), d, shift)
                        assert p == pytest.approx(ref, rel=1e-12, abs=1e-14)
                        continue
                    ref = 1.0 - special.chndtr(special.chdtri(d, alpha), d, shift)
                    assert p == pytest.approx(ref, rel=1e-12, abs=0)

    def test_table2_at_d_400(self, capsys):
        assert main(["table2", "--seed", "1", "--d", "400", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 12
        q = special.chdtri(400, 0.05)
        for row in rows:
            for kind in StatKind:
                law = LimitLaw(kind, row["family"], 400, 0.5)
                if math.isinf(law.scale):
                    assert row[kind.value] == 0.0
                    continue
                shift = law.drift**2 * 400 * row["delta_component"] ** 2 / law.scale
                ref = 1.0 - special.chndtr(q, 400, shift)
                assert row[kind.value] == pytest.approx(ref, rel=1e-12, abs=0)


class TestDriftFactor:
    def test_equivariant_statistics_keep_delta(self):
        for family in ("gaussian", "cauchy", "light100"):
            for kind in (StatKind.T2, StatKind.T3, StatKind.T4):
                assert LimitLaw(kind, family, 4).drift == 1.0

    def test_trimmed_closed_form(self):
        # the constants the Monte Carlo offsets in TestOffsets converge to
        assert LimitLaw(StatKind.T1, "gaussian", 4, 0.5).drift == pytest.approx(0.4741, abs=1e-4)
        assert LimitLaw(StatKind.T1, "cauchy", 4, 0.5).drift == pytest.approx(0.7986, abs=1e-4)
        # P(1.02, v) / gamma with P(0.02, v) = 1/2, at 50 digits in mpmath
        light = LimitLaw(StatKind.T1, "light100", 4, 0.5).drift
        assert light == pytest.approx(4.969282016157037e-16, rel=1e-12, abs=0)

    @pytest.mark.parametrize("family, d, gamma", [("gaussian", 2, 0.3), ("cauchy", 6, 0.7)])
    def test_trimmed_matches_monte_carlo_offsets(self, family, d, gamma):
        # the derivation checked away from d = 4, gamma = 1/2: the closed form
        # against the covariance with the log-likelihood gradient
        spec = ContiguousSpec(np.full(d, 1.0), family, gamma=gamma)
        off = estimate_all_offsets(spec, (StatKind.T1,), reps=6000, seed=5)[StatKind.T1]
        kappa = LimitLaw(StatKind.T1, family, d, gamma).drift
        assert off.values.mean() == pytest.approx(kappa, abs=4 * off.stderr.mean())

    def test_gaussian_matches_chi2_density(self):
        for d, gamma in ((2, 0.3), (4, 0.5), (10, 0.8)):
            q = stats.chi2.ppf(gamma, d)
            expect = 1 - 2 * q * stats.chi2.pdf(q, d) / (d * gamma)
            assert LimitLaw(StatKind.T1, "gaussian", d, gamma).drift == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("d", (1, 4))
    def test_light100_refuses_where_its_quantile_underflows(self, d):
        with pytest.raises(InfiniteVariance, match="drift"):
            LimitLaw(StatKind.T1, "light100", d, 1e-8).drift

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

    def test_overflowing_shift_row_is_finite(self):
        (row,) = local_power_rows(["gaussian"], [-1e200], d=4)
        assert row["delta_norm"] == 2e200
        assert [row[kind.value] for kind in StatKind] == [1.0] * 4

    def test_cauchy_mean_column_zero(self):
        rows = local_power_rows(["cauchy"], [5.0], d=2)
        assert rows[0]["t2"] == 0.0

    @pytest.mark.parametrize("d, gamma, alpha", [(4, 0.5, 0.05), (1, 0.3, 0.1), (7, 1.0, 0.01)])
    def test_every_cell_is_the_contiguous_power(self, d, gamma, alpha):
        families = ("cauchy", "gaussian", "light100")
        components = (0.5, -0.5, 5.0, -5.0, 0.0, 1.25)
        rows = local_power_rows(families, components, d=d, gamma=gamma, alpha=alpha)
        assert [(r["family"], r["delta_component"]) for r in rows] == [
            (f, c) for f in families for c in components
        ]
        for row in rows:
            delta = np.full(d, row["delta_component"])
            for kind in StatKind:
                expect = contiguous_power(kind, row["family"], delta, gamma=gamma, alpha=alpha)
                assert np.float64(row[kind.value]).view(np.int64) == np.float64(expect).view(np.int64)

    def test_one_law_per_family_and_kind(self, monkeypatch):
        built = []

        def counting_law(*args, **kwargs):
            built.append(args)
            return LimitLaw(*args, **kwargs)

        monkeypatch.setattr(asymptotics, "LimitLaw", counting_law)
        # the table2 command's default grid: three families, four components
        local_power_rows(("cauchy", "gaussian", "light100"), (0.5, -0.5, 5.0, -5.0))
        assert len(built) == 12
        assert len(set(built)) == 12

    def test_rejects_alpha_outside_unit_interval(self):
        with pytest.raises(ValueError):
            local_power_rows(["gaussian"], [0.5], d=2, alpha=1.0)
