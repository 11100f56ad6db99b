import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special, stats

import oracles
from fstest import elliptical
from fstest import rng as rng_module
from fstest.elliptical import (
    CAUCHY,
    GAUSSIAN,
    LIGHT100,
    DensityGenerator,
    DivergentIntegral,
    EllipticalModel,
    FAMILY_TAGS,
    MixtureModel,
    component_variance,
    generator_by_name,
    marginal_density_at_zero,
    marginal_density_sq_integral,
    radial_integral,
    sample_mixture,
    standard_model,
    truncated_radial_mean,
)
from fstest.linalg import SpdMatrix, mahalanobis_sq_many
from fstest.rng import simulate, stream_rng

ALL_GENERATORS = (GAUSSIAN, CAUCHY, LIGHT100)


ORACLE_DS = (1, 2, 3, 4, 10, 50, 100)
LARGE_DS = (343, 400, 1000)


class TestRadialIntegrals:
    def test_gaussian_closed_form(self):
        # integral of x^{d/2+p-1} e^{-x/2} = 2^{d/2+p} Gamma(d/2+p)
        for d in (1, 2, 4, 7):
            for p in (0, 1):
                expect = 2 ** (d / 2 + p) * math.gamma(d / 2 + p)
                assert radial_integral(GAUSSIAN, d, p) == pytest.approx(expect, rel=1e-12)

    def test_rejects_unsupported_power(self):
        with pytest.raises(ValueError):
            radial_integral(GAUSSIAN, 4, 2)

    def test_cauchy_zeroth_moment(self):
        for d in (1, 2, 4, 9):
            expect = math.sqrt(math.pi) * math.gamma(d / 2) / math.gamma((d + 1) / 2)
            assert radial_integral(CAUCHY, d, 0) == pytest.approx(expect, rel=1e-12)

    def test_cauchy_first_moment_diverges(self):
        with pytest.raises(DivergentIntegral):
            radial_integral(CAUCHY, 4, 1)

    def test_light_tail_closed_form(self):
        for d in (2, 4, 10):
            for p in (0, 1):
                expect = math.gamma((d / 2 + p) / 100) / 100
                assert radial_integral(LIGHT100, d, p) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("gen", ALL_GENERATORS, ids=lambda g: g.tag)
    @pytest.mark.parametrize("d", (1, 2, 4, 7))
    def test_quadrature_matches_closed(self, gen, d):
        for p in (0, 1):
            try:
                closed = radial_integral(gen, d, p)
            except DivergentIntegral:
                with pytest.raises(DivergentIntegral):
                    oracles.radial_integral(gen, d, p)
                continue
            quad = oracles.radial_integral(gen, d, p)
            assert quad == pytest.approx(closed, rel=1e-8)

    def test_density_integrates_to_one(self):
        # k * surface(d) * I_0 = 1 by construction of the normalizing constant
        for gen in ALL_GENERATORS:
            for d in (1, 3, 5):
                k = oracles.normalizing_constant(gen, d)
                shell = math.pi ** (d / 2) / math.gamma(d / 2)
                total = k * shell * radial_integral(gen, d, 0)
                assert total == pytest.approx(1.0, rel=1e-10)

    def test_gaussian_constant_is_familiar(self):
        assert oracles.normalizing_constant(GAUSSIAN, 3) == pytest.approx(
            (2 * math.pi) ** -1.5, rel=1e-12
        )


    @pytest.mark.parametrize("d", (300, 303, 343, 344, 400))
    def test_gaussian_beyond_the_overflow_of_i0(self, d):
        # I0 = 2^{d/2} Gamma(d/2) is inf from d = 303 and math.gamma raises from
        # d = 344; log k and the radial moments stay finite and exact
        assert elliptical._log_norm_const(GAUSSIAN, d) == pytest.approx(
            -(d / 2) * math.log(2 * math.pi), rel=1e-12
        )
        assert component_variance(GAUSSIAN, d) == 1.0
        assert truncated_radial_mean(GAUSSIAN, d, 1.0) == d

    @pytest.mark.parametrize("method", ("closed", "quadrature"))
    @pytest.mark.parametrize("power", (0, 1))
    @pytest.mark.parametrize("d", (300, 302, 303, 343, 344))
    def test_gaussian_overflow_follows_log_i_on_both_paths(self, d, power, method):
        # I_p leaves the float range where log I_p does: from d = 303 at p = 0 and
        # d = 301 at p = 1; below that the closed form and the quadrature oracle agree
        integral = radial_integral if method == "closed" else oracles.radial_integral
        log_i = (d / 2 + power) * math.log(2) + math.lgamma(d / 2 + power)
        assert (log_i > math.log(sys.float_info.max)) == (d >= (303, 301)[power])
        if d >= (303, 301)[power]:
            with pytest.raises(OverflowError):
                integral(GAUSSIAN, d, power)
        else:
            value = integral(GAUSSIAN, d, power)
            assert math.isfinite(value) and value == pytest.approx(math.exp(log_i), rel=1e-12)

    @pytest.mark.parametrize("d", (1, 2, 3, 10, 100, 300, 343, 400, 1000))
    def test_gaussian_quadrature_in_log_space(self, d):
        # log I_p = (d/2 + p) log 2 + lgamma(d/2 + p), though I_p leaves the float range from d = 301
        for p in (0, 1):
            assert oracles.log_radial_integral(GAUSSIAN, d, p) == pytest.approx(
                (d / 2 + p) * math.log(2) + math.lgamma(d / 2 + p), rel=1e-14, abs=1e-14
            )

    def test_every_kernel_method_is_required(self):
        bare = DensityGenerator()
        for method, args in [("radial_integral_closed", (4, 0)), ("g1_zero_closed", (4,)),
                             ("int_g1_sq_closed", (4,))]:
            with pytest.raises(NotImplementedError):
                getattr(bare, method)(*args)

class TestGeneratorLookup:
    def test_known_names(self):
        assert set(FAMILY_TAGS) == {"gaussian", "cauchy", "light100"}
        for tag in FAMILY_TAGS:
            assert generator_by_name(tag).tag == tag

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            generator_by_name("laplace")


class TestMarginals:
    def test_gaussian_marginal_is_standard_normal(self):
        for d in (1, 2, 5):
            assert marginal_density_at_zero(GAUSSIAN, d) == pytest.approx(
                1 / math.sqrt(2 * math.pi), rel=1e-10
            )
        for t in (-1.3, 0.0, 0.7):
            assert oracles.marginal_density(GAUSSIAN, 4, t) == pytest.approx(
                stats.norm.pdf(t), rel=1e-9
            )

    def test_cauchy_marginal_is_standard_cauchy(self):
        for d in (1, 3, 6):
            assert marginal_density_at_zero(CAUCHY, d) == pytest.approx(1 / math.pi, rel=1e-9)
        for t in (-2.0, 0.5):
            assert oracles.marginal_density(CAUCHY, 3, t) == pytest.approx(
                stats.cauchy.pdf(t), rel=1e-8
            )

    def test_light_tail_values(self):
        # frozen quadrature values, d = 4
        assert marginal_density_at_zero(LIGHT100, 4) == pytest.approx(0.851158716, rel=1e-8)
        assert marginal_density_sq_integral(LIGHT100, 4) == pytest.approx(0.660528822, rel=1e-8)

    def test_sq_integral_closed_forms(self):
        assert marginal_density_sq_integral(GAUSSIAN, 4) == pytest.approx(
            1 / (2 * math.sqrt(math.pi)), rel=1e-10
        )
        assert marginal_density_sq_integral(CAUCHY, 4) == pytest.approx(
            1 / (2 * math.pi), rel=1e-10
        )

    def test_closed_matches_quadrature(self):
        for gen in (GAUSSIAN, CAUCHY):
            for d in (2, 4):
                assert oracles.marginal_density_at_zero(gen, d) == pytest.approx(
                    marginal_density_at_zero(gen, d), rel=1e-8
                )
                assert oracles.marginal_density_sq_integral(gen, d) == pytest.approx(
                    marginal_density_sq_integral(gen, d), rel=1e-8
                )

    def test_quadrature_does_not_run_the_light100_rule(self, monkeypatch):
        def rule(d):
            raise AssertionError("the fixed rule ran on the quadrature path")

        monkeypatch.setattr(elliptical, "_light100_g1_sq_integral", rule)
        oracles.marginal_density_sq_integral.cache_clear()
        assert oracles.marginal_density_sq_integral(LIGHT100, 4) == pytest.approx(
            0.660528822, rel=1e-8
        )

    def test_marginal_integrates_to_one(self):
        grid = np.linspace(-1.25, 1.25, 3001)
        vals = [oracles.marginal_density(LIGHT100, 4, t) for t in grid]
        assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("d", LARGE_DS)
    def test_light100_quadrature_works_at_large_d(self, d):
        # the front k(d) pi^{(d-1)/2} / Gamma((d-1)/2) overflowed from d = 342 in linear space
        assert oracles.marginal_density_at_zero(LIGHT100, d) == pytest.approx(
            marginal_density_at_zero(LIGHT100, d), rel=1e-9
        )


class TestLimitConstantOracles:
    """The closed forms and the fixed rule of the limit-law constants against scipy's quadrature."""

    @pytest.mark.parametrize("d", ORACLE_DS)
    @pytest.mark.parametrize("gamma", (0.3, 0.5, 0.7))
    def test_cauchy_truncated_mean(self, d, gamma):
        # E[x 1{x <= q}] in u = x/(1+x) ~ Beta(d/2, 1/2), integrated numerically up to u(q)
        b = float(special.betaincinv(d / 2, 0.5, gamma))
        head, _ = integrate.quad(lambda u: u ** (d / 2) * (1 - u) ** -1.5, 0.0, b,
                                 epsabs=0.0, epsrel=1e-13, limit=500)
        assert truncated_radial_mean(CAUCHY, d, gamma) == pytest.approx(
            head / special.beta(d / 2, 0.5), rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("d", ORACLE_DS)
    @pytest.mark.parametrize("gamma", (0.3, 0.5, 0.7))
    def test_light100_truncated_mean(self, d, gamma):
        # the squared radius has density x^{d/2-1} exp(-x^100) / I0, I0 = Gamma(d/200) / 100
        q = oracles.radial_quantile(LIGHT100, d, gamma)
        points = [p for p in (0.9, 0.95, 0.98, 1.0) if p < q] or None
        head, _ = integrate.quad(lambda x: x ** (d / 2) * math.exp(-(x**100)), 0.0, q,
                                 epsabs=0.0, epsrel=1e-13, limit=500, points=points)
        assert truncated_radial_mean(LIGHT100, d, gamma) == pytest.approx(
            head * 100 / math.gamma(d / 200), rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("d", ORACLE_DS)
    def test_light100_marginal_constants(self, d):
        for closed, quad in ((marginal_density_at_zero, oracles.marginal_density_at_zero),
                             (marginal_density_sq_integral, oracles.marginal_density_sq_integral)):
            assert closed(LIGHT100, d) == pytest.approx(quad(LIGHT100, d), rel=1e-12, abs=0)

    @pytest.mark.parametrize("d", LARGE_DS)
    def test_light100_sq_integral_rule_is_converged(self, d, monkeypatch):
        rule = elliptical._light100_g1_sq_integral(d)
        monkeypatch.setattr(elliptical, "_LIGHT100_NODES", 2 * elliptical._LIGHT100_NODES)
        assert rule == pytest.approx(elliptical._light100_g1_sq_integral(d), rel=1e-13, abs=0)


class TestRadialLaw:
    @pytest.mark.parametrize("d", (1, 2, 3, 4, 7, 10, 29, 50, 100, 200, 500))
    def test_gaussian_math_path_matches_special(self, d):
        # the gaussian branches use only math: P(a, x) by its power series,
        # its inverse by bisection, and E[x 1{x <= q}] = d P(d/2 + 1, q/2)
        for gamma in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            q = 2 * special.gammaincinv(d / 2, gamma)
            assert oracles.radial_quantile(GAUSSIAN, d, gamma) == pytest.approx(q, rel=1e-12)
            assert truncated_radial_mean(GAUSSIAN, d, gamma) == pytest.approx(
                d * special.gammainc(d / 2 + 1, q / 2), rel=1e-12
            )
        # far tails, where the first series term underflows
        for x in (1e-3, 1.0, 50.0, 700.0, 1500.0, 1e5):
            ref = special.gammainc(d / 2, x / 2)
            assert oracles.radial_cdf(GAUSSIAN, d, x) == pytest.approx(ref, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("gamma", (1e-3, 1e-8, 1e-20, 1e-100))
    @pytest.mark.parametrize("d", (1, 2, 3, 4, 10, 100))
    def test_gaussian_truncated_mean_at_small_gamma(self, d, gamma):
        # P(d/2 + 1, y) = gamma - y^{d/2} e^{-y} / Gamma(d/2 + 1) cancels as gamma -> 0;
        # the series keeps it within 2e-13 of scipy's (at 1e-100 and d = 1 it is 5.2e-301)
        ref = d * special.gammainc(d / 2 + 1, special.gammaincinv(d / 2, gamma))
        assert truncated_radial_mean(GAUSSIAN, d, gamma) == pytest.approx(ref, rel=2e-13)

    def test_quantile_inverts_cdf(self):
        for gen in ALL_GENERATORS:
            for p in (0.1, 0.5, 0.9):
                x = oracles.radial_quantile(gen, 4, p)
                assert oracles.radial_cdf(gen, 4, x) == pytest.approx(p, abs=1e-9)

    def test_unregistered_kernel_raises(self):
        class Logistic(DensityGenerator):
            tag = "logistic"

        with pytest.raises(ValueError, match="'logistic'"):
            oracles.radial_cdf(Logistic(), 2, 1.0)
        with pytest.raises(ValueError, match="'logistic'"):
            oracles.radial_quantile(Logistic(), 2, 0.5)

    def test_light_tail_radius_is_bounded_near_one(self):
        # R^2 concentrates near 1: the generator collapses past the shell
        q99 = oracles.radial_quantile(LIGHT100, 4, 0.99)
        assert 0.9 < q99 < 1.1

    def test_truncated_mean_full_fraction(self):
        # gamma = 1 recovers E[R^2] / d ... times d: full mean I1/I0 = d for Gaussian
        assert truncated_radial_mean(GAUSSIAN, 4, 1.0) == pytest.approx(4.0, rel=1e-9)

    def test_truncated_mean_monotone_in_gamma(self):
        values = [truncated_radial_mean(GAUSSIAN, 4, g) for g in (0.2, 0.5, 0.8, 1.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_component_variance(self):
        assert component_variance(GAUSSIAN, 4) == pytest.approx(1.0, rel=1e-10)
        assert component_variance(CAUCHY, 4) == math.inf
        # light tails concentrate far inside the unit shell
        expect = math.gamma(0.03) / (4 * math.gamma(0.02))
        assert component_variance(LIGHT100, 4) == pytest.approx(expect, rel=1e-10)


class TestModel:
    def test_gaussian_density_matches_scipy(self, rng):
        # the package's log k(d) and the oracle's log g give the density at any location and scatter
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T + 3 * np.eye(3)
        mu = np.array([1.0, -2.0, 0.5])
        y = rng.standard_normal((5, 3))
        x = mahalanobis_sq_many(y, mu, SpdMatrix(sigma))
        log_density = elliptical._log_norm_const(GAUSSIAN, 3) - 0.5 * np.linalg.slogdet(sigma)[1]
        log_density += oracles.log_g("gaussian", x, 3)
        expect = stats.multivariate_normal(mu, sigma).logpdf(y)
        assert np.allclose(log_density, expect, rtol=1e-10)

    def test_cauchy_density_matches_scipy_t1(self, rng):
        y = rng.standard_normal((5, 2))
        log_density = elliptical._log_norm_const(CAUCHY, 2) + oracles.log_g("cauchy", (y * y).sum(axis=1), 2)
        expect = stats.multivariate_t(np.zeros(2), np.eye(2), df=1).logpdf(y)
        assert np.allclose(log_density, expect, rtol=1e-10)

    def test_score_matches_finite_differences(self, rng):
        # g'/g, and the location score -2 g'(x)/g(x) y of the kappa check at x = |y|^2, against
        # central differences of the oracle's log g; the last five rows sit at x in [0.9, 1],
        # where light100's kernel turns over and its score is far from zero
        step = 1e-6
        u = rng.standard_normal((5, 3))
        u *= np.sqrt(np.linspace(0.9, 1.0, 5) / (u * u).sum(axis=1))[:, None]
        for family in FAMILY_TAGS:
            gen = generator_by_name(family)
            y = np.concatenate([0.5 * rng.standard_normal((4, 3)), u])
            x = (y * y).sum(axis=1)
            fd = (oracles.log_g(family, x + step, 3) - oracles.log_g(family, x - step, 3)) / (2 * step)
            assert np.allclose(gen.dlog_g(x, 3), fd, rtol=1e-5, atol=1e-7), family
            score = -2.0 * gen.dlog_g(x, 3)[:, None] * y
            assert np.allclose(score, oracles.location_score_fd(family, y, step), rtol=1e-5, atol=1e-7), family

    @pytest.mark.parametrize("family", FAMILY_TAGS)
    def test_score_under_general_scatter(self, family, rng):
        # the location score -2 g'(x)/g(x) Sigma^{-1} (y - mu), x the squared Mahalanobis
        # distance, against central differences in mu of log g(x); the distances sit in
        # [0.9, 1], where light100's kernel turns over and its score is far from zero
        sigma = SpdMatrix([[2.0, 0.6, 0.2], [0.6, 1.0, 0.3], [0.2, 0.3, 1.5]])
        mu = np.array([0.5, -1.0, 2.0])
        gen = generator_by_name(family)
        u = rng.standard_normal((5, 3))
        u *= np.sqrt(np.linspace(0.9, 1.0, 5) / (u * u).sum(axis=1))[:, None]
        y = mu + u @ sigma.cholesky_factor.T
        x = mahalanobis_sq_many(y, mu, sigma)
        score = -2.0 * gen.dlog_g(x, 3)[:, None] * ((y - mu) @ sigma.inverse)
        step = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            ahead = oracles.log_g(family, mahalanobis_sq_many(y, mu + e, sigma), 3)
            behind = oracles.log_g(family, mahalanobis_sq_many(y, mu - e, sigma), 3)
            assert np.allclose(score[:, j], (ahead - behind) / (2 * step), rtol=1e-7, atol=1e-9)

    def test_gaussian_sample_moments(self):
        model = EllipticalModel(GAUSSIAN, 2, [3.0, -1.0], [[2.0, 0.6], [0.6, 1.0]])
        x = model.sample(60_000, np.random.default_rng(5))
        assert np.allclose(x.mean(axis=0), [3.0, -1.0], atol=0.03)
        assert np.allclose(np.cov(x.T), [[2.0, 0.6], [0.6, 1.0]], atol=0.05)

    def test_cauchy_sample_median_and_tails(self):
        model = standard_model("cauchy", 3)
        x = model.sample(40_000, np.random.default_rng(6))
        assert np.allclose(np.median(x, axis=0), 0.0, atol=0.03)
        # no second moment: extreme draws dwarf the bulk
        assert np.abs(x).max() > 1e3

    def test_sample_radii_match_radial_cdf(self):
        for family in FAMILY_TAGS:
            model = standard_model(family, 4)
            x = model.sample(20_000, np.random.default_rng(7))
            r2 = np.sum(x * x, axis=1)
            for p in (0.25, 0.5, 0.75):
                q = oracles.radial_quantile(model.generator, 4, p)
                assert np.mean(r2 <= q) == pytest.approx(p, abs=0.015), family

    def test_dimension_validation(self):
        with pytest.raises(Exception):
            EllipticalModel(GAUSSIAN, 2, [1.0, 2.0, 3.0])


class TestMixture:
    def make(self, beta):
        base = standard_model("gaussian", 2)
        return MixtureModel(beta, base, EllipticalModel(GAUSSIAN, 2, [5.0, 5.0]))

    def test_beta_zero_is_null(self):
        x = sample_mixture(self.make(0.0), 500, np.random.default_rng(1))
        assert np.abs(x.mean(axis=0)).max() < 0.5

    def test_beta_one_is_shifted(self):
        x = sample_mixture(self.make(1.0), 500, np.random.default_rng(2))
        assert np.abs(x.mean(axis=0) - 5.0).max() < 0.5

    def test_mixing_fraction(self):
        x = sample_mixture(self.make(0.3), 20_000, np.random.default_rng(3))
        shifted = np.sum(x[:, 0] > 2.5) / x.shape[0]
        assert shifted == pytest.approx(0.3, abs=0.02)

    def test_block_draw_picks_components_by_u(self):
        # one block of 64 replications: the shifted share is beta within 4 binomial SE,
        # and each component's rows centre on its location under the shared scatter
        beta, mixture = 0.3, _sampler("gaussian", 0.3, scatter=True)
        z, aux, u = mixture.buffers(64, 100)
        mixture.draw(np.random.default_rng(4), z, aux, u)
        shifted = u < beta
        x = mixture.finish(z, aux, u)
        assert abs(shifted.mean() - beta) <= 4 * math.sqrt(beta * (1 - beta) / u.size)
        sd = np.sqrt(np.diag(_SCATTER.entries))
        for rows, component in ((shifted, mixture.shifted_component), (~shifted, mixture.null_component)):
            k = np.count_nonzero(rows)
            assert np.all(np.abs(x[rows].mean(axis=0) - component.mu) <= 4 * sd / math.sqrt(k))

    @pytest.mark.parametrize("family", FAMILY_TAGS)
    @pytest.mark.parametrize("scatter", (False, True))
    @pytest.mark.parametrize("scratch", (None, 4 * 7 + 3))
    def test_gathered_locations_keep_the_masked_bits(self, family, scatter, scratch, monkeypatch):
        # finish gathers each row's location by u < beta, a block of rows at a time; it
        # must give the bits of the two masked adds it replaced, whatever the block
        if scratch is not None:
            monkeypatch.setattr(elliptical.est, "_SCRATCH_FLOATS", scratch)  # blocks of 7 rows of d + 1 floats
        mixture = _sampler(family, 0.3, scatter=scatter)
        z, aux, u = mixture.buffers(5, 41)
        mixture.draw(np.random.default_rng(6), z, aux, u)
        null = mixture.null_component
        masked, masked_aux = z.copy(), aux.copy()
        null.generator.finish(3, masked, masked_aux)
        masked = _scatter(null, masked)
        shifted = (u < mixture.beta)[..., None]
        np.add(masked, mixture.shifted_component.mu, out=masked, where=shifted)
        np.add(masked, null.mu, out=masked, where=~shifted)
        assert np.array_equal(_bits(mixture.finish(z, aux, u)), _bits(masked))

    def test_gather_scratch_stays_one_block(self):
        # a batch of 2,000 x 100 x 3 (4.8 MB) adds its locations within the 2 MB budget
        mixture = _sampler("gaussian", 0.3)
        z, aux, u = mixture.buffers(2000, 100)
        mixture.draw(np.random.default_rng(7), z, aux, u)
        tracemalloc.start()
        try:
            mixture.finish(z, aux, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the block of locations, and u < beta (two bools per row)
        assert peak <= 8 * elliptical.est._SCRATCH_FLOATS + 2 * u.size + 4096

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            self.make(1.5)

    def test_rejects_mismatched_components(self):
        with pytest.raises(ValueError):
            MixtureModel(0.5, standard_model("gaussian", 2), standard_model("cauchy", 2))

    def test_rejects_mismatched_scatter(self):
        base = standard_model("gaussian", 2)
        other = EllipticalModel(GAUSSIAN, 2, [5.0, 5.0], [[2.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            MixtureModel(0.5, base, other)


# ---------------------------------------------------------------------------
# bit identity of the block samplers against the one-replication formulas
# ---------------------------------------------------------------------------

def _oracle_standard(family, d, shape, rng):
    """Draws of shape (*shape, d) from the standard member, formula by formula, one
    numpy call per variate as sampled before draws and transforms were split."""
    if family == "gaussian":
        return rng.standard_normal((*shape, d))
    if family == "cauchy":
        z = rng.standard_normal((*shape, d))
        return z / np.sqrt(rng.chisquare(1, size=shape))[..., None]
    r_sq = np.power(rng.gamma(d / 200, size=shape), 1.0 / 100)
    z = rng.standard_normal((*shape, d))
    return np.sqrt(r_sq)[..., None] * (z / np.linalg.norm(z, axis=-1, keepdims=True))


def _scatter(model, z):
    return z if model.sigma.is_identity else z @ model.sigma.cholesky_factor.T


def _oracle_model(model, shape, rng):
    return _scatter(model, _oracle_standard(model.family, model.d, shape, rng)) + model.mu


def _oracle_mixture(mixture, shape, rng):
    take = rng.random(shape) < mixture.beta
    null, shifted = mixture.null_component, mixture.shifted_component
    z = _scatter(null, _oracle_standard(null.family, null.d, shape, rng))
    return z + np.where(take[..., None], shifted.mu, null.mu)


def _oracle(sampler, shape, rng):
    if isinstance(sampler, MixtureModel):
        return _oracle_mixture(sampler, shape, rng)
    return _oracle_model(sampler, shape, rng)


def _keep(data):
    return {"data": data}


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


_SCATTER = SpdMatrix([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 0.7]])


def _sampler(family, beta=None, scatter=False):
    """A model (beta None) or mixture of the family at d = 3; ``scatter`` adds a
    non-identity scatter and a nonzero null location."""
    gen = generator_by_name(family)
    sigma = _SCATTER if scatter else None
    null = EllipticalModel(gen, 3, [0.5, -1.0, 2.0] if scatter else None, sigma)
    if beta is None:
        return null
    return MixtureModel(beta, null, EllipticalModel(gen, 3, [5.0, 5.0, -4.0], sigma))


SAMPLERS = [
    pytest.param(family, beta, scatter, id=f"{family}-{beta}-{'scatter' if scatter else 'I'}")
    for family in FAMILY_TAGS
    for beta in (None, 0.0, 0.3, 1.0)
    for scatter in (False, True)
]


class TestBlockSamplers:
    """simulate's draw-then-finish per stream block against the formulas."""

    PATH = ("power", "oracle")

    def reference(self, sampler, n, reps, seed=5):
        """Stream block k: replications 64k.. drawn at once from (seed, *PATH, "block", k)."""
        return np.concatenate([
            _oracle(sampler, (min(64, reps - first), n), stream_rng(seed, *self.PATH, "block", first // 64))
            for first in range(0, reps, 64)
        ])

    @pytest.mark.parametrize("family, beta, scatter", SAMPLERS)
    def test_simulate_equals_oracle(self, family, beta, scatter):
        sampler = _sampler(family, beta, scatter)
        got = simulate(sampler, _keep, self.PATH, 17, 70, 5)["data"]
        assert got.flags.c_contiguous
        assert np.array_equal(_bits(got), _bits(self.reference(sampler, 17, 70)))

    @pytest.mark.parametrize("family, beta, scatter", SAMPLERS)
    def test_single_sample_equals_oracle(self, family, beta, scatter):
        sampler = _sampler(family, beta, scatter)
        sample = sampler.sample if beta is None else lambda n, rng: sample_mixture(sampler, n, rng)
        for n in (0, 1, 25):
            got = sample(n, np.random.default_rng(n))
            assert np.array_equal(_bits(got), _bits(_oracle(sampler, (n,), np.random.default_rng(n))))

    @pytest.mark.parametrize("family", FAMILY_TAGS)
    def test_across_block_bounds_and_workers(self, monkeypatch, family):
        sampler = _sampler(family, 0.3, scatter=True)
        for reps in (25, 129, 200):
            want = self.reference(sampler, 11, reps)
            # batches of one stream block, then batches split between two threads
            with monkeypatch.context() as m:
                m.setattr(rng_module, "SIMULATION_BLOCK_FLOATS", 64 * 11 * 3)
                got = simulate(sampler, _keep, self.PATH, 11, reps, 5)["data"]
            assert np.array_equal(_bits(got), _bits(want)), reps
            with monkeypatch.context() as m:
                m.setattr("os.cpu_count", lambda: 2)
                m.setenv("FSTEST_THREADS", "2")
                got = simulate(sampler, _keep, self.PATH, 11, reps, 5)["data"]
            assert np.array_equal(_bits(got), _bits(want)), reps

    @pytest.mark.parametrize("beta", (None, 0.3))
    def test_no_replications(self, beta):
        got = simulate(_sampler("light100", beta), _keep, self.PATH, 9, 0, 5)["data"]
        assert got.shape == (0, 9, 3)

    @pytest.mark.parametrize("n, d", [(100, 4), (10, 100), (3, 7)])
    def test_blocked_cholesky_product_equals_per_replication(self, n, d):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d))
        factor = SpdMatrix(a @ a.T + d * np.eye(d)).cholesky_factor
        z = rng.standard_normal((6, n, d))
        per_replication = np.stack([zi @ factor.T for zi in z])
        assert np.array_equal(_bits(z @ factor.T), _bits(per_replication))
