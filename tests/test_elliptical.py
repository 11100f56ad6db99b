import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special, stats

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
    marginal_density,
    marginal_density_at_zero,
    marginal_density_sq_integral,
    normalizing_constant,
    radial_cdf,
    radial_integral,
    radial_quantile,
    sample_mixture,
    standard_model,
    truncated_radial_mean,
)
from fstest.linalg import SpdMatrix
from fstest.rng import replication_slices, simulate, stream_rng

ALL_GENERATORS = (GAUSSIAN, CAUCHY, LIGHT100)


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
                closed = radial_integral(gen, d, p, method="closed")
            except DivergentIntegral:
                with pytest.raises(DivergentIntegral):
                    radial_integral(gen, d, p, method="quadrature")
                continue
            quad = radial_integral(gen, d, p, method="quadrature")
            assert quad == pytest.approx(closed, rel=1e-8)

    def test_density_integrates_to_one(self):
        # k * surface(d) * I_0 = 1 by construction of the normalizing constant
        for gen in ALL_GENERATORS:
            for d in (1, 3, 5):
                k = normalizing_constant(gen, d)
                shell = math.pi ** (d / 2) / math.gamma(d / 2)
                total = k * shell * radial_integral(gen, d, 0)
                assert total == pytest.approx(1.0, rel=1e-10)

    def test_gaussian_constant_is_familiar(self):
        assert normalizing_constant(GAUSSIAN, 3) == pytest.approx(
            (2 * math.pi) ** -1.5, rel=1e-12
        )


    @pytest.mark.parametrize("d", (300, 303, 343, 344, 400))
    def test_gaussian_beyond_the_overflow_of_i0(self, d):
        # I0 = 2^{d/2} Gamma(d/2) is inf from d = 303 and math.gamma raises from
        # d = 344; log k and the radial moments stay finite and exact
        assert standard_model("gaussian", d).log_k == pytest.approx(
            -(d / 2) * math.log(2 * math.pi), rel=1e-12
        )
        assert component_variance(GAUSSIAN, d) == 1.0
        assert truncated_radial_mean(GAUSSIAN, d, 1.0) == d

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
            assert marginal_density(GAUSSIAN, 4, t) == pytest.approx(
                stats.norm.pdf(t), rel=1e-9
            )

    def test_cauchy_marginal_is_standard_cauchy(self):
        for d in (1, 3, 6):
            assert marginal_density_at_zero(CAUCHY, d) == pytest.approx(1 / math.pi, rel=1e-9)
        for t in (-2.0, 0.5):
            assert marginal_density(CAUCHY, 3, t) == pytest.approx(
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
                assert marginal_density_at_zero(gen, d, method="quadrature") == pytest.approx(
                    marginal_density_at_zero(gen, d, method="closed"), rel=1e-8
                )
                assert marginal_density_sq_integral(gen, d, method="quadrature") == pytest.approx(
                    marginal_density_sq_integral(gen, d, method="closed"), rel=1e-8
                )

    def test_marginal_integrates_to_one(self):
        grid = np.linspace(-1.25, 1.25, 3001)
        vals = [marginal_density(LIGHT100, 4, t) for t in grid]
        assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-6)


class TestRadialLaw:
    def test_gaussian_cdf_is_chi2(self):
        for d in (1, 4):
            for x in (0.5, 2.0, 6.0):
                assert radial_cdf(GAUSSIAN, d, x) == pytest.approx(
                    stats.chi2.cdf(x, d), rel=1e-9
                )

    @pytest.mark.parametrize("d", (1, 2, 3, 4, 7, 10, 29, 50, 100, 200, 500))
    def test_gaussian_math_path_matches_special(self, d):
        # the gaussian branches use only math: P(a, x) by its power series,
        # its inverse by bisection, and E[x 1{x <= q}] = d P(d/2 + 1, q/2)
        for gamma in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            q = 2 * special.gammaincinv(d / 2, gamma)
            assert radial_quantile(GAUSSIAN, d, gamma) == pytest.approx(q, rel=1e-12)
            assert truncated_radial_mean(GAUSSIAN, d, gamma) == pytest.approx(
                d * special.gammainc(d / 2 + 1, q / 2), rel=1e-12
            )
        # far tails, where the first series term underflows
        for x in (1e-3, 1.0, 50.0, 700.0, 1500.0, 1e5):
            ref = special.gammainc(d / 2, x / 2)
            assert radial_cdf(GAUSSIAN, d, x) == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_quantile_inverts_cdf(self):
        for gen in ALL_GENERATORS:
            for p in (0.1, 0.5, 0.9):
                x = radial_quantile(gen, 4, p)
                assert radial_cdf(gen, 4, x) == pytest.approx(p, abs=1e-9)

    def test_unregistered_kernel_raises(self):
        class Logistic(DensityGenerator):
            tag = "logistic"

        with pytest.raises(ValueError, match="'logistic'"):
            radial_cdf(Logistic(), 2, 1.0)
        with pytest.raises(ValueError, match="'logistic'"):
            radial_quantile(Logistic(), 2, 0.5)

    @given(st.floats(0.0, 30.0), st.floats(0.0, 30.0))
    def test_cdf_monotone(self, a, b):
        lo, hi = sorted((a, b))
        fa = radial_cdf(CAUCHY, 3, lo)
        fb = radial_cdf(CAUCHY, 3, hi)
        assert 0.0 <= fa <= fb <= 1.0

    def test_light_tail_radius_is_bounded_near_one(self):
        # R^2 concentrates near 1: the generator collapses past the shell
        q99 = radial_quantile(LIGHT100, 4, 0.99)
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
    def test_log_density_matches_density(self, rng):
        model = standard_model("gaussian", 3)
        y = rng.standard_normal((6, 3))
        assert np.allclose(np.exp(model.log_density(y)), model.density(y), rtol=1e-12)

    def test_gaussian_density_matches_scipy(self, rng):
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T + 3 * np.eye(3)
        mu = np.array([1.0, -2.0, 0.5])
        model = EllipticalModel(GAUSSIAN, 3, mu, sigma)
        y = rng.standard_normal((5, 3))
        expect = stats.multivariate_normal(mu, sigma).logpdf(y)
        assert np.allclose(model.log_density(y), expect, rtol=1e-10)

    def test_cauchy_density_matches_scipy_t1(self, rng):
        model = standard_model("cauchy", 2)
        y = rng.standard_normal((5, 2))
        expect = stats.multivariate_t(np.zeros(2), np.eye(2), df=1).logpdf(y)
        assert np.allclose(model.log_density(y), expect, rtol=1e-10)

    def test_with_location_shifts(self, rng):
        model = standard_model("gaussian", 2)
        shifted = model.with_location([1.0, 2.0])
        y = rng.standard_normal((4, 2))
        assert np.allclose(
            shifted.log_density(y), model.log_density(y - [1.0, 2.0]), rtol=1e-12
        )

    def test_score_matches_finite_differences(self, rng):
        step = 1e-6
        for family in FAMILY_TAGS:
            model = standard_model(family, 3)
            y = 0.5 * rng.standard_normal((4, 3))
            score = model.location_score(y)
            for j in range(3):
                e = np.zeros(3)
                e[j] = step
                fd = (
                    model.with_location(e).log_density(y)
                    - model.with_location(-e).log_density(y)
                ) / (2 * step)
                assert np.allclose(score[:, j], fd, rtol=1e-5, atol=1e-7), family

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
                q = radial_quantile(model.generator, 4, p)
                assert np.mean(r2 <= q) == pytest.approx(p, abs=0.015), family

    def test_dimension_validation(self):
        with pytest.raises(Exception):
            EllipticalModel(GAUSSIAN, 2, [1.0, 2.0, 3.0])


class TestMixture:
    def make(self, beta):
        base = standard_model("gaussian", 2)
        return MixtureModel(beta, base, base.with_location([5.0, 5.0]))

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

def _oracle_standard(family, d, n, rng):
    """One replication of the standard member, formula by formula as sampled
    before draws and transforms were split."""
    if family == "gaussian":
        return rng.standard_normal((n, d))
    if family == "cauchy":
        z = rng.standard_normal((n, d))
        return z / np.sqrt(rng.chisquare(1, size=n))[:, None]
    r_sq = np.power(rng.gamma(d / 200, size=n), 1.0 / 100)
    z = rng.standard_normal((n, d))
    return np.sqrt(r_sq)[:, None] * (z / np.linalg.norm(z, axis=1, keepdims=True))


def _oracle_model(model, n, rng):
    z = _oracle_standard(model.family, model.d, n, rng)
    if not model.sigma.is_identity:
        z = z @ model.sigma.cholesky_factor.T
    return z + model.mu


def _oracle_mixture(mixture, n, rng):
    take = rng.random(n) < mixture.beta
    k = int(take.sum())
    out = np.empty((n, mixture.null_component.d))
    if k:
        out[take] = _oracle_model(mixture.shifted_component, k, rng)
    if n - k:
        out[~take] = _oracle_model(mixture.null_component, n - k, rng)
    return out


def _oracle(sampler, n, rng):
    if isinstance(sampler, MixtureModel):
        return _oracle_mixture(sampler, n, rng)
    return _oracle_model(sampler, n, rng)


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
    """simulate's draw-then-finish-per-block against the one-replication formulas."""

    PATH = ("power", "oracle")

    def reference(self, sampler, n, reps, seed=5):
        return np.stack(
            [_oracle(sampler, n, stream_rng(seed, *self.PATH, r)) for r in reps]
        ).reshape(len(reps), n, sampler.d)

    @pytest.mark.parametrize("family, beta, scatter", SAMPLERS)
    def test_simulate_equals_oracle(self, family, beta, scatter):
        sampler = _sampler(family, beta, scatter)
        got = simulate(sampler, _keep, self.PATH, 17, 30, 5)["data"]
        assert got.flags.c_contiguous
        assert np.array_equal(_bits(got), _bits(self.reference(sampler, 17, range(30))))

    @pytest.mark.parametrize("family, beta, scatter", SAMPLERS)
    def test_single_sample_equals_oracle(self, family, beta, scatter):
        sampler = _sampler(family, beta, scatter)
        sample = sampler.sample if beta is None else lambda n, rng: sample_mixture(sampler, n, rng)
        for n in (0, 1, 25):
            got = sample(n, np.random.default_rng(n))
            assert np.array_equal(_bits(got), _bits(_oracle(sampler, n, np.random.default_rng(n))))

    @pytest.mark.parametrize("family", FAMILY_TAGS)
    def test_across_block_bounds_and_workers(self, monkeypatch, family):
        sampler = _sampler(family, 0.3, scatter=True)
        want = self.reference(sampler, 11, range(25))
        # four replications per block, then two worker slices of 13 and 12
        monkeypatch.setattr(rng_module, "SIMULATION_BLOCK_FLOATS", 4 * 11 * 3)
        got = simulate(sampler, _keep, self.PATH, 11, 25, 5)["data"]
        assert np.array_equal(_bits(got), _bits(want))
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.setenv("FSTEST_THREADS", "2")
        assert len(replication_slices(25)) == 2
        got = simulate(sampler, _keep, self.PATH, 11, 25, 5)["data"]
        assert np.array_equal(_bits(got), _bits(want))

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
