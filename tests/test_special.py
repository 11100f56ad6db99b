"""The special functions of ``fstest._special`` against scipy and mpmath.

The package computes the incomplete gamma and beta functions, their inverses
and the chi-squared laws with ``math`` and numpy; scipy and mpmath are
imported by the tests only.  The squared-radius law ``oracles.radial_cdf`` and
its inverse ``oracles.radial_quantile`` are checked here too, since they are
those functions at the kernels' arguments, and so are the t1 drift of every
kernel and the cauchy truncated mean at small gamma, where closed forms cancel.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special, stats

import oracles
from fstest import _special
from fstest.elliptical import CAUCHY, GAUSSIAN, LIGHT100, radial_integral, truncated_radial_mean
from fstest.engine import InfiniteVariance, LimitLaw, StatKind

ALL_GENERATORS = (GAUSSIAN, CAUCHY, LIGHT100)

#: dimensions of the incomplete gamma oracles: small, both sides of the a = 15
#: switch of _log_gamma_term at a = d/2, and large
GAMMA_ORACLE_DS = (1, 2, 3, 4, 5, 10, 29, 30, 31, 50, 100, 200, 399, 400)


class TestSpecialFunctionOracles:
    """The incomplete gamma and beta functions in math against scipy.special."""

    PS = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)

    def test_beta_inc_at_half(self):
        # both sides of the continued fraction's switch to 1 - I_{1-x}(b, a)
        for d in range(1, 401):
            for p in self.PS:
                x = special.betaincinv(d / 2, 0.5, p)
                ref = special.betainc(d / 2, 0.5, x)
                assert _special._beta_inc(d / 2, 0.5, x) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_beta_inc_inverse_at_half(self):
        for d in range(1, 401):
            for p in (0.01, 0.5, 0.99):
                ref = special.betaincinv(d / 2, 0.5, p)
                assert _special._beta_inc_inverse(d / 2, 0.5, p) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_beta_inc_edges(self):
        assert _special._beta_inc(2.0, 0.5, 0.0) == 0.0
        assert _special._beta_inc(2.0, 0.5, 1.0) == 1.0
        assert math.isnan(_special._beta_inc(2.0, 0.5, math.nan))

    @pytest.mark.parametrize("d", GAMMA_ORACLE_DS)
    def test_gamma_p_and_its_inverse(self, d):
        # at a = d/200, p = 0.01 puts the quantile below the float range for small d
        for a in (d / 200, d / 2):
            for p in self.PS[1:]:
                x = special.gammaincinv(a, p)
                assert _special._gamma_p(a, x) == pytest.approx(special.gammainc(a, x), rel=1e-12, abs=0)
                assert _special._gamma_p_inverse(a, p) == pytest.approx(x, rel=1e-12, abs=0)

    @pytest.mark.parametrize("d", GAMMA_ORACLE_DS)
    def test_cauchy_and_light100_laws(self, d):
        for p in (0.1, 0.5, 0.9):
            # u = x / (1 + x) ~ Beta(d/2, 1/2); x itself carries u's rounding over 1 - u
            b = special.betaincinv(d / 2, 0.5, p)
            q = oracles.radial_quantile(CAUCHY, d, p)
            assert q / (1 + q) == pytest.approx(b, rel=1e-12, abs=0)
            assert oracles.radial_cdf(CAUCHY, d, b / (1 - b)) == pytest.approx(p, rel=1e-12, abs=0)
            t = special.gammaincinv(d / 200, p)
            assert oracles.radial_quantile(LIGHT100, d, p) == pytest.approx(t**0.01, rel=1e-12, abs=0)
            assert oracles.radial_cdf(LIGHT100, d, t**0.01) == pytest.approx(p, rel=1e-12, abs=0)
        assert oracles.radial_cdf(LIGHT100, d, 2.0) == oracles.radial_cdf(LIGHT100, d, 1e6) == 1.0
        assert radial_integral(CAUCHY, d, 0) == pytest.approx(special.beta(d / 2, 0.5), rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", (15, 16, 200, 1000, 5000))
    def test_log_beta_at_half_is_exact_to_rounding(self, n):
        # B(n, 1/2) = (n-1)! n! 4^n / (2n)! and B(n + 1/2, 1/2) = pi (2n)! / (4^n n!^2),
        # rounded once from exact integers; scipy's betaln is 3e-14 off at n = 200
        fact = math.factorial
        whole = Fraction(fact(n - 1) * fact(n) * 4**n, fact(2 * n))
        half = Fraction(fact(2 * n), 4**n * fact(n) ** 2)
        assert _special._log_beta(n, 0.5) == pytest.approx(math.log(whole), rel=1e-15, abs=0)
        assert _special._log_beta(0.5, n) == _special._log_beta(n, 0.5)
        assert _special._log_beta(n + 0.5, 0.5) == pytest.approx(
            math.log(half) + math.log(math.pi), rel=1e-15, abs=0
        )


class TestRadialCdf:
    """The squared-radius law of the tests' oracles at its edges."""

    def test_gaussian_cdf_is_chi2(self):
        for d in (1, 4):
            for x in (0.5, 2.0, 6.0):
                assert oracles.radial_cdf(GAUSSIAN, d, x) == pytest.approx(
                    stats.chi2.cdf(x, d), rel=1e-9
                )

    def test_cdf_at_infinity_is_one(self):
        # P(a, x)'s series never met its stopping rule at x = inf
        for gen in ALL_GENERATORS:
            assert oracles.radial_cdf(gen, 4, math.inf) == 1.0

    def test_cdf_at_nan_is_nan(self):
        # P(a, x)'s series never met its stopping rule at x = nan: run it where a hang can be stopped
        script = (
            "import math; from oracles import radial_cdf; from fstest.elliptical import CAUCHY, GAUSSIAN, LIGHT100; "
            "print([radial_cdf(gen, d, math.nan) for gen in (GAUSSIAN, CAUCHY, LIGHT100) for d in (1, 4, 100)])"
        )
        src = str(Path(_special.__file__).resolve().parent.parent)
        tests = str(Path(__file__).resolve().parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str([math.nan] * 9)

    @given(st.floats(0.0, 30.0), st.floats(0.0, 30.0))
    def test_cdf_monotone(self, a, b):
        lo, hi = sorted((a, b))
        fa = oracles.radial_cdf(CAUCHY, 3, lo)
        fb = oracles.radial_cdf(CAUCHY, 3, hi)
        assert 0.0 <= fa <= fb <= 1.0


class TestChiSquaredLaws:
    """The chi-squared point and tail and the noncentral chi-squared law against scipy."""

    DS = (1, 2, 3, 4, 10, 50, 100, 400)
    SHIFTS = (0.0, 1e-3, 0.1, 1.0, 5.0, 20.0, 100.0, 1e3, 1e4, 3e4)

    @pytest.mark.parametrize("d", DS + (1000,))
    def test_chi2_quantile(self, d):
        for alpha in (1e-300, 1e-30, 1e-10, 0.01, 0.05, 0.1, 0.5, 0.9):
            q = _special._chi2_upper_point(d, alpha)
            assert q == pytest.approx(special.chdtri(d, alpha), rel=1e-14, abs=0)

    @pytest.mark.parametrize("d", DS)
    def test_noncentral_tail(self, d):
        for alpha in (0.01, 0.05, 0.5):
            q = special.chdtri(d, alpha)
            for shift in self.SHIFTS:
                tail = 1.0 - _special._noncentral_chi2_cdf(q, d, shift)
                assert tail == pytest.approx(1.0 - special.chndtr(q, d, shift), rel=1e-12, abs=0)
        # a small tail is 1 - cdf, as scipy's 1 - chndtr was, so it is exact in absolute
        # terms (2.6e-15 here, against 2.0e-15 for 1 - chndtr); boost's complement,
        # stats.ncx2.sf, is the reference
        for alpha in (1e-30, 1e-10):
            q = special.chdtri(d, alpha)
            for shift in self.SHIFTS:
                tail = 1.0 - _special._noncentral_chi2_cdf(q, d, shift)
                ref = stats.ncx2.sf(q, d, shift) if shift else special.chdtrc(d, q)
                assert tail == pytest.approx(ref, rel=1e-12, abs=1e-14)

    def test_no_cap_on_the_shift(self):
        # the Poisson weights of a large shift underflow to 0 along the ladder
        assert _special._noncentral_chi2_cdf(special.chdtri(4, 0.05), 4, 1e9) == 0.0
        # a wide ladder (q/2 = 5000) still meets the Poisson mass near shift/2
        q = special.chdtri(10_000, 0.05)
        for shift in (50.0, 200.0, 1e3):
            assert _special._noncentral_chi2_cdf(q, 10_000, shift) == pytest.approx(
                special.chndtr(q, 10_000, shift), rel=1e-12, abs=0
            )

    @pytest.mark.parametrize("d", [1, 4, 100])
    def test_tail_matches_chdtrc_down_to_1e_300(self, d):
        # 1 - P(d/2, x/2) was 3.3e-16 at d = 4, x = 100 (against 9.8e-21) and 0 from x = 200
        for alpha in (0.9, 0.5, 0.05, 1e-10, 1e-100, 1e-300):
            x = special.chdtri(d, alpha)
            assert _special._chi2_tail(d, x) == pytest.approx(special.chdtrc(d, x), rel=1e-12, abs=0)
        for x in (100.0, 200.0):
            assert _special._chi2_tail(d, x) == pytest.approx(special.chdtrc(d, x), rel=1e-12, abs=0)

    def test_tail_edges(self):
        # Q(a, x)'s series fails at x = 0 (a math domain error) and its fraction gives NaN at inf
        for d in (1, 4, 100):
            assert _special._chi2_tail(d, 0.0) == _special._chi2_tail(d, -1.0) == 1.0
            assert _special._chi2_tail(d, math.inf) == 0.0
            assert math.isnan(_special._chi2_tail(d, math.nan))


def _newton(f, density, x):
    """The root of the increasing f near the float x, by four Newton steps at 50 digits."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        for _ in range(4):
            x -= f(x) / density(x)
        return float(x)


def _lands_on_adjacent_floats(cdf, x: float, p: float) -> bool:
    """Whether x and one of its neighbouring floats bracket p, as bisection leaves them."""
    below, above = np.nextafter(x, -np.inf), np.nextafter(x, np.inf)
    return cdf(x) < p <= cdf(above) or cdf(below) < p <= cdf(x)


class TestMpmathOracles:
    """The cases scipy's double-precision functions cannot decide, against mpmath at 50 digits."""

    @pytest.mark.parametrize("big", (14.5, 14.999, 15.0, 15.001, 15.5, 40.0, 1e3, 1e5))
    def test_log_beta_on_both_sides_of_stirling_from(self, big):
        # below _STIRLING_FROM the lgamma difference, from it on Stirling's series; at 1e5
        # the direct difference of lgamma(1e5) would lose 1e-12 of log B
        for small in (1e-3, 0.5, 3.7, 14.0):
            with mpmath.workdps(50):
                ref = float(mpmath.log(mpmath.beta(big, small)))
            assert _special._log_beta(big, small) == pytest.approx(ref, rel=1e-14, abs=0)
            assert _special._log_beta(small, big) == _special._log_beta(big, small)

    @pytest.mark.parametrize("a", (0.5, 2.0, 7.5, 50.0, 200.0))
    def test_gamma_q_tails_down_to_1e_100(self, a):
        # the continued fraction keeps a small Q to full relative precision
        for q in (1e-3, 1e-10, 1e-30, 1e-60, 1e-100):
            x = float(special.gammainccinv(a, q))
            with mpmath.workdps(50):
                ref = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
            assert _special._gamma_q(a, x) == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("a", (0.5, 2.0, 15.0, 50.0, 500.0))
    def test_gamma_inverses_land_on_adjacent_floats(self, a):
        def density(t):
            return mpmath.exp((a - 1) * mpmath.log(t) - t - mpmath.loggamma(a))

        for p in (1e-10, 0.01, 0.5, 0.99):
            x = _special._gamma_p_inverse(a, p)
            assert _lands_on_adjacent_floats(lambda t: _special._gamma_p(a, t), x, p)
            ref = _newton(lambda t: mpmath.gammainc(a, 0, t, regularized=True) - p, density, x)
            assert x == pytest.approx(ref, rel=1e-12, abs=0)
        for q in (1e-100, 1e-10, 0.05, 0.5, 0.99):
            x = _special._gamma_q_inverse(a, q)
            assert _lands_on_adjacent_floats(lambda t: -_special._gamma_q(a, t), x, -q)
            ref = _newton(lambda t: q - mpmath.gammainc(a, t, mpmath.inf, regularized=True), density, x)
            assert x == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("a", (0.5, 2.0, 15.0, 50.0))
    def test_beta_inverse_lands_on_adjacent_floats(self, a):
        def density(t):
            return mpmath.exp((a - 1) * mpmath.log(t) - 0.5 * mpmath.log1p(-t) - mpmath.log(mpmath.beta(a, 0.5)))

        for p in (1e-10, 0.01, 0.5, 0.99):
            x = _special._beta_inc_inverse(a, 0.5, p)
            assert _lands_on_adjacent_floats(lambda t: _special._beta_inc(a, 0.5, t), x, p)
            ref = _newton(lambda t: mpmath.betainc(a, 0.5, 0, t, regularized=True) - p, density, x)
            assert x == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("d", (1, 4, 10, 100))
    def test_noncentral_cdf_is_the_poisson_mixture(self, d):
        for alpha in (0.5, 0.05, 1e-10):
            q = _special._chi2_upper_point(d, alpha)
            for shift in (0.0, 1e-3, 1.0, 20.0, 100.0):
                with mpmath.workdps(50):
                    half, y, a = mpmath.mpf(shift) / 2, mpmath.mpf(q) / 2, mpmath.mpf(d) / 2
                    ref, j = mpmath.mpf(0), 0
                    while True:  # sum_j Poisson(j; shift/2) P(d/2 + j, q/2) past the Poisson mode
                        weight = mpmath.exp(j * mpmath.log(half) - half - mpmath.loggamma(j + 1)) if shift else int(j == 0)
                        term = weight * mpmath.gammainc(a + j, 0, y, regularized=True)
                        ref += term
                        if j > half and term <= ref * mpmath.mpf(10) ** -40:
                            break
                        j += 1
                assert _special._noncentral_chi2_cdf(q, d, shift) == pytest.approx(float(ref), rel=1e-12, abs=0)


#: each kernel's variable v at the squared radius x, and the shape a of its law F_a:
#: gaussian v = x/2 ~ Gamma(d/2), cauchy v = x/(1+x) ~ Beta(d/2, 1/2), light100
#: v = x^100 ~ Gamma(d/200)
_RADIAL_SHAPE = {"gaussian": 2, "cauchy": 2, "light100": 200}


def _radial_law(family: str, a, v):
    """F_a(v), the regularized incomplete function of the kernel's variable, in mpmath."""
    if family == "cauchy":
        return mpmath.betainc(a, mpmath.mpf(1) / 2, 0, v, regularized=True)
    return mpmath.gammainc(a, 0, v, regularized=True)


@lru_cache(maxsize=None)
def _t1_reference(family: str, d: int, gamma: float) -> tuple[float, float, float]:
    """v, F_{a+1}(v) and kappa = F_{a+1}(v) / gamma at 50 digits, with v solving
    F_a(v) = gamma and a = d/2 or d/200.  The root is sought in t = log v, or for
    the beta in the log-odds t = log(v / (1 - v)), which keeps v below 1.  It
    starts at scipy's inverse or, where that underflows, at the power-law head
    F_a(v) ~ v^a / Gamma(a + 1) (v^a / (a B(a, 1/2)) for the beta)."""
    with mpmath.workdps(50):
        a, log_gamma = mpmath.mpf(d) / _RADIAL_SHAPE[family], mpmath.log(gamma)
        if family == "cauchy":
            guess = special.betaincinv(float(a), 0.5, gamma)
            guess /= 1 - guess
            head = mpmath.log(a) + mpmath.log(mpmath.beta(a, mpmath.mpf(1) / 2))
            to_v = lambda t: 1 / (1 + mpmath.exp(-t))  # noqa: E731
        else:
            guess = special.gammaincinv(float(a), gamma)
            head = mpmath.loggamma(a + 1)
            to_v = mpmath.exp
        start = mpmath.log(guess) if guess > 0 else (log_gamma + head) / a
        v = to_v(mpmath.findroot(lambda t: mpmath.log(_radial_law(family, a, to_v(t))) - log_gamma, start))
        lifted = _radial_law(family, a + 1, v)
        return float(v), float(lifted), float(lifted / gamma)


class TestT1DriftOracle:
    """The t1 drift kappa = F_{a+1}(v) / gamma of every kernel against mpmath."""

    @pytest.mark.parametrize("gamma", (0.3, 0.5, 0.7, 0.9, 1e-3, 1e-8, 1e-20, 1e-100))
    @pytest.mark.parametrize("d", (1, 2, 3, 4, 10, 100))
    @pytest.mark.parametrize("family", ("gaussian", "cauchy", "light100"))
    def test_drift_matches_mpmath(self, family, d, gamma):
        # the closed form 1 - 2 q f_X(q) / (d gamma) read -1.35e-14 for the gaussian at
        # d = 1, gamma = 1e-100, and 3.3e-16 for light100 at d = 4, gamma = 0.3 (4.0e-27)
        v, lifted, kappa = _t1_reference(family, d, gamma)
        law = LimitLaw(StatKind.T1, family, d, gamma)
        if min(v, lifted) < sys.float_info.min:
            # v or F_{a+1}(v) leaves the normal floats (light100 at d = 1, gamma = 1e-3)
            with pytest.raises(InfiniteVariance, match="drift"):
                law.drift
            return
        assert 0.0 < law.drift < 1.0 and law.drift == pytest.approx(kappa, rel=1e-12, abs=0)

    @pytest.mark.parametrize("d", (1, 4, 10))
    @pytest.mark.parametrize("family", ("gaussian", "cauchy", "light100"))
    def test_rule_is_the_closed_form(self, family, d):
        # integration by parts: F_{a+1}(v) / gamma = 1 - 2 q f_X(q) / (d gamma) at any v,
        # with gamma = F_a(v), q the squared radius of v and f_X(x) = x^{d/2-1} g(x) / I0;
        # at 150 digits, so that light100's 1 - ... keeps its digits down to kappa = 1e-105
        with mpmath.workdps(150):
            a = mpmath.mpf(d) / _RADIAL_SHAPE[family]
            for gamma in (0.3, 0.5, 0.9):
                v = mpmath.mpf(_t1_reference(family, d, gamma)[0])
                if family == "gaussian":
                    q, log_g, log_i0 = 2 * v, -v, a * mpmath.log(2) + mpmath.loggamma(a)
                elif family == "cauchy":
                    q = v / (1 - v)
                    log_g, log_i0 = -(d + 1) * mpmath.log1p(q) / 2, mpmath.log(mpmath.beta(a, mpmath.mpf(1) / 2))
                else:
                    q, log_g, log_i0 = v ** (mpmath.mpf(1) / 100), -v, mpmath.loggamma(a) - mpmath.log(100)
                f_q = mpmath.exp((mpmath.mpf(d) / 2 - 1) * mpmath.log(q) + log_g - log_i0)
                level = _radial_law(family, a, v)
                closed = 1 - 2 * q * f_q / (d * level)
                rule = _radial_law(family, a + 1, v) / level
                assert abs(closed / rule - 1) < mpmath.mpf(10) ** -30, gamma

    @pytest.mark.parametrize("gamma", (1e-200, 1e-160))
    def test_refuses_where_subnormal_floats_lose_digits(self, gamma):
        # kappa is 1.5e-200 and 1.5e-160, but I_b(2, 1/2) ~ b^2 is 0 and subnormal there:
        # the drift read 0.0 and 1.49998e-160 (1.1e-5 relative off), and now refuses;
        # so does the scale, whose subnormal mean read 0.499994 at 1e-160
        law = LimitLaw(StatKind.T1, "cauchy", 2, gamma)
        with pytest.raises(InfiniteVariance, match="drift"):
            law.drift
        with pytest.raises(InfiniteVariance, match="variance"):
            law.scale


@lru_cache(maxsize=None)
def _cauchy_mean_reference(d: int, gamma: float) -> float:
    """The cauchy E[X 1{X <= q}] at 50 digits: the integral of u^{d/2} (1-u)^{-3/2}
    over (0, b), b = q / (1 + q), as a hypergeometric function, over B(d/2, 1/2)."""
    with mpmath.workdps(50):
        a, half = mpmath.mpf(d) / 2, mpmath.mpf(1) / 2
        b = mpmath.mpf(_t1_reference("cauchy", d, gamma)[0])
        return float(b ** (a + 1) / (a + 1) * mpmath.hyp2f1(1.5, a + 1, a + 2, b) / mpmath.beta(a, half))


class TestCauchyT1Constants:
    """The cauchy truncated mean where its closed form cancels; its drift is in
    :class:`TestT1DriftOracle`."""

    @pytest.mark.parametrize("gamma", (1e-3, 1e-8, 1e-20, 1e-100))
    @pytest.mark.parametrize("d", (1, 2, 3, 4, 10, 100))
    def test_truncated_mean_matches_mpmath(self, d, gamma):
        mean = _cauchy_mean_reference(d, gamma)
        assert truncated_radial_mean(CAUCHY, d, gamma) == pytest.approx(mean, rel=1e-12, abs=0)

    def test_means_that_cancelled(self):
        # 2 b^{d/2} / (sqrt(1-b) B) - d gamma read 7.66e-114 here and 0 at d = 1, gamma = 1e-8
        assert truncated_radial_mean(CAUCHY, 4, 1e-100) == pytest.approx(1.0887e-150, rel=1e-4)
        assert truncated_radial_mean(CAUCHY, 1, 1e-8) == pytest.approx(8.2247e-25, rel=1e-4)
        assert LimitLaw(StatKind.T1, "cauchy", 1, 1e-8).scale > 0.0

    @pytest.mark.parametrize("d", (1, 2, 3, 4, 10, 50, 100))
    def test_closed_form_kept_from_gamma_three_tenths(self, d):
        # the series takes over only where d gamma passes 0.99 of the head, which it
        # does not from gamma = 0.3 on (0.92 at most, at d = 1): those bytes stay
        for gamma in (0.3, 0.5, 0.7, 0.9):
            b = _special._beta_inc_inverse(d / 2, 0.5, gamma)
            log_head = (d / 2) * math.log(b) - 0.5 * math.log1p(-b) - _special._log_beta(d / 2, 0.5)
            closed = 2.0 * math.exp(log_head) - d * gamma
            assert truncated_radial_mean(CAUCHY, d, gamma) == closed
            # where both hold, the series agrees with the closed form
            assert _special._beta_half_odds_mean(d / 2, b) == pytest.approx(closed, rel=1e-12, abs=0)
