"""Adaptive-quadrature oracles for the limit-law constants and the efficiencies.

The package evaluates every radial integral, g1(0), int g1^2 and asymptotic
efficiency as a closed form or a fixed rule.  These functions evaluate the
same quantities from their defining integrals by ``scipy.integrate.quad``,
so the tests can check the closed forms against them.  They read no closed
value of what they compute: the cauchy closed form of I_power is called only
to decide divergence (its :class:`DivergentIntegral`), and the marginal
density takes its front factor, k(d) pi^{(d-1)/2} / Gamma((d-1)/2), from
``elliptical._log_marginal_front``, and at d = 1 its k(d) from
:func:`normalizing_constant`.  The gaussian integrands are scaled by
their value at the mode and integrated in log space, so the oracles work at
any d, although I0 itself leaves the float range at d = 303.

:func:`radial_cdf` and :func:`radial_quantile` are the squared-radius law
and its inverse, from the incomplete gamma and beta functions of
``fstest._special``.  :func:`stream_seed_words` is the list
form of a stream's seed words, the oracle for ``rng.stream_rng``'s seeding
from one uint32 array.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np
from scipy import integrate

from fstest import elliptical, rng
from fstest._special import _beta_inc, _beta_inc_inverse, _gamma_p, _gamma_p_inverse
from fstest.asymptotics import _exp_or_inf
from fstest.elliptical import DensityGenerator, DivergentIntegral, generator_by_name
from fstest.engine import _log_c1

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-11, limit=200)


def _quad(fn, a, b, **kw):
    opts = {**_QUAD_OPTS, **kw}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(fn, a, b, **opts)
    return value


def radial_integral(generator: DensityGenerator, d: int, power: int) -> float:
    """I_power(d) by quadrature; ``OverflowError`` where it leaves the float range."""
    return math.exp(log_radial_integral(generator, d, power))


def log_radial_integral(generator: DensityGenerator, d: int, power: int) -> float:
    """log I_power(d) by quadrature, for d >= 1 and power 0 or 1."""
    if generator.tag == "cauchy":
        generator.radial_integral_closed(d, power)  # its DivergentIntegral decides divergence
        # substitute u = (1+x)^{-1/2}; the integrand becomes a smooth Beta form
        def integrand(u):
            x = 1.0 / (u * u) - 1.0
            return 2.0 * (1.0 - u * u) ** (d / 2 - 1) * x**power

        return math.log(_quad(integrand, 0.0, 1.0))
    expo = d / 2 - 1 + power
    if generator.tag == "light100":
        # support is effectively [0, ~1.1]; give the boundary layer as a hint
        def integrand(x):
            return x**expo * math.exp(-(x**100))

        return math.log(_quad(integrand, 0.0, 1.2, points=[0.9, 1.0, 1.05]))
    return _log_quad_from_mode(expo, lambda x: float(generator.log_g(x, d)))


def _log_quad_from_mode(expo: float, log_g) -> float:
    """log of the integral of s^expo exp(log_g(s)) over (0, inf), with the integrand scaled
    by its value at m = max(2 expo, 1), the gaussian's mode, and split at m."""
    m = max(2.0 * expo, 1.0)
    log_m = expo * math.log(m) + log_g(m)

    def integrand(s):
        return math.exp(expo * math.log(s) + log_g(s) - log_m)

    return log_m + math.log(_quad(integrand, 0.0, m) + _quad(integrand, m, np.inf))


def normalizing_constant(generator: DensityGenerator, d: int) -> float:
    """k(d) = Gamma(d/2) pi^{-d/2} / I0(d): the package's closed constant, which
    ``EllipticalModel.log_k`` reads, taken out of log space."""
    return math.exp(elliptical._log_norm_const(generator, d))


def radial_cdf(generator: DensityGenerator, d: int, x: float) -> float:
    """P(squared radius <= x) for the standard member; NaN at a NaN ``x``."""
    if math.isnan(x):  # P(a, x)'s series would never meet its stopping rule
        return math.nan
    if x <= 0:
        return 0.0
    if x == math.inf:  # a statistic that overflowed; the series would never end
        return 1.0
    tag = generator.tag
    if tag == "gaussian":
        return _gamma_p(d / 2, x / 2)
    if tag == "cauchy":
        return _beta_inc(d / 2, 0.5, x / (1.0 + x))
    if tag == "light100":
        # x^100 ~ Gamma(d/200); it overflows from x = 1.2e3, where P is 1 long since
        return _gamma_p(d / 200, x**100) if x < 2.0 else 1.0
    raise ValueError(f"no squared-radius law for kernel {tag!r}")


def radial_quantile(generator: DensityGenerator, d: int, p: float) -> float:
    """Quantile of the squared radius; p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    tag = generator.tag
    if tag == "gaussian":
        return 2.0 * _gamma_p_inverse(d / 2, p)
    if tag == "cauchy":
        b = _beta_inc_inverse(d / 2, 0.5, p)
        return b / (1.0 - b)
    if tag == "light100":
        return _gamma_p_inverse(d / 200, p) ** (1.0 / 100.0)
    raise ValueError(f"no squared-radius law for kernel {tag!r}")


def stream_seed_words(seed: int, *path: object) -> list[int]:
    """The eight 32-bit words that seed stream ``(seed, *path)``, as the list
    of Python ints ``SeedSequence`` also accepts."""
    return rng._stream_words(seed, *path).tolist()


def marginal_density(generator: DensityGenerator, d: int, t: float) -> float:
    """Density of the first coordinate of the standard member, at t.

    The (d-1)-dimensional integral over the remaining coordinates reduces to
    one radial integral in s = |rest|^2:

        f1(t) = k(d) * pi^{(d-1)/2} / Gamma((d-1)/2)
                * integral_0^inf s^{(d-1)/2 - 1} g(t^2 + s) ds

    Both factors are formed in log space (light100's integral excepted): k(d)
    pi^{(d-1)/2} overflows from d = 342, the gaussian's integral from d = 300.
    """
    if d == 1:
        return normalizing_constant(generator, d) * float(generator.g(t * t, d))
    expo = (d - 1) / 2 - 1
    tsq = t * t
    front = elliptical._log_marginal_front(generator, d)
    if generator.tag == "light100":
        # integrand dies once t^2 + s exceeds ~1.1
        upper = max(1.2 - tsq, 0.0) + 0.05
        if upper <= 1e-12:
            return 0.0

        def integrand(s):
            return s**expo * math.exp(-((tsq + s) ** 100)) if s > 0 else 0.0

        hint = max(1.0 - tsq, 1e-6)
        inner = _quad(integrand, 0.0, upper, points=[min(hint, upper)])
        return math.exp(front) * inner
    log_inner = _log_quad_from_mode(expo, lambda s: float(generator.log_g(tsq + s, d)))
    return math.exp(front + log_inner)


@lru_cache(maxsize=None)
def marginal_density_at_zero(generator: DensityGenerator, d: int) -> float:
    """g1(0) by quadrature."""
    return marginal_density(generator, d, 0.0)


@lru_cache(maxsize=None)
def marginal_density_sq_integral(generator: DensityGenerator, d: int) -> float:
    """The integral of f1^2 by quadrature over the nested quadrature of f1."""
    upper = 1.3 if generator.tag == "light100" else np.inf  # f1 is symmetric: twice (0, upper)
    return 2.0 * _quad(lambda t: marginal_density(generator, d, t) ** 2, 0.0, upper, epsrel=1e-10)


def efficiency(family: str, which: str, d: int, gamma: float = 0.5) -> float:
    """The defining variance-scalar ratio of :func:`fstest.asymptotics.efficiency`
    with every integral done numerically, combined in log space like the closed forms."""
    gen = generator_by_name(family)
    try:
        log_i1 = log_radial_integral(gen, d, 1)
    except DivergentIntegral:
        if which == "e1":
            return math.inf
        raise
    log_c1 = _log_c1(d, gamma, log_i1)
    if which == "e1":
        log_var = log_i1 - math.log(d) - log_radial_integral(gen, d, 0)
    elif which == "e2":
        log_var = -math.log(4.0 * marginal_density_at_zero(gen, d) ** 2)
    else:
        log_var = -math.log(12.0 * marginal_density_sq_integral(gen, d) ** 2)
    return _exp_or_inf(log_var - log_c1)
