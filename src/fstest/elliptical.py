"""Elliptical location-scatter families: samplers and the limit-law integrals.

A family is described by a radial kernel g so that the density in dimension d
is ``k(d) |Sigma|^{-1/2} g((y-mu)' Sigma^{-1} (y-mu))`` with

    k(d) = Gamma(d/2) * pi^{-d/2} / I0(d),
    I_p(d) = integral_0^inf x^{d/2 - 1 + p} g(x) dx   (p = 0, 1).

Three kernels ship:

* ``gaussian``  g(x) = exp(-x/2)
* ``cauchy``    g(x) = (1 + x)^{-(d+1)/2}   (multivariate t with 1 df)
* ``light100``  g(x) = exp(-x**100), an extremely light-tailed kernel

The Cauchy kernel has a divergent first radial moment integral, which callers
must treat explicitly (:class:`DivergentIntegral`).

Every kernel implements every limit-law constant (radial integrals, truncated
radial mean, g1(0), int g1^2) as a closed form, or as a fixed Gauss-Legendre
rule for light100's int g1^2.  The squared-radius laws are the incomplete
gamma and beta functions of :mod:`fstest._special`, so nothing here needs
scipy; the tests check these paths against scipy's adaptive quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import ArrayLike, NDArray

from . import estimators as est
from ._special import (_beta_half_odds_mean, _beta_inc, _beta_inc_inverse, _gamma_p, _gamma_p_inverse, _log_beta,
                       _log_gamma_term)
from .linalg import DimensionMismatch, SpdMatrix, _row_operands, as_vector

__all__ = [
    "DivergentIntegral",
    "DensityGenerator",
    "GAUSSIAN",
    "CAUCHY",
    "LIGHT100",
    "FAMILY_TAGS",
    "generator_by_name",
    "radial_integral",
    "EllipticalModel",
    "standard_model",
    "MixtureModel",
    "sample_mixture",
    "marginal_density_at_zero",
    "marginal_density_sq_integral",
    "truncated_radial_mean",
    "component_variance",
]


class DivergentIntegral(ArithmeticError):
    """A requested radial integral does not converge."""


class DensityGenerator:
    """Radial kernel of an elliptical family.

    Subclasses implement the kernel's log-derivative (the score of the
    Monte Carlo check of the t1 drift), the sampler's raw draws and their
    transform, and the closed forms of the radial integrals, g1(0) and
    int g1^2.  ``d`` is passed explicitly because the Cauchy kernel depends
    on the dimension.  The kernel itself is evaluated only by the tests'
    quadrature oracles, which hold it.
    """

    tag: str = ""

    def dlog_g(self, x: ArrayLike, d: int) -> NDArray[np.float64]:
        """g'(x)/g(x)."""
        raise NotImplementedError

    def radial_integral_closed(self, d: int, power: int) -> float:
        """Closed form of I_power(d); raises :class:`DivergentIntegral` where it diverges."""
        raise NotImplementedError

    def draw(self, d: int, rng: np.random.Generator, z: NDArray, aux: NDArray) -> None:
        """Raw variates into z (..., n, d) and aux (..., n), one call per variate."""
        raise NotImplementedError

    def finish(self, d: int, z: NDArray, aux: NDArray) -> None:
        """Raw variates to draws from the standard member (mu = 0, Sigma = I), in
        place in z over any leading shape of replications; normals need nothing."""

    def g1_zero_closed(self, d: int) -> float:
        """Closed form of the standardized marginal density at zero."""
        raise NotImplementedError

    def int_g1_sq_closed(self, d: int) -> float:
        """The integral of the squared standardized marginal: a closed form or a fixed rule."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"DensityGenerator({self.tag})"


class _Gaussian(DensityGenerator):
    tag = "gaussian"

    def dlog_g(self, x, d):
        return np.full_like(np.asarray(x, dtype=float), -0.5)

    def radial_integral_closed(self, d, power):
        return 2.0 ** (d / 2 + power) * math.gamma(d / 2 + power)

    def draw(self, d, rng, z, aux):
        rng.standard_normal(out=z)

    def g1_zero_closed(self, d):
        return 1.0 / math.sqrt(2.0 * math.pi)

    def int_g1_sq_closed(self, d):
        return 1.0 / (2.0 * math.sqrt(math.pi))


class _Cauchy(DensityGenerator):
    tag = "cauchy"

    def dlog_g(self, x, d):
        return -0.5 * (d + 1) / (1.0 + np.asarray(x, dtype=float))

    def radial_integral_closed(self, d, power):
        if power >= 0.5:
            raise DivergentIntegral(
                f"cauchy radial integral of power {power} diverges (tail ~ x^{power - 1.5})"
            )
        return math.exp(_log_beta(d / 2, 0.5 - power))

    def draw(self, d, rng, z, aux):
        # numpy's chisquare(1) is 2 * standard_gamma(0.5), bit for bit
        rng.standard_normal(out=z)
        rng.standard_gamma(0.5, out=aux)

    def finish(self, d, z, aux):
        z /= np.sqrt(2.0 * aux)[..., None]

    def g1_zero_closed(self, d):
        # every marginal of the multivariate t with 1 df is standard Cauchy
        return 1.0 / math.pi

    def int_g1_sq_closed(self, d):
        return 1.0 / (2.0 * math.pi)


class _Light100(DensityGenerator):
    """Kernel exp(-x**100): nearly uniform on the unit ball, vanishing beyond."""

    tag = "light100"
    _EXPONENT = 100

    def dlog_g(self, x, d):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            return -self._EXPONENT * np.power(x, self._EXPONENT - 1)

    def radial_integral_closed(self, d, power):
        p = self._EXPONENT
        return math.gamma((d / 2 + power) / p) / p

    def g1_zero_closed(self, d):
        # k(d) pi^{(d-1)/2} I0(d-1) / Gamma((d-1)/2), with I0(d) = Gamma(d/200) / 100
        p = self._EXPONENT
        if d == 1:
            return math.exp(math.log(p) - math.lgamma(1 / (2 * p)))
        return math.exp(
            math.lgamma(d / 2) + math.lgamma((d - 1) / (2 * p)) - 0.5 * math.log(math.pi)
            - math.lgamma((d - 1) / 2) - math.lgamma(d / (2 * p))
        )

    def int_g1_sq_closed(self, d):
        if d == 1:
            # f1(t) = g1(0) exp(-t^200), and exp(-2 t^200) integrates to 2 Gamma(1 + 1/200) / 2^{1/200}
            two_p = 2 * self._EXPONENT
            return self.g1_zero_closed(1) ** 2 * 2.0 * math.gamma(1 + 1 / two_p) * 2.0 ** (-1 / two_p)
        return _light100_g1_sq_integral(d)

    def draw(self, d, rng, z, aux):
        # the squared radius is t**(1/100) with t ~ gamma(d/200); numpy's gamma(s) is
        # 1.0 * standard_gamma(s)
        rng.standard_gamma(d / (2 * self._EXPONENT), out=aux)
        rng.standard_normal(out=z)

    def finish(self, d, z, aux):
        z /= np.linalg.norm(z, axis=-1, keepdims=True)
        z *= np.sqrt(np.power(aux, 1.0 / self._EXPONENT))[..., None]


GAUSSIAN = _Gaussian()
CAUCHY = _Cauchy()
LIGHT100 = _Light100()

_GENERATORS = {g.tag: g for g in (GAUSSIAN, CAUCHY, LIGHT100)}
FAMILY_TAGS = tuple(_GENERATORS)


def generator_by_name(name: str) -> DensityGenerator:
    try:
        return _GENERATORS[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; expected one of {FAMILY_TAGS}") from None


def radial_integral(generator: DensityGenerator, d: int, power: int) -> float:
    """I_power(d) = integral of x^{d/2-1+power} g(x) over (0, inf), in closed form.

    Raises :class:`DivergentIntegral` where it diverges, and ``OverflowError``
    where the closed log I_power (``_log_i``) exceeds the float range: for the
    gaussian from d = 303 at power 0 and from d = 301 at power 1.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if power not in (0, 1):
        raise ValueError("power must be 0 or 1")
    log_i = _log_i(generator, d, power)
    if log_i > _LOG_FLOAT_MAX:
        raise OverflowError(f"I_{power}({d}) = exp({log_i:.6g}) exceeds the float range")
    return generator.radial_integral_closed(d, power)


#: the log of the largest float, above which I_power leaves the float range
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _log_i(generator: DensityGenerator, d: int, power: int = 0) -> float:
    """log I_power(d) in closed form; the gaussian's in log space, as I0 overflows there from d = 303."""
    if generator.tag == "gaussian":
        return (d / 2 + power) * math.log(2.0) + math.lgamma(d / 2 + power)
    return math.log(generator.radial_integral_closed(d, power))


@lru_cache(maxsize=None)
def _log_norm_const(generator: DensityGenerator, d: int) -> float:
    return math.lgamma(d / 2) - (d / 2) * math.log(math.pi) - _log_i(generator, d)


class EllipticalModel:
    """A generator plus location vector and SPD scatter matrix."""

    def __init__(
        self,
        generator: DensityGenerator,
        d: int,
        mu: ArrayLike | None = None,
        sigma: SpdMatrix | ArrayLike | None = None,
    ):
        self.generator = generator
        self.d = int(d)
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        self.mu = np.zeros(self.d) if mu is None else as_vector(mu, "mu")
        if self.mu.size != self.d:
            raise DimensionMismatch("mu length disagrees with d")
        if sigma is None:
            sigma = SpdMatrix.identity(self.d)
        elif not isinstance(sigma, SpdMatrix):
            sigma = SpdMatrix(sigma)
        if sigma.d != self.d:
            raise DimensionMismatch("sigma dimension disagrees with d")
        self.sigma = sigma

    @property
    def family(self) -> str:
        return self.generator.tag

    def sample(self, n: int, rng: np.random.Generator) -> NDArray[np.float64]:
        """n i.i.d. draws, shape (n, d)."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        return _sample_one(self, n, rng)

    def buffers(self, reps: int, n: int) -> tuple[NDArray, NDArray]:
        """Buffers for ``reps`` replications of n draws: z (reps, n, d) and aux (reps, n)."""
        return np.empty((reps, n, self.d)), np.empty((reps, n))

    def draw(self, rng: np.random.Generator, z: NDArray, aux: NDArray) -> None:
        self.generator.draw(self.d, rng, z, aux)

    def finish(self, z: NDArray, aux: NDArray) -> NDArray[np.float64]:
        self.generator.finish(self.d, z, aux)
        if not self.sigma.is_identity:
            # numpy multiplies each replication's (n, d) rows as one product
            z = z @ self.sigma.cholesky_factor.T
        # adding a zero location would only turn -0.0 entries into +0.0, which
        # no statistic sees: each squares its estimate, and medians and HL add 0.0
        if self.mu.any():
            rows, loc = _row_operands(z, self.mu)  # z is C-contiguous, so rows is a view
            rows += loc
        return z

    def __repr__(self) -> str:  # pragma: no cover
        return f"EllipticalModel({self.family}, d={self.d})"


def standard_model(family: str | DensityGenerator, d: int) -> EllipticalModel:
    gen = family if isinstance(family, DensityGenerator) else generator_by_name(family)
    return EllipticalModel(gen, d)


@dataclass(frozen=True)
class MixtureModel:
    """(1 - beta) * null + beta * shifted, identical generator and scatter."""

    beta: float
    null_component: EllipticalModel
    shifted_component: EllipticalModel

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        f, g = self.null_component, self.shifted_component
        if f.family != g.family or f.d != g.d:
            raise ValueError("mixture components must share the family and dimension")
        # one scatter serves both components' rows of a block
        if not np.array_equal(f.sigma.entries, g.sigma.entries):
            raise ValueError("mixture components must share the scatter matrix")

    @property
    def d(self) -> int:
        return self.null_component.d

    def buffers(self, reps: int, n: int) -> tuple[NDArray, NDArray, NDArray]:
        """The components' z and aux, and u, whose row entry below beta picks the shifted one."""
        return (*self.null_component.buffers(reps, n), np.empty((reps, n)))

    def draw(self, rng: np.random.Generator, z: NDArray, aux: NDArray, u: NDArray) -> None:
        """u, then every row as the null component draws it: the components differ in location only."""
        rng.random(out=u)
        self.null_component.draw(rng, z, aux)

    def finish(self, z: NDArray, aux: NDArray, u: NDArray) -> NDArray[np.float64]:
        """Scatters every row, then adds the shifted location where u < beta, else the null one.

        The locations are gathered from a (2, d) table by u < beta, a block of
        rows at a time: its locations and gather indices fit the estimators'
        scratch budget."""
        null = self.null_component
        null.generator.finish(self.d, z, aux)
        if not null.sigma.is_identity:
            z = z @ null.sigma.cholesky_factor.T
        table = np.stack([null.mu, self.shifted_component.mu])
        rows, shifted = z.reshape(-1, self.d), (u < self.beta).reshape(-1)  # z is C-contiguous
        step = max(1, est._SCRATCH_FLOATS // (self.d + 1))
        loc = np.empty((min(step, len(rows)), self.d))
        for lo in range(0, len(rows), step):
            block = rows[lo : lo + step]
            # the indices are 0 and 1, so "clip" clips nothing; it spares take a buffered copy
            np.take(table, shifted[lo : lo + step], axis=0, out=loc[: len(block)], mode="clip")
            block += loc[: len(block)]
        return z


def sample_mixture(mixture: MixtureModel, n: int, rng: np.random.Generator) -> NDArray[np.float64]:
    """n draws, each independently from the shifted component with prob beta."""
    return _sample_one(mixture, n, rng)


def _sample_one(sampler, n: int, rng: np.random.Generator) -> NDArray[np.float64]:
    """One replication of a :func:`fstest.rng.simulate` sampler: draw, then finish a block of one."""
    buffers = sampler.buffers(1, n)
    sampler.draw(rng, *buffers)
    return sampler.finish(*buffers)[0]


# ---------------------------------------------------------------------------
# marginal quantities of the standard member
# ---------------------------------------------------------------------------

def _log_marginal_front(generator: DensityGenerator, d: int) -> float:
    """log of k(d) pi^{(d-1)/2} / Gamma((d-1)/2); d >= 2.

    Integrating the density of the standard member over the other d - 1
    coordinates leaves one radial integral in s = |rest|^2, so the marginal
    density of the first coordinate is

        f1(t) = k(d) pi^{(d-1)/2} / Gamma((d-1)/2) * integral_0^inf s^{(d-1)/2 - 1} g(t^2 + s) ds.

    The factor is formed in log space: k(d) pi^{(d-1)/2} overflows from d = 342.
    """
    log_pi_part = ((d - 1) / 2) * math.log(math.pi) - math.lgamma((d - 1) / 2)
    return _log_norm_const(generator, d) + log_pi_part


#: panel breaks, in t and in radius, of the light100 product rule: the kernel
#: exp(-r^200) falls from 1 to 0 across r in [0.9, 1.1] and is below
#: exp(-7e15) beyond 1.2; the breaks below 0.8 follow f1, whose width shrinks
#: like 1/sqrt(d)
_LIGHT100_BREAKS = (0.1, 0.2, 0.4, 0.8, 0.9, 0.95, 0.98, 1.0, 1.02, 1.05, 1.1, 1.2)
#: Gauss-Legendre nodes per panel; doubling them moves the integral by < 1e-13
#: relative up to d = 1000
_LIGHT100_NODES = 40


def _light100_g1_sq_integral(d: int) -> float:
    """Integral of f1^2 for light100 by a composite Gauss-Legendre product rule; d >= 2.

    f1(t) = front * integral_0^inf 2 v^{d-2} exp(-(t^2 + v^2)^100) dv, the
    radial integral of :func:`_log_marginal_front`'s f1 under s = v^2, which makes the
    integrand smooth at v = 0.  The outer panels break at t = r and the inner
    ones at v = sqrt(r^2 - t^2), for each r in _LIGHT100_BREAKS, so that each
    panel sees at most one turn of the kernel.  Taken one outer panel at a
    time, which bounds the scratch at 40 x 12 x 40 floats.
    """
    x, w = np.polynomial.legendre.leggauss(_LIGHT100_NODES)

    def panels(lo, hi):
        half = 0.5 * (hi - lo)[..., None]
        return lo[..., None] + half * (x + 1.0), half * w

    edges = np.array((0.0, *_LIGHT100_BREAKS))
    front = 2.0 * math.exp(_log_marginal_front(LIGHT100, d))
    total = 0.0
    for t, wt in zip(*panels(edges[:-1], edges[1:])):
        tsq = (t * t)[:, None]
        # panels past r <= t have zero width and weight
        bounds = np.sqrt(np.maximum(edges**2 - tsq, 0.0))
        v, wv = panels(bounds[:, :-1], bounds[:, 1:])
        kernel = np.exp(-np.power(tsq[..., None] + v * v, 100))
        f1 = front * (np.power(v, d - 2) * kernel * wv).sum(axis=(1, 2))
        total += float(f1 * f1 @ wt)
    return 2.0 * total  # f1 is symmetric


@lru_cache(maxsize=None)
def marginal_density_at_zero(generator: DensityGenerator, d: int) -> float:
    """g1(0): the standardized marginal density at the origin."""
    return generator.g1_zero_closed(d)


@lru_cache(maxsize=None)
def marginal_density_sq_integral(generator: DensityGenerator, d: int) -> float:
    """Integral of the squared standardized marginal density."""
    return generator.int_g1_sq_closed(d)


# ---------------------------------------------------------------------------
# the squared-radius distribution x = |Y|^2 of the standard member
# ---------------------------------------------------------------------------

def truncated_radial_mean(generator: DensityGenerator, d: int, gamma: float) -> float:
    """E[x 1{x <= q_gamma}] for the squared radius x, in closed form or, for the
    cauchy kernel where that form cancels, by a positive series.

    With gamma = 1 this is the full mean I1/I0 (divergent for the Cauchy
    kernel, raising :class:`DivergentIntegral`).  The gaussian and cauchy forms
    are precise down to gamma = 1e-100; where the gamma-quantile or the mean
    leaves the normal floats, each returns 0.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if gamma == 1.0:
        if generator.tag == "gaussian":
            return float(d)
        return radial_integral(generator, d, 1) / radial_integral(generator, d, 0)
    return _truncation(generator, d, gamma)[0]


@lru_cache(maxsize=256)
def _truncation(generator: DensityGenerator, d: int, gamma: float) -> tuple[float, float]:
    """E[x 1{x <= q}] and the t1 drift kappa at the gamma-quantile q of the
    squared radius x, gamma in (0, 1), from one variable v of x whose law is a
    regularized incomplete function F_a: gaussian v = x/2 ~ Gamma(d/2), cauchy
    v = x/(1+x) ~ Beta(d/2, 1/2), light100 v = x^100 ~ Gamma(d/200).  v solves
    F_a(v) = gamma, and kappa = F_{a+1}(v) / gamma.  A value that leaves the
    normal floats, and its digits with them, reads 0.
    """
    tag = generator.tag
    if tag not in _GENERATORS:
        raise ValueError(f"no squared-radius law for kernel {tag!r}")
    a = d / 200 if tag == "light100" else d / 2
    beta = tag == "cauchy"
    v = _beta_inc_inverse(a, 0.5, gamma) if beta else _gamma_p_inverse(a, gamma)
    if v == 0.0:
        return 0.0, 0.0
    lifted = _beta_inc(a + 1, 0.5, v) if beta else _gamma_p(a + 1, v)
    if tag == "gaussian":
        # E[x 1{x <= q}] = d P(a + 1, v), and P(a + 1, v) = gamma - v^a e^{-v} / Gamma(a + 1);
        # past 0.9 gamma that term cancels more than a digit of the difference, which
        # its series keeps
        term = math.exp(_log_gamma_term(a, v))
        mean = d * (lifted if term > 0.9 * gamma else gamma - term)
    elif beta:
        # integrating u^a (1-u)^{-3/2} / B by parts up to v gives 2 v^a / (sqrt(1-v) B) - d gamma;
        # where d gamma passes 0.99 of the head, the difference cancels and the positive
        # series takes over (only below gamma = 0.3 for d <= 100)
        head = 2.0 * math.exp(a * math.log(v) - 0.5 * math.log1p(-v) - _log_beta(a, 0.5))
        mean = head - d * gamma if d * gamma <= 0.99 * head else _beta_half_odds_mean(a, v)
    else:
        # E[x 1{x <= q}] = Gamma(b) P(b, v) / Gamma(a) at b = (d+2)/200
        b = (d + 2) / 200
        mean = math.exp(math.lgamma(b) - math.lgamma(a)) * _gamma_p(b, v)
    tiny = sys.float_info.min
    return (mean if mean >= tiny else 0.0), (lifted / gamma if lifted >= tiny else 0.0)


def component_variance(generator: DensityGenerator, d: int) -> float:
    """Variance of one coordinate of the standard member: I1 / (d * I0).

    Returns +inf for kernels whose first radial moment diverges, and raises
    ``OverflowError`` where I1 or d * I0 leaves the float range (light100
    from d = 34,098), as the ratio would read 0 there.
    """
    if generator.tag == "gaussian":
        return 1.0
    try:
        i1 = radial_integral(generator, d, 1)
    except DivergentIntegral:
        return math.inf
    scaled_i0 = d * radial_integral(generator, d, 0)
    if scaled_i0 == math.inf:
        raise OverflowError(f"{d} * I_0({d}) exceeds the float range")
    return i1 / scaled_i0
