"""Elliptical location-scatter families: densities, samplers, scores, integrals.

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
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .linalg import DimensionMismatch, SpdMatrix, as_vector, mahalanobis_sq_many

__all__ = [
    "DivergentIntegral",
    "DensityGenerator",
    "GAUSSIAN",
    "CAUCHY",
    "LIGHT100",
    "FAMILY_TAGS",
    "generator_by_name",
    "radial_integral",
    "normalizing_constant",
    "EllipticalModel",
    "standard_model",
    "MixtureModel",
    "sample_mixture",
    "marginal_density",
    "marginal_density_at_zero",
    "marginal_density_sq_integral",
    "radial_cdf",
    "radial_quantile",
    "truncated_radial_mean",
    "component_variance",
]


class DivergentIntegral(ArithmeticError):
    """A requested radial integral does not converge."""


_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-11, limit=200)


def _quad(fn, a, b, **kw):
    from scipy import integrate

    opts = {**_QUAD_OPTS, **kw}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(fn, a, b, **opts)
    return value


class DensityGenerator:
    """Radial kernel of an elliptical family.

    Subclasses implement the kernel, its log-derivative, the sampler's raw
    draws and their transform, and closed forms where they exist.  ``d`` is passed explicitly because
    the Cauchy kernel depends on the dimension.
    """

    tag: str = ""

    def g(self, x: ArrayLike, d: int) -> NDArray[np.float64]:
        return np.exp(self.log_g(x, d))

    def log_g(self, x: ArrayLike, d: int) -> NDArray[np.float64]:
        raise NotImplementedError

    def dlog_g(self, x: ArrayLike, d: int) -> NDArray[np.float64]:
        """g'(x)/g(x)."""
        raise NotImplementedError

    def radial_integral_closed(self, d: int, power: int) -> float | None:
        """Closed form of I_power(d) when one exists, else None."""
        return None

    def radial_tail_exponent(self, d: int, power: int) -> float:
        """Exponent e with integrand ~ x^e as x -> inf; -inf for exponential decay."""
        return -math.inf

    def draw(self, d: int, rng: np.random.Generator, z: NDArray, aux: NDArray) -> None:
        """One replication's raw variates into its block rows z (n, d) and aux (n,)."""
        raise NotImplementedError

    def finish(self, d: int, z: NDArray, aux: NDArray) -> None:
        """Raw variates to draws from the standard member (mu = 0, Sigma = I), in
        place in z over any leading shape of replications; normals need nothing."""

    def g1_zero_closed(self, d: int) -> float | None:
        """Closed form of the standardized marginal density at zero, if known."""
        return None

    def int_g1_sq_closed(self, d: int) -> float | None:
        """Closed form of the integral of the squared standardized marginal."""
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return f"DensityGenerator({self.tag})"


class _Gaussian(DensityGenerator):
    tag = "gaussian"

    def log_g(self, x, d):
        return -0.5 * np.asarray(x, dtype=float)

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

    def log_g(self, x, d):
        return -0.5 * (d + 1) * np.log1p(np.asarray(x, dtype=float))

    def dlog_g(self, x, d):
        return -0.5 * (d + 1) / (1.0 + np.asarray(x, dtype=float))

    def radial_integral_closed(self, d, power):
        if power >= 0.5:
            raise DivergentIntegral(
                f"cauchy radial integral of power {power} diverges (tail ~ x^{power - 1.5})"
            )
        from scipy import special

        return math.exp(special.betaln(d / 2, 0.5 - power))

    def radial_tail_exponent(self, d, power):
        return power - 1.5

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

    def log_g(self, x, d):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            return -np.power(x, self._EXPONENT)

    def dlog_g(self, x, d):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            return -self._EXPONENT * np.power(x, self._EXPONENT - 1)

    def radial_integral_closed(self, d, power):
        p = self._EXPONENT
        return math.gamma((d / 2 + power) / p) / p

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


def radial_integral(
    generator: DensityGenerator, d: int, power: int, method: str = "auto"
) -> float:
    """I_power(d) = integral of x^{d/2-1+power} g(x) over (0, inf).

    ``method="auto"`` prefers the closed form; ``"quadrature"`` forces the
    numeric path (used for cross-checks).  Raises :class:`DivergentIntegral`
    when the integral does not converge.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if power not in (0, 1):
        raise ValueError("power must be 0 or 1")
    if generator.radial_tail_exponent(d, power) >= -1.0:
        raise DivergentIntegral(
            f"{generator.tag} radial integral of power {power} diverges in dimension {d}"
        )
    if method == "auto":
        closed = generator.radial_integral_closed(d, power)
        if closed is not None:
            return closed
        method = "quadrature"
    if method == "closed":
        closed = generator.radial_integral_closed(d, power)
        if closed is None:
            raise ValueError(f"no closed form for {generator.tag}, d={d}, power={power}")
        return closed
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    expo = d / 2 - 1 + power
    if generator.tag == "cauchy":
        # substitute u = (1+x)^{-1/2}; the integrand becomes a smooth Beta form
        def integrand(u):
            x = 1.0 / (u * u) - 1.0
            return 2.0 * (1.0 - u * u) ** (d / 2 - 1) * x**power

        return _quad(integrand, 0.0, 1.0)
    if generator.tag == "light100":
        # support is effectively [0, ~1.1]; give the boundary layer as a hint
        def integrand(x):
            return x**expo * math.exp(-(x**100))

        return _quad(integrand, 0.0, 1.2, points=[0.9, 1.0, 1.05])

    def integrand(x):
        return x**expo * float(generator.g(x, d))

    return _quad(integrand, 0.0, np.inf)


def normalizing_constant(generator: DensityGenerator, d: int) -> float:
    """k(d) = Gamma(d/2) pi^{-d/2} / I0(d)."""
    return math.exp(log_normalizing_constant(generator, d))


def _log_i0(generator: DensityGenerator, d: int) -> float:
    """log I0(d); the gaussian's in log space, as I0 overflows there from d = 303."""
    if generator.tag == "gaussian":
        return (d / 2) * math.log(2.0) + math.lgamma(d / 2)
    return math.log(radial_integral(generator, d, 0))


@lru_cache(maxsize=None)
def _log_norm_const(tag: str, d: int) -> float:
    return math.lgamma(d / 2) - (d / 2) * math.log(math.pi) - _log_i0(generator_by_name(tag), d)


def log_normalizing_constant(generator: DensityGenerator, d: int) -> float:
    return _log_norm_const(generator.tag, d)


class EllipticalModel:
    """A generator plus location vector and SPD scatter matrix."""

    def __init__(
        self,
        generator: DensityGenerator,
        d: int | None = None,
        mu: ArrayLike | None = None,
        sigma: SpdMatrix | ArrayLike | None = None,
    ):
        if d is None:
            if mu is None:
                raise ValueError("either d or mu must be given")
            d = len(np.asarray(mu))
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
        self.log_k = log_normalizing_constant(generator, self.d)

    @property
    def family(self) -> str:
        return self.generator.tag

    def with_location(self, mu: ArrayLike) -> "EllipticalModel":
        return EllipticalModel(self.generator, self.d, mu, self.sigma)

    def mahalanobis_sq(self, y: ArrayLike) -> NDArray[np.float64]:
        return mahalanobis_sq_many(y, self.mu, self.sigma)

    def log_density(self, y: ArrayLike) -> NDArray[np.float64] | float:
        """Log density at one point (d,) or at each row of an (n, d) array."""
        y = np.asarray(y, dtype=float)
        squeeze = y.ndim == 1
        x = self.mahalanobis_sq(y)
        out = self.log_k - 0.5 * self.sigma.log_det + self.generator.log_g(x, self.d)
        return float(out) if squeeze else out

    def density(self, y: ArrayLike) -> NDArray[np.float64] | float:
        return np.exp(self.log_density(y))

    def location_score(self, y: ArrayLike) -> NDArray[np.float64]:
        """Gradient of log density with respect to the location, at ``y``.

        Equals ``-2 (g'(x)/g(x)) Sigma^{-1} (y - mu)`` with x the squared
        distance of y from mu.
        """
        y = np.asarray(y, dtype=float)
        x = self.mahalanobis_sq(y)
        diff = y - self.mu
        if not self.sigma.is_identity:
            diff = diff @ self.sigma.inverse
        coef = -2.0 * self.generator.dlog_g(x, self.d)
        return np.asarray(coef)[..., None] * diff

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
        z += self.mu
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
        """u, then the k shifted rows into z[:k], then the null rows into z[k:]."""
        rng.random(out=u)
        k = np.count_nonzero(u < self.beta)
        self.shifted_component.draw(rng, z[:k], aux[:k])
        self.null_component.draw(rng, z[k:], aux[k:])

    def finish(self, z: NDArray, aux: NDArray, u: NDArray) -> NDArray[np.float64]:
        """Moves each drawn row to the position of its u entry, then locates it."""
        shifted = u < self.beta
        counts = np.count_nonzero(shifted, axis=1)
        null = self.null_component
        null.generator.finish(self.d, z, aux)
        if not null.sigma.is_identity:
            # a row's product depends on the rows multiplied with it: one product per component
            factor = null.sigma.cholesky_factor.T
            for zi, k in zip(z, counts.tolist()):
                zi[:k] = zi[:k] @ factor
                zi[k:] = zi[k:] @ factor
        # position p takes shifted row c - 1, or null row k + p - c, where c counts the
        # shifted positions up to p: each component's rows keep their draw order
        reps, n, d = z.shape
        c = np.cumsum(shifted, axis=1)
        source = np.where(shifted, c - 1, counts[:, None] + np.arange(n) - c)
        out = np.take(z.reshape(-1, d), source + n * np.arange(reps)[:, None], axis=0)
        # z, now gathered, takes each position's location
        locations = np.stack([null.mu, self.shifted_component.mu])
        out += np.take(locations, shifted.astype(np.intp), axis=0, out=z, mode="clip")
        return out


def sample_mixture(mixture: MixtureModel, n: int, rng: np.random.Generator) -> NDArray[np.float64]:
    """n draws, each independently from the shifted component with prob beta."""
    return _sample_one(mixture, n, rng)


def _sample_one(sampler, n: int, rng: np.random.Generator) -> NDArray[np.float64]:
    """One replication of a :func:`fstest.rng.simulate` sampler: draw, then finish a block of one."""
    buffers = sampler.buffers(1, n)
    sampler.draw(rng, *(b[0] for b in buffers))
    return sampler.finish(*buffers)[0]


# ---------------------------------------------------------------------------
# marginal quantities of the standard member
# ---------------------------------------------------------------------------

def marginal_density(generator: DensityGenerator, d: int, t: float) -> float:
    """Density of the first coordinate of the standard member, at t.

    Computed by reducing the (d-1)-dimensional integral over the remaining
    coordinates to one radial integral in s = |rest|^2:

        f1(t) = k(d) * pi^{(d-1)/2} / Gamma((d-1)/2)
                * integral_0^inf s^{(d-1)/2 - 1} g(t^2 + s) ds
    """
    k = normalizing_constant(generator, d)
    if d == 1:
        return k * float(generator.g(t * t, d))
    expo = (d - 1) / 2 - 1
    tsq = t * t
    if generator.tag == "light100":
        # integrand dies once t^2 + s exceeds ~1.1
        upper = max(1.2 - tsq, 0.0) + 0.05
        if upper <= 1e-12:
            return 0.0

        def integrand(s):
            return s**expo * math.exp(-((tsq + s) ** 100)) if s > 0 else 0.0

        hint = max(1.0 - tsq, 1e-6)
        inner = _quad(integrand, 0.0, upper, points=[min(hint, upper)])
    else:

        def integrand(s):
            return s**expo * float(generator.g(tsq + s, d))

        inner = _quad(integrand, 0.0, np.inf)
    front = k * math.pi ** ((d - 1) / 2) / math.gamma((d - 1) / 2)
    return front * inner


@lru_cache(maxsize=None)
def _g1_zero(tag: str, d: int) -> float:
    gen = generator_by_name(tag)
    closed = gen.g1_zero_closed(d)
    if closed is not None:
        return closed
    return marginal_density(gen, d, 0.0)


def marginal_density_at_zero(
    generator: DensityGenerator, d: int, method: str = "auto"
) -> float:
    """g1(0): the standardized marginal density at the origin."""
    if method == "quadrature":
        return marginal_density(generator, d, 0.0)
    return _g1_zero(generator.tag, d)


@lru_cache(maxsize=None)
def _int_g1_sq(tag: str, d: int, forced_quadrature: bool) -> float:
    gen = generator_by_name(tag)
    if not forced_quadrature:
        closed = gen.int_g1_sq_closed(d)
        if closed is not None:
            return closed
    if tag == "light100":
        upper = 1.3
    else:
        upper = np.inf
    value = _quad(
        lambda t: marginal_density(gen, d, t) ** 2, 0.0, upper, epsabs=1e-12, epsrel=1e-10
    )
    return 2.0 * value  # marginal is symmetric


def marginal_density_sq_integral(
    generator: DensityGenerator, d: int, method: str = "auto"
) -> float:
    """Integral of the squared standardized marginal density."""
    return _int_g1_sq(generator.tag, d, method == "quadrature")


# ---------------------------------------------------------------------------
# the squared-radius distribution x = |Y|^2 of the standard member
# ---------------------------------------------------------------------------

def _gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x), x > 0, by its power series.

    The terms e^{-x} x^{a+k} / Gamma(a+k+1) sum to P and each is at most 1.
    Where the first one underflows, P rounds to 0 below the mode a and to 1
    above it.
    """
    term = math.exp(a * math.log(x) - x - math.lgamma(a + 1.0))
    if term < sys.float_info.min:
        return 0.0 if x < a else 1.0
    total, k = term, 0
    while True:
        k += 1
        term *= x / (a + k)
        total += term
        if a + k > x and term <= total * 1e-17:
            return min(total, 1.0)


def _gamma_p_inverse(a: float, p: float) -> float:
    """The x with P(a, x) = p, by bisection down to adjacent floats."""
    lo, hi = 0.0, a + 1.0
    while _gamma_p(a, hi) < p:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if _gamma_p(a, mid) < p:
            lo = mid
        else:
            hi = mid


def radial_cdf(generator: DensityGenerator, d: int, x: float) -> float:
    """P(squared radius <= x) for the standard member."""
    if x <= 0:
        return 0.0
    tag = generator.tag
    if tag == "gaussian":
        return _gamma_p(d / 2, x / 2)
    from scipy import special

    if tag == "cauchy":
        return float(special.betainc(d / 2, 0.5, x / (1.0 + x)))
    if tag == "light100":
        return float(special.gammainc(d / 200, x**100))
    raise ValueError(f"no squared-radius law for kernel {tag!r}")


def radial_quantile(generator: DensityGenerator, d: int, p: float) -> float:
    """Quantile of the squared radius; p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    tag = generator.tag
    if tag == "gaussian":
        return 2.0 * _gamma_p_inverse(d / 2, p)
    from scipy import special

    if tag == "cauchy":
        b = float(special.betaincinv(d / 2, 0.5, p))
        return b / (1.0 - b)
    if tag == "light100":
        return float(special.gammaincinv(d / 200, p)) ** (1.0 / 100.0)
    raise ValueError(f"no squared-radius law for kernel {tag!r}")


def truncated_radial_mean(generator: DensityGenerator, d: int, gamma: float) -> float:
    """E[x 1{x <= q_gamma}] for the squared radius x.

    Closed form for the Gaussian kernel, quadrature otherwise.  With
    gamma = 1 this is the full mean I1/I0 (divergent for the Cauchy kernel,
    raising :class:`DivergentIntegral`).
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if gamma == 1.0:
        if generator.tag == "gaussian":
            return float(d)
        return radial_integral(generator, d, 1) / radial_integral(generator, d, 0)
    q = radial_quantile(generator, d, gamma)
    if generator.tag == "gaussian":
        # x = chi2_d: E[x 1{x <= q}] = d P(d/2 + 1, q/2), and P(a + 1, y) =
        # P(a, y) - y^a e^{-y} / Gamma(a + 1) with P(d/2, q/2) = gamma
        y = q / 2
        return d * (gamma - math.exp((d / 2) * math.log(y) - y - math.lgamma(d / 2 + 1)))

    def integrand(x):
        return x ** (d / 2) * float(generator.g(x, d))

    return _quad(integrand, 0.0, q) / radial_integral(generator, d, 0)


def component_variance(generator: DensityGenerator, d: int) -> float:
    """Variance of one coordinate of the standard member: I1 / (d * I0).

    Returns +inf for kernels whose first radial moment diverges.
    """
    if generator.tag == "gaussian":
        return 1.0
    try:
        i1 = radial_integral(generator, d, 1)
    except DivergentIntegral:
        return math.inf
    return i1 / (d * radial_integral(generator, d, 0))
