"""Location tests: statistics, limiting weights, calibration, power campaigns.

Each test statistic is ``n * ||estimate - mu0||^2`` for one of the four
location estimators.  Under the null the statistics converge to weighted
chi-squared laws ``sum_i lambda_i * Z_i^2``; the weights are the eigenvalues
of ``scale * Sigma``, with the variance scalar of :class:`LimitLaw`, which
depends on the estimator and the radial kernel.  Critical values come either
from that limit (``formula`` calibration, Monte Carlo quantile of the
weighted sum) or from parametric simulation of the statistic under the null
(``empirical`` calibration).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from . import estimators as est
from .elliptical import (
    DivergentIntegral,
    EllipticalModel,
    MixtureModel,
    _log_i0,
    component_variance,
    generator_by_name,
    marginal_density_at_zero,
    marginal_density_sq_integral,
    radial_integral,
    radial_quantile,
    truncated_radial_mean,
)
from .estimators import EstimatorKind, ForwardSearchConfig
from .linalg import DimensionMismatch, SpdMatrix, as_data_matrix, as_vector
from .rng import simulate, stream_rng

__all__ = [
    "InfiniteVariance",
    "StatKind",
    "LimitSpec",
    "LimitLaw",
    "scatter_scale_constant",
    "MonteCarloQuantile",
    "TestReport",
    "statistic",
    "batch_statistics",
    "limit_weights",
    "weighted_chisq_sample",
    "critical_value",
    "empirical_critical_value",
    "calibrate",
    "run_test",
    "power_table",
    "bootstrap_report",
    "DEFAULT_SHIFT_SCALE",
]


class InfiniteVariance(ArithmeticError):
    """A limiting variance needed for calibration is infinite."""


class StatKind(str, enum.Enum):
    """The four test statistics, indexed by their estimator."""

    T1 = "t1"  # forward-search trimmed mean
    T2 = "t2"  # sample mean
    T3 = "t3"  # coordinate-wise median
    T4 = "t4"  # Hodges-Lehmann

    @property
    def estimator(self) -> EstimatorKind:
        return _STAT_TO_ESTIMATOR[self]


_STAT_TO_ESTIMATOR = {
    StatKind.T1: EstimatorKind.FORWARD_SEARCH,
    StatKind.T2: EstimatorKind.MEAN,
    StatKind.T3: EstimatorKind.CW_MEDIAN,
    StatKind.T4: EstimatorKind.HODGES_LEHMANN,
}

ALL_KINDS = tuple(StatKind)

#: per-coordinate location shift of the contaminating mixture component
DEFAULT_SHIFT_SCALE = 5.0


@dataclass(frozen=True)
class LimitSpec:
    """Weights and mean offsets of a weighted (non-central) chi-squared limit."""

    weights: NDArray[np.float64]
    offsets: NDArray[np.float64]

    def __post_init__(self):
        w = as_vector(self.weights, "weights")
        a = as_vector(self.offsets, "offsets") if np.asarray(self.offsets).size else np.zeros_like(w)
        a = np.asarray(a, dtype=float)
        if np.any(w <= 0):
            raise ValueError("limit weights must be positive")
        if a.shape != w.shape:
            raise DimensionMismatch("weights and offsets have different lengths")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "offsets", a)

    @classmethod
    def central(cls, weights: ArrayLike) -> "LimitSpec":
        w = as_vector(weights, "weights")
        return cls(w, np.zeros_like(w))


@dataclass(frozen=True)
class LimitLaw:
    """Limit N(drift * delta, scale * I) of sqrt(n) (T - mu0) under mu0 + delta/sqrt(n).

    T is the ``kind`` estimator on the standard member (Sigma = I) of
    ``family`` in dimension ``d``; delta = 0 is the null.  ``scale`` (lambda)
    is the per-coordinate variance: E[X 1{X <= q}] / (d gamma^2) for t1,
    with X the squared radius and q its gamma-quantile (finite under every
    kernel when gamma < 1); the component variance for t2; 1 / (4 g1(0)^2)
    for t3; 1 / (12 (int g1^2)^2) for t4.  It is ``math.inf`` where the
    variance diverges: t2 under ``cauchy``, and t1 there at gamma = 1.

    ``drift`` (kappa) follows from Le Cam's third lemma: 1 for the
    location-equivariant t2, t3 and t4.  For the anchored trimmed mean,
    integration by parts gives kappa = 1 - 2 q f_X(q) / (d gamma), with
    f_X(x) = x^{d/2-1} g(x) / I0 the density of X: 0.4741 (gaussian), 0.7986
    (cauchy) and 0 up to rounding (light100, whose kernel is flat on the
    trimming ball) at d = 4, gamma = 1/2.
    """

    kind: StatKind
    family: str
    d: int
    gamma: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "kind", StatKind(self.kind))
        generator_by_name(self.family)  # validate the name early
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")

    @cached_property
    def scale(self) -> float:
        gen = generator_by_name(self.family)
        if self.kind == StatKind.T1:
            try:
                return truncated_radial_mean(gen, self.d, self.gamma) / (self.d * self.gamma**2)
            except DivergentIntegral:
                return math.inf
        if self.kind == StatKind.T2:
            return component_variance(gen, self.d)
        if self.kind == StatKind.T3:
            return 1.0 / (4.0 * marginal_density_at_zero(gen, self.d) ** 2)
        return 1.0 / (12.0 * marginal_density_sq_integral(gen, self.d) ** 2)

    @cached_property
    def drift(self) -> float:
        if self.kind != StatKind.T1 or self.gamma == 1.0:
            return 1.0
        gen, d = generator_by_name(self.family), self.d
        q = radial_quantile(gen, d, self.gamma)
        log_density = (d / 2 - 1) * math.log(q) + float(gen.log_g(q, d)) - _log_i0(gen, d)
        return 1.0 - 2.0 * q * math.exp(log_density) / (d * self.gamma)


def scatter_scale_constant(family: str, d: int, gamma: float) -> float:
    """The paper's forward-search constant c1 = pi^{d/2} I1(d) / (d gamma Gamma(d/2)).

    The asymptotic efficiencies of :mod:`fstest.asymptotics` (``table4``)
    divide by it.  It is not the limit variance of the trimmed mean, which
    is :attr:`LimitLaw.scale` (0.948 against c1 = 78.96 at gaussian d = 4,
    gamma = 1/2).  Returns ``math.inf`` when I1 diverges (Cauchy).
    """
    gen = generator_by_name(family)
    try:
        i1 = radial_integral(gen, d, 1)
    except DivergentIntegral:
        return math.inf
    return math.pi ** (d / 2) * i1 / (d * gamma * math.gamma(d / 2))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def statistic(
    kind: StatKind,
    data: ArrayLike,
    mu0: ArrayLike,
    config: ForwardSearchConfig | None = None,
) -> float:
    """n * squared Euclidean norm of (estimate - mu0).

    For the forward-search statistic a :class:`ForwardSearchConfig` supplies
    the scatter and retention fraction; it defaults to identity scatter with
    gamma = 1/2.
    """
    x = as_data_matrix(data)
    mu = as_vector(mu0, "mu0")
    if x.shape[1] != mu.size:
        raise DimensionMismatch("data and mu0 dimensions disagree")
    if config is None:
        config = ForwardSearchConfig(mu, SpdMatrix.identity(mu.size), 0.5)
    diff = est.estimate(StatKind(kind).estimator, x, config).value - mu
    return float(x.shape[0] * diff @ diff)


def batch_statistics(
    data: NDArray[np.float64],
    mu0: NDArray[np.float64],
    sigma: SpdMatrix,
    gamma: float,
    kinds: Sequence[StatKind] = ALL_KINDS,
) -> dict[StatKind, NDArray[np.float64]]:
    """All requested statistics for a (reps, n, d) batch of datasets."""
    reps, n, _ = data.shape
    out: dict[StatKind, NDArray[np.float64]] = {}
    for kind in kinds:
        values = est.batch_estimates(kind.estimator, data, mu0, sigma, gamma)
        diff = values - mu0
        out[kind] = n * np.einsum("ri,ri->r", diff, diff)
    return out


# ---------------------------------------------------------------------------
# limiting laws and critical values
# ---------------------------------------------------------------------------

def limit_weights(kind: StatKind, model: EllipticalModel, gamma: float) -> LimitSpec:
    """Eigenvalue weights of the null limit of ``kind`` under ``model``.

    The weights are the eigenvalues of (scale * Sigma) with the scale of
    :class:`LimitLaw`.  Raises :class:`InfiniteVariance` where that scale is
    infinite: the sample mean under the Cauchy kernel, and the trimmed mean
    there at gamma = 1.
    """
    law = LimitLaw(kind, model.family, model.d, gamma)
    if math.isinf(law.scale):
        raise InfiniteVariance(
            f"the {law.kind.value} limit variance is infinite for family {model.family!r}"
            f" at gamma = {gamma}"
        )
    return LimitSpec.central(law.scale * model.sigma.eigenvalues)


def weighted_chisq_sample(
    spec: LimitSpec, size: int, rng: np.random.Generator
) -> NDArray[np.float64]:
    """Draws of sum_i weights_i * (Z_i + offsets_i)^2."""
    z = rng.standard_normal((size, spec.weights.size))
    z += spec.offsets
    return np.square(z, out=z) @ spec.weights


@dataclass(frozen=True)
class MonteCarloQuantile:
    """An empirical quantile and its large-sample standard error."""

    value: float
    stderr: float
    n_samples: int

    def __float__(self) -> float:  # pragma: no cover
        return self.value


def _quantile_with_se(draws: NDArray[np.float64], level: float) -> MonteCarloQuantile:
    n = draws.size
    # a quantile depends only on the order statistics, so the sorted draws give its bits
    srt = np.sort(draws)
    q = float(np.quantile(srt, level))
    # density at the quantile from an order-statistic spacing of width ~ 2 sqrt(n)
    k = int(level * (n - 1))
    h = max(1, int(math.sqrt(n)))
    lo, hi = max(0, k - h), min(n - 1, k + h)
    spacing = srt[hi] - srt[lo]
    if spacing <= 0:
        se = 0.0
    else:
        dens = (hi - lo) / (n * spacing)
        se = math.sqrt(level * (1.0 - level) / n) / dens
    return MonteCarloQuantile(q, se, n)


#: default number of weighted chi-squared draws for formula calibration
DEFAULT_MC_SAMPLES = 200_000
#: default number of null replications for empirical calibration
DEFAULT_NULL_REPS = 2_000


def critical_value(
    spec: LimitSpec,
    alpha: float,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> MonteCarloQuantile:
    """(1 - alpha) Monte Carlo quantile of the weighted chi-squared limit."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if mc_samples < 100:
        raise ValueError("mc_samples is too small to estimate a quantile")
    rng = stream_rng(seed, "critical-value", *map(repr, spec.weights), *map(repr, spec.offsets))
    draws = weighted_chisq_sample(spec, mc_samples, rng)
    return _quantile_with_se(draws, 1.0 - alpha)


def empirical_critical_value(
    kind: StatKind,
    family: str,
    mu0: ArrayLike,
    sigma: SpdMatrix,
    n: int,
    gamma: float,
    alpha: float,
    null_reps: int = DEFAULT_NULL_REPS,
    seed: int = 0,
) -> MonteCarloQuantile:
    """(1 - alpha) quantile of the statistic under parametric null simulation."""
    kind = StatKind(kind)
    mu = as_vector(mu0, "mu0")
    model = EllipticalModel(generator_by_name(family), mu.size, mu, sigma)
    reduce = partial(batch_statistics, mu0=mu, sigma=sigma, gamma=gamma, kinds=(kind,))
    stats = simulate(model, reduce, ("calibration", family), n, null_reps, seed)
    return _quantile_with_se(stats[kind], 1.0 - alpha)


def calibrate(
    kind: StatKind,
    family: str,
    mu0: ArrayLike,
    sigma: SpdMatrix,
    *,
    n: int,
    gamma: float,
    alpha: float,
    calibration: str,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    null_reps: int = DEFAULT_NULL_REPS,
    seed: int = 0,
) -> MonteCarloQuantile:
    """The (1 - alpha) critical value of ``kind`` for n observations of ``family``.

    ``calibration="formula"`` takes the Monte Carlo quantile of the weighted
    chi-squared limit (``mc_samples`` draws; ``n`` is unused);
    ``"empirical"`` simulates the statistic itself under the null
    (``null_reps`` replications of n observations).
    """
    if calibration == "formula":
        model = EllipticalModel(generator_by_name(family), mu=mu0, sigma=sigma)
        return critical_value(limit_weights(kind, model, gamma), alpha, mc_samples, seed)
    if calibration == "empirical":
        return empirical_critical_value(kind, family, mu0, sigma, n, gamma, alpha, null_reps, seed)
    raise ValueError(f"unknown calibration {calibration!r}")


# ---------------------------------------------------------------------------
# single-test runner and report
# ---------------------------------------------------------------------------

REPORT_SCHEMA = "fstest/1"


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test run; ``decision`` is reject iff value > critical_value."""

    statistic: StatKind
    value: float
    critical_value: float
    alpha: float
    decision: str
    p_value: float | None
    mc_samples: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "statistic": self.statistic.value,
            "value": self.value,
            "critical_value": self.critical_value,
            "alpha": self.alpha,
            "decision": self.decision,
            "p_value": self.p_value,
            "mc_samples": self.mc_samples,
            "seed": self.seed,
        }


def _decide(value: float, crit: float) -> str:
    return "reject" if value > crit else "retain"


def run_test(
    kind: StatKind,
    data: ArrayLike,
    mu0: ArrayLike,
    sigma: SpdMatrix | ArrayLike | None = None,
    gamma: float = 0.5,
    alpha: float = 0.05,
    family: str = "gaussian",
    calibration: str = "empirical",
    mc_samples: int = DEFAULT_MC_SAMPLES,
    null_reps: int = DEFAULT_NULL_REPS,
    seed: int = 0,
) -> TestReport:
    """Test the hypothesized location against the data.

    The critical value comes from :func:`calibrate`: ``calibration="formula"``
    draws it from the weighted chi-squared limit (``mc_samples`` draws);
    ``"empirical"`` simulates the null distribution of the statistic itself
    under the named family at the observed sample size (``null_reps``
    replications).
    """
    kind = StatKind(kind)
    x = as_data_matrix(data)
    mu = as_vector(mu0, "mu0")
    config = ForwardSearchConfig(mu, SpdMatrix.identity(mu.size) if sigma is None else sigma, gamma)
    value = statistic(kind, x, mu, config)
    crit = calibrate(
        kind,
        family,
        mu,
        config.sigma,
        n=x.shape[0],
        gamma=gamma,
        alpha=alpha,
        calibration=calibration,
        mc_samples=mc_samples,
        null_reps=null_reps,
        seed=seed,
    )
    return TestReport(
        statistic=kind,
        value=value,
        critical_value=crit.value,
        alpha=alpha,
        decision=_decide(value, crit.value),
        p_value=None,
        mc_samples=crit.n_samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# power campaigns
# ---------------------------------------------------------------------------

def power_table(
    families: Sequence[str],
    beta_grid: Sequence[float],
    *,
    kinds: Sequence[StatKind] = ALL_KINDS,
    d: int = 4,
    n: int = 100,
    reps: int = 1000,
    gamma: float = 0.5,
    alpha: float = 0.05,
    shift_scale: float = DEFAULT_SHIFT_SCALE,
    null_reps: int = DEFAULT_NULL_REPS,
    seed: int = 0,
) -> dict[str, dict[StatKind, dict[float, float]]]:
    """Rejection rates against location mixtures, empirically calibrated.

    For each family the null distribution of every statistic is simulated
    once (``null_reps`` replications) to fix critical values, then ``reps``
    mixture datasets per beta are tested.  The contaminating component is
    the family shifted by ``shift_scale`` in every coordinate.  All streams
    are derived per replication, so the result is independent of worker
    count.
    """
    kinds = tuple(StatKind(k) for k in kinds)
    mu0 = np.zeros(d)
    sigma = SpdMatrix.identity(d)
    reduce = partial(batch_statistics, mu0=mu0, sigma=sigma, gamma=gamma, kinds=kinds)
    table: dict[str, dict[StatKind, dict[float, float]]] = {}
    for family in families:
        gen = generator_by_name(family)
        null = EllipticalModel(gen, d, mu0, sigma)
        shifted = EllipticalModel(gen, d, np.full(d, shift_scale), sigma)
        null_stats = simulate(null, reduce, ("calibration", family), n, null_reps, seed)
        crits = {k: float(np.quantile(null_stats[k], 1.0 - alpha)) for k in kinds}
        table[family] = {k: {} for k in kinds}
        for beta in beta_grid:
            beta = float(beta)
            mixture = MixtureModel(beta, null, shifted)
            stats = simulate(mixture, reduce, ("power", family, repr(beta)), n, reps, seed)
            for k in kinds:
                table[family][k][beta] = float(np.mean(stats[k] > crits[k]))
    return table


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def _bootstrap_statistics(
    kind: StatKind,
    data: NDArray[np.float64],
    mu0: NDArray[np.float64],
    sigma: SpdMatrix,
    gamma: float,
    j: int,
    rng: np.random.Generator,
) -> NDArray[np.float64]:
    n = data.shape[0]
    # chunk resamples to bound the index and gathered blocks (HL bounds its
    # own scratch); block-wise draws equal one (j, n) draw, because PCG64
    # keeps the spare half of a 64-bit output in its state
    chunk = max(1, 2_000_000 // (n * data.shape[1]))
    out = np.empty(j)
    for start in range(0, j, chunk):
        idx = rng.integers(0, n, size=(min(chunk, j - start), n))
        stats = batch_statistics(data[idx], mu0, sigma, gamma, (kind,))
        out[start : start + chunk] = stats[kind]
    return out


def bootstrap_report(
    kind: StatKind,
    data: ArrayLike,
    mu0: ArrayLike,
    sigma: SpdMatrix | ArrayLike | None = None,
    *,
    gamma: float = 0.5,
    alpha: float = 0.05,
    j: int = 10_000,
    seed: int = 0,
) -> TestReport:
    """Test against ``j`` resamples of the data: their 1 - alpha quantile is
    the critical value, and the share of them above the statistic the p-value."""
    kind = StatKind(kind)
    x = as_data_matrix(data)
    mu = as_vector(mu0, "mu0")
    if j < 1:
        raise ValueError("j must be positive")
    config = ForwardSearchConfig(mu, SpdMatrix.identity(mu.size) if sigma is None else sigma, gamma)
    sigma = config.sigma
    t0 = statistic(kind, x, mu, config)
    rng = stream_rng(seed, "bootstrap", kind.value)
    stats = _bootstrap_statistics(kind, x, mu, sigma, gamma, j, rng)
    crit = float(np.quantile(stats, 1.0 - alpha))
    return TestReport(
        statistic=kind,
        value=t0,
        critical_value=crit,
        alpha=alpha,
        decision=_decide(t0, crit),
        p_value=float(np.mean(stats > t0)),
        mc_samples=j,
        seed=seed,
    )
