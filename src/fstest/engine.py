"""Location tests: statistics, limiting weights, calibration, power campaigns.

Each test statistic is ``n * ||estimate - mu0||^2`` for one of the four
location estimators.  Under the null the statistics converge to weighted
chi-squared laws ``sum_i lambda_i * Z_i^2``; the weights are the eigenvalues
of ``scale * Sigma``, with the variance scalar of :class:`LimitLaw`, which
depends on the estimator and the radial kernel.  Critical values come either
from that limit (``formula`` calibration: the exact quantile lambda * chi2_d
at equal weights, as at identity Sigma, else a Monte Carlo quantile of the
weighted sum) or from parametric simulation of the statistic under the null
(``empirical`` calibration); :func:`calibrate` is the one place that chooses.
The t1 limit's drift under local alternatives is kappa = F_{a+1}(v) / gamma
(:class:`LimitLaw`): 0.4741, 0.7986 and 5.0e-16 at d = 4, gamma = 1/2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from . import estimators as est
from ._special import _chi2_tail, _chi2_upper_point
from .elliptical import (
    DivergentIntegral,
    EllipticalModel,
    MixtureModel,
    _log_i,
    _truncation,
    component_variance,
    generator_by_name,
    marginal_density_at_zero,
    marginal_density_sq_integral,
    truncated_radial_mean,
)
from .estimators import EstimatorKind, ForwardSearchConfig
from .linalg import DimensionMismatch, SpdMatrix, as_data_matrix, as_vector, mahalanobis_sq_many
from .rng import simulate, stream_rng

__all__ = [
    "InfiniteVariance",
    "StatKind",
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
    """A limiting variance needed for calibration is infinite, or cannot be evaluated in floats."""


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
class LimitLaw:
    """Limit N(drift * delta, scale * I) of sqrt(n) (T - mu0) under mu0 + delta/sqrt(n).

    T is the ``kind`` estimator on the standard member (Sigma = I) of
    ``family`` in dimension ``d``; delta = 0 is the null.  ``scale`` (lambda)
    is the per-coordinate variance: E[X 1{X <= q}] / (d gamma^2) for t1,
    with X the squared radius and q its gamma-quantile (finite under every
    kernel when gamma < 1); the component variance for t2; 1 / (4 g1(0)^2)
    for t3; 1 / (12 (int g1^2)^2) for t4.  It is ``math.inf`` where the
    variance diverges: t2 under ``cauchy``, and t1 there at gamma = 1.  At a
    small gamma where the t1 form underflows or cancels to 0 or below, reading
    the t1 scale raises :class:`InfiniteVariance`.  Every
    constant is a closed form or, for light100's int g1^2, a fixed
    Gauss-Legendre rule (:mod:`fstest.elliptical`), finite at any d.

    ``drift`` (kappa) follows from Le Cam's third lemma: 1 for the
    location-equivariant t2, t3 and t4, and for t1 at gamma = 1.  For the
    anchored trimmed mean, integration by parts turns 1 - 2 q f_X(q) / (d gamma),
    f_X the density of X, into F_{a+1}(v) / gamma, which does not cancel: F_a is
    the law of the kernel's variable v (Gamma(d/2) of q/2, Beta(d/2, 1/2) of
    q/(1+q), Gamma(d/200) of q^100), raised by one in its first parameter.  It
    reads 0.4741 (gaussian), 0.7986 (cauchy) and 5.0e-16 (light100, whose
    kernel is flat on the trimming ball) at d = 4, gamma = 1/2.  Where q or
    F_{a+1}(v) underflows, reading the t1 drift raises :class:`InfiniteVariance`.
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
                mean = truncated_radial_mean(gen, self.d, self.gamma)
            except DivergentIntegral:
                return math.inf
            if not mean > 0.0:  # at so small a gamma, the float form underflows or cancels
                raise InfiniteVariance(
                    f"the t1 limit variance cannot be evaluated for family {self.family!r} at gamma = {self.gamma}"
                )
            return mean / (self.d * self.gamma) / self.gamma
        if self.kind == StatKind.T2:
            return component_variance(gen, self.d)
        if self.kind == StatKind.T3:
            return 1.0 / (4.0 * marginal_density_at_zero(gen, self.d) ** 2)
        return 1.0 / (12.0 * marginal_density_sq_integral(gen, self.d) ** 2)

    @cached_property
    def drift(self) -> float:
        if self.kind != StatKind.T1 or self.gamma == 1.0:
            return 1.0
        kappa = _truncation(generator_by_name(self.family), self.d, self.gamma)[1]
        if not kappa > 0.0:
            raise InfiniteVariance(f"the t1 limit drift underflows for family {self.family!r} at gamma = {self.gamma}")
        return kappa


def scatter_scale_constant(family: str, d: int, gamma: float) -> float:
    """The paper's forward-search constant c1 = pi^{d/2} I1(d) / (d gamma Gamma(d/2)).

    It is the divisor of the efficiency ratios that :mod:`fstest.asymptotics`
    defines; ``asymptotics.efficiency`` (``table4``) evaluates tabulated
    closed forms and reads neither c1 nor ``_log_c1``, while the quadrature
    oracle of the tests divides by it and ``empirical_limit_covariance``
    logs it.  It is not the limit variance of the trimmed mean, which
    is :attr:`LimitLaw.scale` (0.948 against c1 = 78.96 at gaussian d = 4,
    gamma = 1/2).  Returns ``math.inf`` when I1 diverges (Cauchy) or c1 overflows.
    """
    try:
        return math.exp(_log_c1(d, gamma, _log_i(generator_by_name(family), d, 1)))
    except (DivergentIntegral, OverflowError):
        return math.inf


def _log_c1(d: int, gamma: float, log_i1: float) -> float:
    """log c1 from log I1: the gaussian's I1 overflows from d = 301, its c1 from d = 773."""
    return (d / 2) * math.log(math.pi) + log_i1 - math.log(d * gamma) - math.lgamma(d / 2)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def _test_inputs(
    kind: StatKind, data: ArrayLike, mu0: ArrayLike, sigma: SpdMatrix | ArrayLike | None, gamma: float
) -> tuple[StatKind, NDArray[np.float64], ForwardSearchConfig]:
    """The checked kind, (n, d) data and forward-search configuration of one test."""
    kind = StatKind(kind)
    x = as_data_matrix(data)
    mu = as_vector(mu0, "mu0")
    if x.shape[1] != mu.size:
        raise DimensionMismatch("data and mu0 dimensions disagree")
    config = ForwardSearchConfig(mu, SpdMatrix.identity(mu.size) if sigma is None else sigma, gamma)
    return kind, x, config


def statistic(
    kind: StatKind,
    data: ArrayLike,
    mu0: ArrayLike,
    sigma: SpdMatrix | ArrayLike | None = None,
    gamma: float = 0.5,
) -> float:
    """n * squared Euclidean norm of (estimate - mu0): :func:`batch_statistics` at reps = 1.

    The forward search is anchored at ``mu0`` under ``sigma`` (identity by
    default) and keeps the fraction ``gamma``; every kind checks that gamma
    lies in (0, 1], that ``sigma`` is SPD and that the dimensions match.
    """
    kind, x, config = _test_inputs(kind, data, mu0, sigma, gamma)
    return float(batch_statistics(x[None], config.mu0, config.sigma, gamma, (kind,))[kind][0])


def batch_statistics(
    data: NDArray[np.float64],
    mu0: NDArray[np.float64],
    sigma: SpdMatrix,
    gamma: float,
    kinds: Sequence[StatKind] = ALL_KINDS,
) -> dict[StatKind, NDArray[np.float64]]:
    """All requested statistics for a (reps, n, d) batch of datasets; t3 and
    t4 together sort the batch's columns once."""
    values = est._batch_estimates_by_kind([k.estimator for k in kinds], data, mu0, sigma, gamma)
    return {kind: _sq_norms(values[kind.estimator], mu0, data.shape[1]) for kind in kinds}


def _sq_norms(values: NDArray[np.float64], mu0: NDArray[np.float64], n: int) -> NDArray[np.float64]:
    """n * ||v - mu0||^2 for each row v of a C-ordered (reps, d) block of estimates."""
    diff = values - mu0
    return n * np.einsum("ri,ri->r", diff, diff)


# ---------------------------------------------------------------------------
# limiting laws and critical values
# ---------------------------------------------------------------------------

def limit_weights(kind: StatKind, family: str, sigma: SpdMatrix, gamma: float) -> NDArray[np.float64]:
    """Eigenvalue weights of the null limit of ``kind`` for ``family`` with scatter ``sigma``.

    The weights are the eigenvalues of (scale * Sigma) with the scale of
    :class:`LimitLaw`.  Raises :class:`InfiniteVariance` where that scale is
    infinite: the sample mean under the Cauchy kernel, and the trimmed mean
    there at gamma = 1.
    """
    law = LimitLaw(kind, family, sigma.d, gamma)
    if math.isinf(law.scale):
        raise InfiniteVariance(
            f"the {law.kind.value} limit variance is infinite for family {family!r} at gamma = {gamma}"
        )
    return law.scale * sigma.eigenvalues


#: cap on one block of formula-calibration normals, in floats (8 MB)
_CHISQ_BLOCK_FLOATS = 1 << 20


def weighted_chisq_sample(
    weights: NDArray[np.float64], size: int, rng: np.random.Generator
) -> NDArray[np.float64]:
    """Draws of sum_i weights_i * Z_i^2, from normals drawn in blocks of rows.

    A block is the largest power of two of rows, at least 8, within
    _CHISQ_BLOCK_FLOATS, so blocks start on BLAS's unrolled row groups and
    keep the bits of one (size, d) draw under single-threaded BLAS.
    """
    d = weights.size
    rows = 1 << max(3, (_CHISQ_BLOCK_FLOATS // d).bit_length() - 1)
    # a one-row tail joins the block before it: numpy takes a lone row's product as a dot
    bounds = [*range(0, max(size - 1, 1), rows), size]
    out = np.empty(size)
    for lo, hi in zip(bounds, bounds[1:]):
        z = rng.standard_normal((hi - lo, d))
        np.matmul(np.square(z, out=z), weights, out=out[lo:hi])
    return out


@dataclass(frozen=True)
class MonteCarloQuantile:
    """An empirical quantile and its large-sample standard error."""

    value: float
    stderr: float
    n_samples: int


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


#: number of weighted chi-squared draws for formula calibration at unequal weights
DEFAULT_MC_SAMPLES = 200_000
#: default number of null replications for empirical calibration
DEFAULT_NULL_REPS = 2_000


def critical_value(
    weights: ArrayLike,
    alpha: float,
    mc_samples: int | None = None,
    seed: int = 0,
) -> MonteCarloQuantile:
    """(1 - alpha) point of sum_i weights_i * Z_i^2.

    At equal weights, unless ``mc_samples`` is given, it is the exact
    point w * chi2_d, from the chi-squared upper tail, with standard error 0
    and no draws.  Otherwise it is
    the Monte Carlo quantile of ``mc_samples`` (default
    :data:`DEFAULT_MC_SAMPLES`) draws from the ``seed`` stream, with its
    standard error.
    """
    w = as_vector(weights, "weights")
    if np.any(w <= 0):
        raise ValueError("limit weights must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if mc_samples is None:
        if np.all(w == w[0]):
            return MonteCarloQuantile(float(w[0]) * _chi2_upper_point(w.size, alpha), 0.0, 0)
        mc_samples = DEFAULT_MC_SAMPLES
    if mc_samples < 100:
        raise ValueError("mc_samples is too small to estimate a quantile")
    rng = stream_rng(seed, "critical-value", *w)
    draws = weighted_chisq_sample(w, mc_samples, rng)
    return _quantile_with_se(draws, 1.0 - alpha)


def empirical_critical_value(
    kinds: Sequence[StatKind],
    family: str,
    mu0: ArrayLike,
    sigma: SpdMatrix,
    n: int,
    gamma: float,
    alpha: float,
    null_reps: int = DEFAULT_NULL_REPS,
    seed: int = 0,
) -> dict[StatKind, MonteCarloQuantile]:
    """(1 - alpha) quantile of each statistic in ``kinds``, from one parametric
    null simulation of ``null_reps`` datasets of n observations."""
    kinds = tuple(StatKind(k) for k in kinds)
    mu = as_vector(mu0, "mu0")
    model = EllipticalModel(generator_by_name(family), mu.size, mu, sigma)
    reduce = partial(batch_statistics, mu0=mu, sigma=sigma, gamma=gamma, kinds=kinds)
    stats = simulate(model, reduce, ("calibration", family), n, null_reps, seed)
    return {k: _quantile_with_se(stats[k], 1.0 - alpha) for k in kinds}


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
    mc_samples: int | None = None,
    null_reps: int = DEFAULT_NULL_REPS,
    seed: int = 0,
) -> MonteCarloQuantile:
    """The (1 - alpha) critical value of ``kind`` for n observations of ``family``.

    ``calibration="formula"`` takes the (1 - alpha) point of the weighted
    chi-squared limit from :func:`critical_value` (``n`` is unused);
    ``"empirical"`` takes ``kind``'s entry of :func:`empirical_critical_value`,
    which simulates the statistic itself under the null.  :func:`run_test`
    and ``fstest critical-value`` take their critical values only from here.
    """
    if calibration == "formula":
        return critical_value(limit_weights(kind, family, sigma, gamma), alpha, mc_samples, seed)
    if calibration == "empirical":
        kind = StatKind(kind)
        return empirical_critical_value((kind,), family, mu0, sigma, n, gamma, alpha, null_reps, seed)[kind]
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
        return {"schema": REPORT_SCHEMA, **asdict(self), "statistic": self.statistic.value}


def _report(
    kind: StatKind, value: float, crit: MonteCarloQuantile, alpha: float, p_value: float | None, seed: int
) -> TestReport:
    decision = "reject" if value > crit.value else "retain"
    return TestReport(kind, value, crit.value, alpha, decision, p_value, crit.n_samples, seed)


def run_test(
    kind: StatKind,
    data: ArrayLike,
    mu0: ArrayLike,
    sigma: SpdMatrix | ArrayLike | None = None,
    gamma: float = 0.5,
    alpha: float = 0.05,
    family: str = "gaussian",
    calibration: str = "empirical",
    mc_samples: int | None = None,
    null_reps: int = DEFAULT_NULL_REPS,
    seed: int = 0,
) -> TestReport:
    """Test the hypothesized location against the data, with the critical
    value of :func:`calibrate` for the named family at the observed sample size.

    Where that value is an exact point (formula calibration at equal weights
    and no ``mc_samples``), the limit tail at the observed value is the
    p-value; otherwise there is none.
    """
    kind, x, config = _test_inputs(kind, data, mu0, sigma, gamma)
    value = statistic(kind, x, config.mu0, config.sigma, gamma)
    crit = calibrate(
        kind,
        family,
        config.mu0,
        config.sigma,
        n=x.shape[0],
        gamma=gamma,
        alpha=alpha,
        calibration=calibration,
        mc_samples=mc_samples,
        null_reps=null_reps,
        seed=seed,
    )
    p_value = None
    if not crit.n_samples:  # an exact point draws nothing: the limit is w[0] * chi2_d
        w = limit_weights(kind, family, config.sigma, gamma)
        p_value = _chi2_tail(w.size, value / w[0])
    return _report(kind, value, crit, alpha, p_value, seed)


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
    the family shifted by ``shift_scale`` in every coordinate.  Streams
    belong to blocks of replications (:func:`fstest.rng.simulate`), so the
    result is independent of worker count.
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
        crits = empirical_critical_value(kinds, family, mu0, sigma, n, gamma, alpha, null_reps, seed)
        table[family] = {k: {} for k in kinds}
        for beta in beta_grid:
            beta = float(beta)
            mixture = MixtureModel(beta, null, shifted)
            stats = simulate(mixture, reduce, ("power", family, repr(beta)), n, reps, seed)
            for k in kinds:
                table[family][k][beta] = float(np.mean(stats[k] > crits[k].value))
    return table


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

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
    the critical value, and the share of them above the statistic the p-value.

    Resamples are drawn as blocks of row indices within the estimators'
    scratch budget, and each block is reduced from its indices and the data
    (``estimators._resample_estimates``; only t4 gathers the resampled
    datasets), with the bits of :func:`batch_statistics` on the resampled
    rows ``data[idx]``.
    """
    kind, x, config = _test_inputs(kind, data, mu0, sigma, gamma)
    if j < 1:
        raise ValueError("j must be positive")
    value = statistic(kind, x, config.mu0, config.sigma, gamma)
    stream = stream_rng(seed, "bootstrap", kind.value)
    n = x.shape[0]
    # t1 gathers the sample's distances: a row's depends on neither its batch nor its layout
    dist = mahalanobis_sq_many(x, config.mu0, config.sigma) if kind == StatKind.T1 else None
    # resample blocks of at most the estimators' scratch budget in entries bound
    # the index block and what each kind gathers from it; block-wise draws equal
    # one (j, n) draw, because PCG64 keeps the spare half of a 64-bit output
    chunk = max(1, est._SCRATCH_FLOATS // x.size)
    stats = np.empty(j)
    for start in range(0, j, chunk):
        idx = stream.integers(0, n, size=(min(chunk, j - start), n))
        values = est._resample_estimates(kind.estimator, x, idx, dist, gamma)
        stats[start : start + chunk] = _sq_norms(values, config.mu0, n)
    crit = _quantile_with_se(stats, 1.0 - alpha)
    return _report(kind, value, crit, alpha, float(np.mean(stats > value)), seed)
