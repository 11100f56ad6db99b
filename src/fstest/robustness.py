"""Breakdown experiments, finite-sample efficiency, and a covariance oracle.

The trimmed estimator keeps the m = floor(n * gamma) observations closest to
the hypothesized center, so corrupted points are ignored until more than
n - m of them exist; the empirical break fraction is therefore
(n - m + 1) / n, i.e. 1 - gamma up to the 1/n discretization.

Finite-sample efficiency follows the determinant convention: the ratio of
covariance determinants of two estimators across a common replication set,
raised to the power 1/d.

The covariance oracle measures the actual spread of sqrt(n) times the
trimmed estimator and reports it next to two reference scalars: the paper's
constant c1 and the limit variance E[x 1{x <= q_gamma}] / (d gamma^2) of
:class:`fstest.engine.LimitLaw`.  They disagree (c1 does not reduce to 1 at
gamma = 1 for the Gaussian kernel); the oracle checks the limit variance
and keeps the gap to c1 visible.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from . import estimators as est
from .elliptical import standard_model
from .engine import LimitLaw, StatKind, scatter_scale_constant
from .estimators import EstimatorKind
from .linalg import SpdMatrix
from .rng import simulate, stream_rng

__all__ = [
    "SingularCovariance",
    "BreakdownResult",
    "DEFAULT_MAGNITUDE_LADDER",
    "breakdown_experiment",
    "EfficiencyResult",
    "finite_sample_efficiency",
    "finite_sample_efficiencies",
    "empirical_limit_covariance",
]

log = logging.getLogger(__name__)


class SingularCovariance(ArithmeticError):
    """A replication covariance matrix is numerically singular."""


#: contamination magnitudes 10^3 .. 10^12
DEFAULT_MAGNITUDE_LADDER = tuple(10.0**k for k in range(3, 13))


@dataclass(frozen=True)
class BreakdownResult:
    """Outcome of one contamination sweep.

    ``deviations[i, j]`` is the distance between the clean-data estimate and
    the estimate after pushing ``corrupted_counts[i]`` points to magnitude
    ``magnitudes[j]``.  ``broke[i]`` marks unbounded growth (top-rung
    deviation beyond magnitude/100, still climbing over the last three
    rungs).  ``break_fraction`` is the smallest broken count over n.
    """

    gamma: float
    n: int
    d: int
    magnitudes: tuple[float, ...]
    corrupted_counts: tuple[int, ...]
    broke: tuple[bool, ...]
    deviations: NDArray[np.float64]
    break_fraction: float | None

    @property
    def fractions(self) -> tuple[float, ...]:
        return tuple(c / self.n for c in self.corrupted_counts)

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "n": self.n,
            "d": self.d,
            "magnitudes": list(self.magnitudes),
            "corrupted_counts": list(self.corrupted_counts),
            "fractions": list(self.fractions),
            "broke": [bool(b) for b in self.broke],
            "top_deviations": [float(x) for x in self.deviations[:, -1]],
            "break_fraction": self.break_fraction,
        }


def breakdown_experiment(
    gamma: float,
    n: int = 20,
    d: int = 4,
    magnitude_ladder: tuple[float, ...] = DEFAULT_MAGNITUDE_LADDER,
    seed: int = 0,
) -> BreakdownResult:
    """Push 1..n-1 points to ever larger magnitudes and watch the estimate.

    The clean sample is Gaussian.  A contamination count "breaks" the
    estimator when the deviation from the clean-data estimate keeps growing
    with the magnitude instead of stabilizing: the top-rung deviation
    exceeds top_magnitude / 100 and the last three rungs are strictly
    increasing.

    Each count runs one forward-search batch, a replication per rung, with
    the batch's tie rule: the pushed points, the first rows, tie with one
    another and are kept before later rows at the same distance.
    """
    if len(magnitude_ladder) < 3:
        raise ValueError("magnitude ladder needs at least three rungs")
    if any(b <= a for a, b in zip(magnitude_ladder, magnitude_ladder[1:])):
        raise ValueError("magnitude ladder must be strictly increasing")
    if n < 2:
        raise ValueError("n must be at least 2")
    model = standard_model("gaussian", d)
    rng = stream_rng(seed, "breakdown", repr(float(gamma)), n, d)
    clean = model.sample(n, rng)
    params = (np.zeros(d), SpdMatrix.identity(d), gamma)
    reference = est.batch_estimates(EstimatorKind.FORWARD_SEARCH, clean[None], *params)[0]

    counts = tuple(range(1, n))
    deviations = np.empty((len(counts), len(magnitude_ladder)))
    # one replication per rung; counts grow, so each pass overwrites one more row
    rungs = np.array(magnitude_ladder, dtype=float)[:, None, None]
    corrupted = np.repeat(clean[None], len(rungs), axis=0)
    for i, n_star in enumerate(counts):
        corrupted[:, :n_star] = rungs
        shifted = est.batch_estimates(EstimatorKind.FORWARD_SEARCH, corrupted, *params)
        deviations[i] = [np.linalg.norm(row - reference) for row in shifted]

    a, b, c = deviations[:, -3:].T
    broke = tuple(bool(x) for x in (c > magnitude_ladder[-1] / 100.0) & (a < b) & (b < c))
    return BreakdownResult(
        gamma=gamma,
        n=n,
        d=d,
        magnitudes=tuple(float(m) for m in magnitude_ladder),
        corrupted_counts=counts,
        broke=broke,
        deviations=deviations,
        break_fraction=next((k / n for k, flag in zip(counts, broke) if flag), None),
    )


# ---------------------------------------------------------------------------
# finite-sample efficiency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EfficiencyResult:
    """Determinant-ratio efficiency of ``numerator`` relative to ``denominator``."""

    numerator: EstimatorKind
    denominator: EstimatorKind
    family: str
    n: int
    d: int
    reps: int
    gamma: float
    value: float
    stderr: float | None = None


def _estimates(
    kinds: tuple[EstimatorKind, ...], gamma: float, data: NDArray[np.float64]
) -> dict[EstimatorKind, NDArray[np.float64]]:
    d = data.shape[2]
    mu0 = np.zeros(d)
    sigma = SpdMatrix.identity(d)
    return {kind: est.batch_estimates(kind, data, mu0, sigma, gamma) for kind in kinds}


def _replicated_estimates(
    family: str,
    n: int,
    d: int,
    gamma: float,
    kinds: tuple[EstimatorKind, ...],
    reps: int,
    seed: int,
) -> dict[EstimatorKind, NDArray[np.float64]]:
    reduce = partial(_estimates, kinds, gamma)
    return simulate(standard_model(family, d), reduce, ("efficiency", family, n), n, reps, seed)


def _log_det_cov(values: NDArray[np.float64]) -> float:
    centered = values - values.mean(axis=0)
    cov = centered.T @ centered / values.shape[0]
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0 or not np.isfinite(logdet):
        raise SingularCovariance(
            "replication covariance is singular; increase the replication count"
        )
    return float(logdet)


def finite_sample_efficiency(
    numerator: EstimatorKind,
    denominator: EstimatorKind = EstimatorKind.FORWARD_SEARCH,
    family: str = "gaussian",
    n: int = 100,
    d: int = 4,
    reps: int = 1000,
    gamma: float = 0.5,
    seed: int = 0,
    bootstrap: int = 0,
) -> EfficiencyResult:
    """(|COV(numerator)| / |COV(denominator)|)^{1/d} over shared replications.

    Both estimators run on the same simulated datasets, so swapping the pair
    on the same seed returns the exact reciprocal.  ``bootstrap`` > 0 adds a
    standard error from resampling replication indices; it must be 0 or at
    least 2.
    """
    return finite_sample_efficiencies(
        (numerator,), denominator, family, n, d, reps, gamma, seed, bootstrap
    )[0]


def finite_sample_efficiencies(
    numerators: Sequence[EstimatorKind],
    denominator: EstimatorKind = EstimatorKind.FORWARD_SEARCH,
    family: str = "gaussian",
    n: int = 100,
    d: int = 4,
    reps: int = 1000,
    gamma: float = 0.5,
    seed: int = 0,
    bootstrap: int = 0,
) -> list[EfficiencyResult]:
    """:func:`finite_sample_efficiency` for each numerator, from one simulation.

    The replications, the denominator's log-determinants and the bootstrap
    resamples are shared, so each result equals its own
    ``finite_sample_efficiency`` call bit for bit.
    """
    numerators = [EstimatorKind(k) for k in numerators]
    denominator = EstimatorKind(denominator)
    if reps < 2:
        raise ValueError("reps must be at least 2 (100+ for stable determinants)")
    if bootstrap < 0 or bootstrap == 1:
        raise ValueError("bootstrap must be 0 or at least 2: a standard error needs two draws")
    kinds = tuple(dict.fromkeys((*numerators, denominator)))
    values = _replicated_estimates(family, n, d, gamma, kinds, reps, seed)

    def ratios(idx=slice(None)) -> list[float]:
        log_dets = {kind: _log_det_cov(values[kind][idx]) for kind in kinds}
        return [math.exp((log_dets[k] - log_dets[denominator]) / d) for k in numerators]

    stderrs = [None] * len(numerators)
    if bootstrap > 0:
        rng = stream_rng(seed, "efficiency-bootstrap", family, n)
        draws = np.empty((len(numerators), bootstrap))
        for b in range(bootstrap):
            draws[:, b] = ratios(rng.integers(0, reps, size=reps))
        stderrs = [float(row.std(ddof=1)) for row in draws]
    return [
        EfficiencyResult(numerator, denominator, family, n, d, reps, gamma, value, stderr)
        for numerator, value, stderr in zip(numerators, ratios(), stderrs)
    ]


# ---------------------------------------------------------------------------
# covariance oracle
# ---------------------------------------------------------------------------

def empirical_limit_covariance(
    family: str,
    gamma: float,
    n: int = 500,
    d: int = 2,
    reps: int = 5000,
    seed: int = 0,
) -> SpdMatrix:
    """Sample covariance of sqrt(n) * (trimmed estimate - mu0) at the null.

    Logs the mean diagonal next to the paper's constant c1 and the limit
    variance of :class:`LimitLaw`, so the gap between them stays visible.
    """
    values = _replicated_estimates(
        family, n, d, gamma, (EstimatorKind.FORWARD_SEARCH,), reps, seed
    )[EstimatorKind.FORWARD_SEARCH]
    scaled = math.sqrt(n) * values
    centered = scaled - scaled.mean(axis=0)
    cov = centered.T @ centered / reps
    diag = float(np.mean(np.diag(cov)))
    formula = scatter_scale_constant(family, d, gamma)
    oracle = LimitLaw(StatKind.T1, family, d, gamma).scale
    log.info(
        "empirical diag %.4f vs paper constant c1 %.4f vs limit variance %.4f "
        "(family=%s d=%d gamma=%.2f n=%d reps=%d)",
        diag, formula, oracle, family, d, gamma, n, reps,
    )
    return SpdMatrix(cov)
