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
from . import rng
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

    One forward-search batch holds a replication per (count, rung), built
    in blocks of at most ``rng.SIMULATION_BLOCK_FLOATS`` entries, with the
    batch's tie rule: the pushed points, the first rows, tie with one
    another and are kept before later rows at the same distance.
    """
    if len(magnitude_ladder) < 3:
        raise ValueError("magnitude ladder needs at least three rungs")
    if any(b <= a for a, b in zip(magnitude_ladder, magnitude_ladder[1:])):
        raise ValueError("magnitude ladder must be strictly increasing")
    if n < 2:
        raise ValueError("n must be at least 2")
    clean = standard_model("gaussian", d).sample(n, stream_rng(seed, "breakdown", repr(float(gamma)), n, d))
    params = (np.zeros(d), SpdMatrix.identity(d), gamma)
    reference = est.batch_estimates(EstimatorKind.FORWARD_SEARCH, clean[None], *params)[0]

    counts = tuple(range(1, n))
    # replication i * rungs + j pushes the first counts[i] rows to rung j
    pushed = np.repeat(np.array(counts), len(magnitude_ladder))[:, None]
    rungs = np.tile(np.array(magnitude_ladder, dtype=float), len(counts))[:, None, None]
    shifted = np.empty((len(rungs), d))
    step = max(1, rng.SIMULATION_BLOCK_FLOATS // (n * d))
    for lo in range(0, len(rungs), step):
        rows = (pushed[lo : lo + step] > np.arange(n))[:, :, None]
        block = np.where(rows, rungs[lo : lo + step], clean)
        shifted[lo : lo + step] = est.batch_estimates(EstimatorKind.FORWARD_SEARCH, block, *params)
    diff = shifted - reference
    # a stacked row product keeps np.linalg.norm's bits (its sqrt(dot(x, x)))
    deviations = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0]).reshape(len(counts), -1)

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
    stderr: float


def _estimates(
    kinds: tuple[EstimatorKind, ...], gamma: float, data: NDArray[np.float64]
) -> dict[EstimatorKind, NDArray[np.float64]]:
    d = data.shape[2]
    return est._batch_estimates_by_kind(kinds, data, np.zeros(d), SpdMatrix.identity(d), gamma)


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


def _log_det_cov(values: NDArray[np.float64]) -> tuple[float, NDArray[np.float64]]:
    """log|S| of the replications' covariance S, and each replication's
    squared Mahalanobis length against S (its influence on log|S|, plus d)."""
    centered = values - values.mean(axis=0)
    cov = centered.T @ centered / values.shape[0]
    sign, logdet = np.linalg.slogdet(cov)
    try:
        if sign <= 0 or not np.isfinite(logdet):
            raise np.linalg.LinAlgError
        scaled = np.linalg.solve(np.linalg.cholesky(cov), centered.T)
    except np.linalg.LinAlgError:
        raise SingularCovariance(
            "replication covariance is singular; increase the replication count"
        ) from None
    return float(logdet), np.einsum("ij,ij->j", scaled, scaled)


def finite_sample_efficiency(
    numerator: EstimatorKind,
    denominator: EstimatorKind = EstimatorKind.FORWARD_SEARCH,
    family: str = "gaussian",
    n: int = 100,
    d: int = 4,
    reps: int = 1000,
    gamma: float = 0.5,
    seed: int = 0,
) -> EfficiencyResult:
    """(|COV(numerator)| / |COV(denominator)|)^{1/d} over shared replications.

    Both estimators run on the same simulated datasets, so swapping the pair
    on the same seed returns the exact reciprocal.  The standard error is
    the delta method's: replication r moves log|S_k| by m²_{k,r} - d, where
    m²_{k,r} is its squared Mahalanobis length against S_k, so
    stderr = e * sd_r((m²_{num,r} - m²_{den,r}) / d) / sqrt(reps).
    """
    return finite_sample_efficiencies((numerator,), denominator, family, n, d, reps, gamma, seed)[0]


def finite_sample_efficiencies(
    numerators: Sequence[EstimatorKind],
    denominator: EstimatorKind = EstimatorKind.FORWARD_SEARCH,
    family: str = "gaussian",
    n: int = 100,
    d: int = 4,
    reps: int = 1000,
    gamma: float = 0.5,
    seed: int = 0,
) -> list[EfficiencyResult]:
    """:func:`finite_sample_efficiency` for each numerator, from one simulation.

    The replications and the denominator's log-determinant are shared, so
    each result equals its own ``finite_sample_efficiency`` call bit for bit.
    """
    numerators = [EstimatorKind(k) for k in numerators]
    denominator = EstimatorKind(denominator)
    if reps < 2:
        raise ValueError("reps must be at least 2 (100+ for stable determinants)")
    kinds = tuple(dict.fromkeys((*numerators, denominator)))
    values = _replicated_estimates(family, n, d, gamma, kinds, reps, seed)
    fits = {kind: _log_det_cov(values[kind]) for kind in kinds}
    log_det_1, m2_1 = fits[denominator]
    results = []
    for k in numerators:
        log_det, m2 = fits[k]
        value = math.exp((log_det - log_det_1) / d)
        stderr = value * float(np.std((m2 - m2_1) / d, ddof=1)) / math.sqrt(reps)
        results.append(EfficiencyResult(k, denominator, family, n, d, reps, gamma, value, stderr))
    return results


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
