"""Asymptotic efficiencies and local-alternative power.

The asymptotic efficiency of the trimmed estimator relative to a competitor
is the ratio of the competitor's limiting variance scalar to the trimmed
estimator's scalar c1:

    e1 = Var(Y_1) / c1                      (vs. the sample mean)
    e2 = 1 / (4 g1(0)^2 c1)                 (vs. the coordinate-wise median)
    e3 = 1 / (12 (int g1^2)^2 c1)           (vs. the Hodges-Lehmann estimator)

with c1 = pi^{d/2} I1 / (d gamma Gamma(d/2)).  For the three built-in
kernels these reduce to closed forms which we evaluate in log space (they
decay or grow super-geometrically in d).  ``root_efficiency`` applies the
d-th root used by determinant-based comparisons.

c1 is the paper's constant, the divisor of the defining ratios, which the
tests' quadrature oracle evaluates (``tests/oracles.py``); it is not the
limit variance of the trimmed mean, :attr:`fstest.engine.LimitLaw.scale`.

Under local alternatives mu0 + delta/sqrt(n), sqrt(n) (T - mu0) tends to
N(kappa delta, lambda I) for the standard member, with the variance scalar
lambda and the drift factor kappa of :class:`fstest.engine.LimitLaw`.  So
n ||T - mu0||^2 tends to lambda chi2_d(||kappa delta||^2 / lambda), and the
limiting power is a noncentral chi-squared tail, evaluated exactly.  The t1
drift kappa = F_{a+1}(v) / gamma (0.4741, 0.7986 and 5.0e-16 for the three
kernels at d = 4, gamma = 1/2) is also the covariance of sqrt(n) (T - mu0)
with the delta-weighted log-likelihood gradient of the sample;
``estimate_all_offsets`` estimates it that way by Monte Carlo, as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from . import estimators as est
from ._special import _chi2_upper_point, _noncentral_chi2_cdf
from .elliptical import EllipticalModel, generator_by_name, standard_model
from .engine import LimitLaw, StatKind
from .linalg import SpdMatrix, as_vector
from .rng import simulate

__all__ = [
    "EFFICIENCY_KEYS",
    "DEFAULT_D_GRID",
    "efficiency",
    "root_efficiency",
    "efficiency_grid",
    "ContiguousSpec",
    "OffsetEstimate",
    "contiguous_power",
    "local_power_rows",
]

EFFICIENCY_KEYS = ("e1", "e2", "e3")

#: default dimension grid for the efficiency comparisons
DEFAULT_D_GRID = (2, 4, 10, 20, 50, 100)

#: fixed variance constant of the light-tailed Hodges-Lehmann closed form,
#: kept verbatim; the defining ratio has 100 / (12 (int g1^2)^2) with a
#: d-dependent marginal in its place
LIGHT_TAIL_HL_CONSTANT = 53188.48


def _check_args(which: str, d: int, gamma: float):
    if which not in EFFICIENCY_KEYS:
        raise ValueError(f"which must be one of {EFFICIENCY_KEYS}, got {which!r}")
    if d < 1:
        raise ValueError("d must be a positive integer")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")


def _exp_or_inf(log_value: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def efficiency(family: str, which: str, d: int, gamma: float = 0.5) -> float:
    """Asymptotic efficiency of the trimmed estimator vs. a competitor, in closed form.

    ``which`` selects the competitor: "e1" sample mean, "e2" coordinate-wise
    median, "e3" Hodges-Lehmann.  The forms are evaluated in log space.  The
    gaussian ones equal the defining variance-scalar ratio.  The cauchy and
    light100 ones are tabulated forms with fixed marginal constants, which
    the ratio does not reproduce: the cauchy e2 and e3 are finite although
    its I1, and so c1, diverges, and each light100 form differs from the
    ratio (e3 takes ``LIGHT_TAIL_HL_CONSTANT``).
    """
    _check_args(which, d, gamma)
    log_gamma_d2 = math.lgamma(d / 2)
    if family == "gaussian":
        base = math.log(gamma) - (d / 2) * math.log(2.0 * math.pi)
        if which == "e1":
            return _exp_or_inf(base)
        if which == "e2":
            return _exp_or_inf(base + math.log(math.pi / 2.0))
        return _exp_or_inf(base + math.log(math.pi / 3.0))
    if family == "cauchy":
        if which == "e1":
            # the sample mean has no finite component variance here
            return math.inf
        base = (
            math.log(gamma * d)
            + ((3.0 - d) / 2.0) * math.log(math.pi)
            + math.lgamma((d + 1) / 2.0)
        )
        divisor = 4.0 if which == "e2" else 12.0
        return _exp_or_inf(base - math.log(divisor))
    if family == "light100":
        base = (
            math.log(gamma * d)
            + log_gamma_d2
            - (d / 2) * math.log(math.pi)
            - math.lgamma((d / 2 + 1) / 100.0)
        )
        if which == "e1":
            return _exp_or_inf(base + math.log(100.0))
        if which == "e2":
            return _exp_or_inf(base + 2.0 * math.lgamma(1.0 / 200.0) - math.log(400.0))
        return _exp_or_inf(base + math.log(LIGHT_TAIL_HL_CONSTANT))
    raise ValueError(f"no closed efficiency forms for family {family!r}")


def root_efficiency(family: str, which: str, d: int, gamma: float = 0.5) -> float:
    """efficiency^{1/d}: the determinant-based per-coordinate convention."""
    value = efficiency(family, which, d, gamma)
    if math.isinf(value):
        return math.inf
    return value ** (1.0 / d)


def efficiency_grid(
    family: str, d_grid: Sequence[int] = DEFAULT_D_GRID, gamma: float = 0.5
) -> dict[str, dict[int, float]]:
    """root_efficiency over a dimension grid, keyed which -> d -> value."""
    return {
        which: {int(d): root_efficiency(family, which, int(d), gamma) for d in d_grid}
        for which in EFFICIENCY_KEYS
    }


# ---------------------------------------------------------------------------
# local alternatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContiguousSpec:
    """A local alternative mu0 + delta/sqrt(n) around the standard model."""

    delta: NDArray[np.float64]
    family: str
    n: int = 100
    gamma: float = 0.5

    def __post_init__(self):
        delta = as_vector(self.delta, "delta")
        generator_by_name(self.family)  # validate the name early
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        object.__setattr__(self, "delta", delta)

    @property
    def d(self) -> int:
        return self.delta.size


@dataclass(frozen=True)
class OffsetEstimate:
    """Monte Carlo estimate of the limit mean offsets for one statistic."""

    kind: StatKind
    values: NDArray[np.float64]
    stderr: NDArray[np.float64]
    reps: int


def _offset_samples(
    model: EllipticalModel,
    delta: NDArray[np.float64],
    gamma: float,
    kinds: tuple[StatKind, ...],
    data: NDArray[np.float64],
) -> dict[StatKind, NDArray[np.float64]]:
    d = model.d
    # the location score of the standard member, -2 g'(x)/g(x) y at x = |y|^2
    x = np.einsum("...i,...i->...", data, data)
    scores = -2.0 * model.generator.dlog_g(x, d)[..., None] * data
    # delta-weighted log-likelihood gradient of each whole sample
    gradients = np.einsum("rnj,j->r", scores, delta)
    mu0 = np.zeros(d)
    sigma = SpdMatrix.identity(d)
    return {
        kind: est.batch_estimates(kind.estimator, data, mu0, sigma, gamma) * gradients[:, None]
        for kind in kinds
    }


def estimate_all_offsets(
    spec: ContiguousSpec,
    kinds: Sequence[StatKind] = tuple(StatKind),
    reps: int = 5000,
    seed: int = 0,
) -> dict[StatKind, OffsetEstimate]:
    """Offsets for several statistics from one shared set of replications.

    Each replication draws a null sample, multiplies every estimator
    coordinate by the delta-weighted score sum of that sample, and the
    offsets are the averages across replications.  Streams are derived per
    replication, so results do not depend on the worker count.  Only the
    tests call it, as the Monte Carlo check of kappa, so it is not in ``__all__``.
    """
    if reps < 2:
        raise ValueError("reps must be at least 2")
    kinds = tuple(StatKind(k) for k in kinds)
    model = standard_model(spec.family, spec.d)
    reduce = partial(_offset_samples, model, spec.delta, spec.gamma, kinds)
    samples = simulate(model, reduce, ("offsets", spec.family), spec.n, reps, seed)
    return {
        kind: OffsetEstimate(
            kind=kind,
            values=s.mean(axis=0),
            stderr=s.std(axis=0, ddof=1) / math.sqrt(reps),
            reps=reps,
        )
        for kind, s in samples.items()
    }


def contiguous_power(
    kind: StatKind,
    family: str,
    delta: ArrayLike,
    gamma: float = 0.5,
    alpha: float = 0.05,
) -> float:
    """Limiting power against mu0 + delta/sqrt(n) at level alpha.

    n ||T - mu0||^2 converges to lambda chi2_d(||kappa delta||^2 / lambda)
    with the scale lambda and drift kappa of :class:`LimitLaw`, and the
    critical value is lambda times the central (1 - alpha) point, so the
    power is the exact noncentral chi-squared tail.  Where lambda is
    infinite (the sample mean under ``cauchy``) the limiting power is 0, that
    of the formula-calibrated test, whose critical value is infinite; an
    empirically calibrated one keeps a power near alpha (0.0585 by simulation
    at n = 400, d = 4, delta = (1, ..., 1)).  ||delta|| is taken by
    ``math.hypot``, so a delta whose square overflows (1e200) gets power 1.
    """
    delta = as_vector(delta, "delta")
    return _limit_power(LimitLaw(kind, family, delta.size, gamma), delta, alpha)


def _limit_power(law: LimitLaw, delta: NDArray[np.float64], alpha: float) -> float:
    """:func:`contiguous_power` of a built law at the shift ``delta``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if math.isinf(law.scale):
        return 0.0
    norm = math.hypot(*delta)  # finite where |delta|^2 overflows
    shift = law.drift**2 * norm * norm / law.scale
    if shift == math.inf:
        return 1.0
    return 1.0 - _noncentral_chi2_cdf(_chi2_upper_point(delta.size, alpha), delta.size, shift)


def local_power_rows(
    families: Sequence[str],
    delta_components: Sequence[float],
    d: int = 4,
    gamma: float = 0.5,
    alpha: float = 0.05,
) -> list[dict]:
    """Limiting power of all four statistics on a grid of equal-component shifts.

    One row per (family, component value c) with delta = c * (1, ..., 1),
    each cell equal to :func:`contiguous_power` and computed from one law per
    (family, kind).  The powers are exact, so the se columns, kept for the
    table layout, are 0.0.
    """
    rows = []
    for family in families:
        laws = {kind: LimitLaw(kind, family, d, gamma) for kind in StatKind}
        for comp in delta_components:
            delta = as_vector(np.full(d, float(comp)), "delta")
            row: dict = {
                "family": family,
                "delta_component": float(comp),
                "delta_norm": math.hypot(*delta),
            }
            for kind in StatKind:
                row[kind.value] = _limit_power(laws[kind], delta, alpha)
                row[f"{kind.value}_se"] = 0.0
            rows.append(row)
    return rows
