"""Asymptotic efficiencies and local-alternative power.

The asymptotic efficiency of the trimmed estimator relative to a competitor
is the ratio of the competitor's limiting variance scalar to the trimmed
estimator's scalar c1:

    e1 = Var(Y_1) / c1                      (vs. the sample mean)
    e2 = 1 / (4 g1(0)^2 c1)                 (vs. the coordinate-wise median)
    e3 = 1 / (12 (int g1^2)^2 c1)           (vs. the Hodges-Lehmann estimator)

with c1 = pi^{d/2} I1 / (d gamma Gamma(d/2)).  For the three built-in
kernels these reduce to closed forms which we evaluate in log space (they
decay or grow super-geometrically in d); a generic quadrature path evaluates
the defining ratio directly.  ``root_efficiency`` applies the d-th root used
by determinant-based comparisons.

Under local alternatives mu0 + delta/sqrt(n), sqrt(n) (T - mu0) tends to
N(a, lambda I) for the standard member, so n ||T - mu0||^2 tends to
sum_i lambda (Z_i + a_i/sqrt(lambda))^2.  lambda is the true variance scalar
of the estimator: the trimmed-moment value E[x 1{x <= q_gamma}] / (d gamma^2)
for t1 (finite under ``cauchy``), the component, median and Hodges-Lehmann
constants for t2, t3 and t4.  The drift has a closed form by Le Cam's third
lemma: a = delta for the location-equivariant t2, t3 and t4, and
a = kappa delta for t1 with kappa = 1 - 2 q f_X(q) / (d gamma), q the
gamma-quantile of the squared radius X and f_X its density.  The drift is
also the covariance of sqrt(n) (T - mu0) with the delta-weighted
log-likelihood gradient of the sample; ``estimate_offsets`` estimates it
that way by Monte Carlo, as a cross-check of the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from . import estimators as est
from .elliptical import (
    DivergentIntegral,
    EllipticalModel,
    generator_by_name,
    marginal_density_at_zero,
    marginal_density_sq_integral,
    radial_integral,
    radial_quantile,
    standard_model,
)
from .engine import DEFAULT_MC_SAMPLES, StatKind, variance_constants
from .linalg import SpdMatrix, as_vector
from .rng import simulate, stream_rng
from .robustness import trimmed_variance_oracle

__all__ = [
    "EFFICIENCY_KEYS",
    "DEFAULT_D_GRID",
    "EfficiencySpec",
    "efficiency",
    "root_efficiency",
    "efficiency_grid",
    "LimitTrend",
    "limit_behavior",
    "light_tail_hl_constant_gap",
    "ContiguousSpec",
    "OffsetEstimate",
    "estimate_offsets",
    "estimate_all_offsets",
    "local_variance_scalar",
    "drift_factor",
    "contiguous_power",
    "local_power_rows",
    "InformationCheck",
    "information_check",
]

EFFICIENCY_KEYS = ("e1", "e2", "e3")

#: default dimension grid for the efficiency comparisons
DEFAULT_D_GRID = (2, 4, 10, 20, 50, 100)

#: fixed variance constant used by the light-tailed Hodges-Lehmann
#: comparison; kept verbatim (see light_tail_hl_constant_gap)
LIGHT_TAIL_HL_CONSTANT = 53188.48


@dataclass(frozen=True)
class EfficiencySpec:
    family: str
    d: int
    gamma: float
    which: str
    value: float


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


def _closed_efficiency(family: str, which: str, d: int, gamma: float) -> float:
    """Closed-form efficiencies, evaluated in log space."""
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


def _quadrature_efficiency(family: str, which: str, d: int, gamma: float) -> float:
    """The defining variance-scalar ratio with every integral done numerically."""
    gen = generator_by_name(family)
    if which == "e1":
        try:
            i1 = radial_integral(gen, d, 1, method="quadrature")
        except DivergentIntegral:
            return math.inf
        i0 = radial_integral(gen, d, 0, method="quadrature")
        var = i1 / (d * i0)
        c1 = math.pi ** (d / 2) * i1 / (d * gamma * math.gamma(d / 2))
        return var / c1
    i1 = radial_integral(gen, d, 1, method="quadrature")
    denom_core = math.pi ** (d / 2) * i1 / (d * gamma * math.gamma(d / 2))
    if which == "e2":
        g1_0 = marginal_density_at_zero(gen, d, method="quadrature")
        return 1.0 / (4.0 * g1_0**2 * denom_core)
    int_sq = marginal_density_sq_integral(gen, d, method="quadrature")
    return 1.0 / (12.0 * int_sq**2 * denom_core)


def efficiency(
    family: str, which: str, d: int, gamma: float = 0.5, method: str = "auto"
) -> float:
    """Asymptotic efficiency of the trimmed estimator vs. a competitor.

    ``which`` selects the competitor: "e1" sample mean, "e2" coordinate-wise
    median, "e3" Hodges-Lehmann.  ``method="closed"`` evaluates the tabulated
    closed form; ``"quadrature"`` evaluates the defining ratio numerically.
    The two paths agree for the Gaussian kernel; for the heavy- and
    light-tailed kernels the closed forms embed fixed marginal constants
    that the numeric path does not reproduce (see module docs), so pick the
    path deliberately when it matters.
    """
    _check_args(which, d, gamma)
    if method == "auto":
        method = "closed"
    if method == "closed":
        return _closed_efficiency(family, which, d, gamma)
    if method == "quadrature":
        return _quadrature_efficiency(family, which, d, gamma)
    raise ValueError(f"unknown method {method!r}")


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


@dataclass(frozen=True)
class LimitTrend:
    """Numeric confirmation of the large-d behaviour of one efficiency."""

    family: str
    which: str
    gamma: float
    ds: tuple[int, ...]
    values: tuple[float, ...]
    target: str  # "zero" or "infinity"
    monotone_tail: bool
    crossed_at: int | None  # first d meeting the target threshold

    ZERO_THRESHOLD = 1e-6
    INFINITY_THRESHOLD = 1e3


def limit_behavior(
    family: str, which: str, d_max: int = 100, gamma: float = 0.5
) -> LimitTrend:
    """Evaluate the closed form on 2..d_max and locate the limit crossing.

    The Gaussian efficiencies decay to zero; the heavy- and light-tailed
    ones (where finite) grow without bound.  The tail after d=10 must be
    monotone for the trend to count as confirmed.
    """
    if d_max < 10:
        raise ValueError("d_max must be at least 10")
    _check_args(which, 2, gamma)
    target = "zero" if family == "gaussian" else "infinity"
    ds = tuple(range(2, d_max + 1))
    values = tuple(efficiency(family, which, d, gamma) for d in ds)
    tail = [v for d, v in zip(ds, values) if d >= 10]
    if target == "zero":
        monotone = all(b < a for a, b in zip(tail, tail[1:]))
        crossed = next((d for d, v in zip(ds, values) if v < LimitTrend.ZERO_THRESHOLD), None)
    else:
        monotone = all(b > a or math.isinf(a) for a, b in zip(tail, tail[1:]))
        crossed = next(
            (d for d, v in zip(ds, values) if v > LimitTrend.INFINITY_THRESHOLD), None
        )
    return LimitTrend(family, which, gamma, ds, values, target, monotone, crossed)


def light_tail_hl_constant_gap(d: int, gamma: float = 0.5) -> dict[str, float]:
    """Compare the fixed light-tail HL constant with the quadrature value.

    The tabulated form uses one d-independent constant where the defining
    ratio has 100/(12 (int g1^2)^2) with a d-dependent marginal.  Returns
    both and their relative gap; reported, not asserted.
    """
    int_sq = marginal_density_sq_integral(generator_by_name("light100"), d, method="quadrature")
    implied = 100.0 / (12.0 * int_sq**2)
    return {
        "tabulated": LIGHT_TAIL_HL_CONSTANT,
        "quadrature": implied,
        "relative_gap": abs(implied - LIGHT_TAIL_HL_CONSTANT) / LIGHT_TAIL_HL_CONSTANT,
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
    scores = model.location_score(data.reshape(-1, d)).reshape(data.shape)
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
    replication, so results do not depend on the worker count.
    """
    if reps < 2:
        raise ValueError("reps must be at least 2")
    kinds = tuple(StatKind(k) for k in kinds)
    model = standard_model(spec.family, spec.d)
    reduce = partial(_offset_samples, model, spec.delta, spec.gamma, kinds)
    samples = simulate(model.sample, reduce, ("offsets", spec.family), spec.n, spec.d, reps, seed)
    return {
        kind: OffsetEstimate(
            kind=kind,
            values=s.mean(axis=0),
            stderr=s.std(axis=0, ddof=1) / math.sqrt(reps),
            reps=reps,
        )
        for kind, s in samples.items()
    }


def estimate_offsets(
    spec: ContiguousSpec, kind: StatKind, reps: int = 5000, seed: int = 0
) -> OffsetEstimate:
    return estimate_all_offsets(spec, (StatKind(kind),), reps, seed)[StatKind(kind)]


def local_variance_scalar(kind: StatKind, family: str, d: int, gamma: float = 0.5) -> float:
    """Variance scalar lambda of one coordinate of sqrt(n) (estimate - mu0).

    The true per-coordinate limit variance under the standard member: the
    trimmed-moment value E[x 1{x <= q_gamma}] / (d gamma^2) for t1 (finite
    under every kernel when gamma < 1), and the component, median and
    Hodges-Lehmann constants for t2, t3 and t4.  ``math.inf`` where the
    variance does not exist (the sample mean, or t1 at gamma = 1, under
    ``cauchy``).
    """
    kind = StatKind(kind)
    if kind != StatKind.T1:
        return variance_constants(family, d, gamma).scalar_for(kind)
    try:
        return trimmed_variance_oracle(family, d, gamma)
    except DivergentIntegral:
        return math.inf


def drift_factor(kind: StatKind, family: str, d: int, gamma: float = 0.5) -> float:
    """kappa with limit drift a = kappa * delta under mu0 + delta/sqrt(n).

    t2, t3 and t4 are location-equivariant, so Le Cam's third lemma gives
    kappa = 1.  For the anchored trimmed mean integration by parts gives
    kappa = 1 - 2 q f_X(q) / (d gamma), where q is the gamma-quantile of the
    squared radius X and f_X(x) = x^{d/2-1} g(x) / I0 its density: 0.4741
    (gaussian), 0.7986 (cauchy) and 0 up to rounding (light100, whose kernel
    is flat on the trimming ball) at d = 4, gamma = 1/2.
    """
    kind = StatKind(kind)
    if kind != StatKind.T1 or gamma == 1.0:
        return 1.0
    gen = generator_by_name(family)
    q = radial_quantile(gen, d, gamma)
    log_density = (d / 2 - 1) * math.log(q) + float(gen.log_g(q, d)) - math.log(
        radial_integral(gen, d, 0)
    )
    return 1.0 - 2.0 * q * math.exp(log_density) / (d * gamma)


def contiguous_power(
    kind: StatKind,
    family: str,
    delta: ArrayLike,
    gamma: float = 0.5,
    alpha: float = 0.05,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> float:
    """Limiting power against mu0 + delta/sqrt(n) at level alpha.

    n ||T - mu0||^2 converges to sum_i lambda (Z_i + a_i/sqrt(lambda))^2 with
    lambda from :func:`local_variance_scalar` and the closed-form drift
    a = kappa * delta of :func:`drift_factor`.  The power is the Monte Carlo
    probability, over ``mc_samples`` draws, that the shifted limit exceeds
    the central quantile.  Where lambda is infinite (the sample mean under
    ``cauchy``) the limiting power is 0 and is returned exactly.
    """
    kind = StatKind(kind)
    delta = as_vector(delta, "delta")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    spec = ContiguousSpec(delta, family, gamma=gamma)
    scalar = local_variance_scalar(kind, family, spec.d, gamma)
    if math.isinf(scalar):
        return 0.0
    a = drift_factor(kind, family, spec.d, gamma) * spec.delta
    rng = stream_rng(seed, "contiguous", family, kind.value)
    z = rng.standard_normal((mc_samples, spec.d))
    weights = np.full(spec.d, scalar)
    central = (z * z) @ weights
    shifted = (z + a / np.sqrt(weights)) ** 2 @ weights
    crit = float(np.quantile(central, 1.0 - alpha))
    return float(np.mean(shifted > crit))


def local_power_rows(
    families: Sequence[str],
    delta_components: Sequence[float],
    d: int = 4,
    gamma: float = 0.5,
    alpha: float = 0.05,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    seed: int = 0,
) -> list[dict]:
    """Limiting power of all four statistics on a grid of equal-component shifts.

    One row per (family, component value c) with delta = c * (1, ..., 1),
    each cell from :func:`contiguous_power`.  The se columns carry the Monte
    Carlo draw error sqrt(p(1-p)/mc_samples).
    """
    rows = []
    for family in families:
        for comp in delta_components:
            delta = np.full(d, float(comp))
            row: dict = {
                "family": family,
                "delta_component": float(comp),
                "delta_norm": float(np.linalg.norm(delta)),
            }
            for kind in StatKind:
                p = contiguous_power(
                    kind,
                    family,
                    delta,
                    gamma=gamma,
                    alpha=alpha,
                    mc_samples=mc_samples,
                    seed=seed,
                )
                row[kind.value] = p
                row[f"{kind.value}_se"] = math.sqrt(max(p * (1.0 - p), 0.0) / mc_samples)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# contiguity precondition diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InformationCheck:
    """Numeric check that the location information matrix is finite."""

    family: str
    d: int
    matrix: NDArray[np.float64]
    finite: bool
    max_abs_entry: float


def information_check(
    family: str, d: int, n: int = 4000, step: float = 1e-5, seed: int = 0
) -> InformationCheck:
    """Estimate E[d^2 log f / dmu_i dmu_j] at mu0 by central differences.

    Contiguity of the local alternatives needs these expectations finite;
    this is the implementable surface of that condition.
    """
    model = standard_model(family, d)
    rng = stream_rng(seed, "information", family)
    y = model.sample(n, rng)
    hessian = np.empty((d, d))
    for j in range(d):
        mu_plus = np.zeros(d)
        mu_plus[j] = step
        up = model.with_location(mu_plus).location_score(y)
        down = model.with_location(-mu_plus).location_score(y)
        hessian[:, j] = np.mean((up - down) / (2.0 * step), axis=0)
    hessian = (hessian + hessian.T) / 2.0
    finite = bool(np.all(np.isfinite(hessian)))
    return InformationCheck(
        family=family,
        d=d,
        matrix=hessian,
        finite=finite,
        max_abs_entry=float(np.max(np.abs(hessian))) if finite else math.inf,
    )
