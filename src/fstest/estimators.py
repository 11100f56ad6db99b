"""Location estimators: trimmed forward-search mean and three competitors.

The forward-search estimator averages the floor(n * gamma) observations
closest to the hypothesized location in squared Mahalanobis distance.  It is
a single trimming step anchored at the hypothesized point; no iteration or
re-anchoring is performed.  The competitors are the sample mean, the
coordinate-wise median, and the coordinate-wise Hodges-Lehmann estimator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .linalg import (
    DimensionMismatch,
    SpdMatrix,
    as_data_matrix,
    as_vector,
    mahalanobis_sq_many,
    trim_count,
)

__all__ = [
    "EstimatorKind",
    "Estimate",
    "ForwardSearchConfig",
    "forward_search",
    "sample_mean",
    "cw_median",
    "hodges_lehmann",
    "estimate",
]


class EstimatorKind(str, enum.Enum):
    FORWARD_SEARCH = "forward_search"
    MEAN = "mean"
    CW_MEDIAN = "cw_median"
    HODGES_LEHMANN = "hodges_lehmann"


@dataclass(frozen=True)
class ForwardSearchConfig:
    """Anchor, scatter and retention fraction for the forward-search step."""

    mu0: NDArray[np.float64]
    sigma: SpdMatrix
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "mu0", as_vector(self.mu0, "mu0"))
        if not isinstance(self.sigma, SpdMatrix):
            object.__setattr__(self, "sigma", SpdMatrix(self.sigma))
        if self.sigma.d != self.mu0.size:
            raise DimensionMismatch("mu0 and sigma dimensions disagree")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")


@dataclass(frozen=True)
class Estimate:
    """A location estimate together with how it was produced."""

    kind: EstimatorKind
    value: NDArray[np.float64]
    n: int
    n_used: int
    gamma: float | None = None


def forward_search(data: ArrayLike, config: ForwardSearchConfig) -> Estimate:
    """Mean of the floor(n * gamma) observations nearest the anchor.

    Distances are squared Mahalanobis distances from ``config.mu0`` under
    ``config.sigma``.  Ties at the retention boundary go to the earlier rows,
    and at least one observation is always retained.  This is the batch
    estimator at reps = 1, through :func:`estimate`.
    """
    return estimate(EstimatorKind.FORWARD_SEARCH, data, config)


def sample_mean(data: ArrayLike) -> Estimate:
    return estimate(EstimatorKind.MEAN, data)


def cw_median(data: ArrayLike) -> Estimate:
    """Coordinate-wise median (average of the two middle values for even n)."""
    return estimate(EstimatorKind.CW_MEDIAN, data)


def hodges_lehmann(data: ArrayLike) -> Estimate:
    """Coordinate-wise median of all n(n+1)/2 pairwise averages (i <= j)."""
    return estimate(EstimatorKind.HODGES_LEHMANN, data)


def estimate(
    kind: EstimatorKind, data: ArrayLike, config: ForwardSearchConfig | None = None
) -> Estimate:
    """One sample's estimate: :func:`batch_estimates` at reps = 1.

    Forward search needs ``config`` and keeps the batch's tie rule, so a
    single sample and a replication of a batch give the same bits.
    """
    kind, x = EstimatorKind(kind), as_data_matrix(data)
    if kind != EstimatorKind.FORWARD_SEARCH:
        return Estimate(kind, batch_estimates(kind, x[None, :, :])[0], len(x), len(x))
    if config is None:
        raise ValueError("forward search requires a ForwardSearchConfig")
    value = batch_estimates(kind, x[None, :, :], config.mu0, config.sigma, config.gamma)[0]
    return Estimate(kind, value, len(x), trim_count(len(x), config.gamma), config.gamma)


# ---------------------------------------------------------------------------
# batched implementations used by the simulation engine
# ---------------------------------------------------------------------------

#: cap on the Walsh-sum block of one Hodges-Lehmann chunk, in floats (8 MB)
_HL_BLOCK_FLOATS = 1_000_000


@lru_cache(maxsize=32)
def _hl_band(n: int) -> tuple[tuple[tuple[int, int, int], ...], int, int]:
    """(rows, size, k): the rank band of n sorted values' Walsh sums.

    x_i + x_j is monotone in i and j once x is sorted (rounding is
    monotone), so with ties ordered by (value, i, j) the sum at (i, j) has
    rank at least L(i, j) - 1, where L(i, j) = (i+1)(j+1) - i(i+1)/2 counts
    the sums at or below it, and at most N - U(i, j), where the U(i, j) sums
    at or above it are L(n-1-j, n-1-i) by reflection.  The band keeps the
    sums whose rank interval meets a middle rank: j in [lo, hi) for each
    (i, lo, hi) in ``rows``, ``size`` sums in all.  The upper middle of all
    N = n(n+1)/2 sums is the band's order statistic ``k``; for even N the
    lower middle is the one below it.
    """
    size = n * (n + 1) // 2
    k = size // 2
    i = np.arange(n, dtype=np.int64)

    def first_above(t):  # per row, the first j with L(i, j) > t
        return np.clip((t + i * (i + 1) // 2) // (i + 1), i, n)

    hi = first_above(k + 1)
    # (i, j) lies below the band when U(i, j) = L(n-1-j, n-1-i) exceeds N
    # minus the lower middle rank; count those per row through the reflection
    below = np.cumsum(np.bincount(first_above(size - k + 1 - size % 2), minlength=n + 1))
    lo = i + below[n - 1 - i]
    keep = hi > lo
    rows = tuple(zip(i[keep].tolist(), lo[keep].tolist(), hi[keep].tolist()))
    return rows, int(np.sum(hi - lo)), k - int(np.sum(lo - i))


def _sorted_columns(data: NDArray[np.float64]) -> NDArray[np.float64]:
    """Row r * d + j holds data[r, :, j] sorted, for a (reps, n, d) batch."""
    reps, n, d = data.shape
    cols = np.array(data.transpose(0, 2, 1), dtype=float, order="C").reshape(reps * d, n)
    cols.sort(axis=1)
    return cols


def _median_batch(data: NDArray[np.float64]) -> NDArray[np.float64]:
    """Coordinate-wise median per replication for a (reps, n, d) batch.

    The middle of each sorted column, with np.median's bits (the leading
    ``0.0 +`` as in ``_hodges_lehmann_batch``).
    """
    reps, n, d = data.shape
    cols, h = _sorted_columns(data), n // 2
    mid = 0.0 + cols[:, h] if n % 2 else (0.0 + cols[:, h - 1] + cols[:, h]) / 2
    return mid.reshape(reps, d)


def _hodges_lehmann_batch(data: NDArray[np.float64]) -> NDArray[np.float64]:
    """Hodges-Lehmann per replication for a (reps, n, d) batch.

    Blocks of sorted columns (``_sorted_columns``) get only the Walsh sums of
    their rank band (``_hl_band``, about 45% of the n(n+1)/2) and one in-place
    partition; scratch stays within _HL_BLOCK_FLOATS unless one column's band
    needs more.  Halving only the selected sums keeps np.median's bits, as
    x -> x/2 is monotone; the leading ``0.0 +`` mirrors np.median's mean,
    whose sum starts at +0.0 and so turns a -0.0 middle into +0.0.
    """
    reps, n, d = data.shape
    cols = _sorted_columns(data)
    rows, band, k = _hl_band(n)
    chunk = max(1, _HL_BLOCK_FLOATS // band)
    block = np.empty((min(chunk, reps * d), band))
    out = np.empty(reps * d)
    for start in range(0, reps * d, chunk):
        c = cols[start : start + chunk]
        w = block[: len(c)]
        off = 0
        for i, lo, hi in rows:
            np.add(c[:, i : i + 1], c[:, lo:hi], out=w[:, off : off + hi - lo])
            off += hi - lo
        w.partition(k, axis=1)
        mid = 0.0 + 0.5 * w[:, k]
        if n * (n + 1) // 2 % 2 == 0:
            mid = (0.0 + 0.5 * w[:, :k].max(axis=1) + mid) / 2
        out[start : start + chunk] = mid
    return out.reshape(reps, d)


def _forward_search_batch(
    data: NDArray[np.float64],
    mu0: NDArray[np.float64],
    sigma: SpdMatrix,
    gamma: float,
) -> NDArray[np.float64]:
    """Forward-search estimate per replication for a (reps, n, d) batch.

    Keeps the m = trim_count(n, gamma) rows nearest ``mu0``: all rows closer
    than the m-th smallest distance t, then the earliest rows at t.  The kept
    rows are copied and averaged in input order, so each replication has the
    bits of ``x[np.sort(np.argsort(dist, kind="stable")[:m])].mean(axis=0)``.
    """
    reps, n, d = data.shape
    m = trim_count(n, gamma)
    dist = mahalanobis_sq_many(data, mu0, sigma)
    t = np.partition(dist, m - 1, axis=1)[:, [m - 1]]
    keep = dist < t
    at = dist == t
    keep |= at & (np.cumsum(at, axis=1, dtype=np.int32) <= m - keep.sum(axis=1, keepdims=True))
    return data[keep].reshape(reps, m, d).mean(axis=1)


def batch_estimates(
    kind: EstimatorKind,
    data: NDArray[np.float64],
    mu0: NDArray[np.float64] | None = None,
    sigma: SpdMatrix | None = None,
    gamma: float | None = None,
) -> NDArray[np.float64]:
    """Estimator values for a (reps, n, d) batch, shape (reps, d)."""
    if kind == EstimatorKind.FORWARD_SEARCH:
        if mu0 is None or sigma is None or gamma is None:
            raise ValueError("forward search needs mu0, sigma and gamma")
        return _forward_search_batch(data, mu0, sigma, gamma)
    if kind == EstimatorKind.MEAN:
        return data.mean(axis=1)
    if kind == EstimatorKind.CW_MEDIAN:
        return _median_batch(data)
    if kind == EstimatorKind.HODGES_LEHMANN:
        return _hodges_lehmann_batch(data)
    raise ValueError(f"unknown estimator kind {kind!r}")
