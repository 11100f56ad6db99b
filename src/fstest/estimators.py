"""Location estimators: trimmed forward-search mean and three competitors.

The forward-search estimator averages the floor(n * gamma) observations
closest to the hypothesized location in squared Mahalanobis distance.  It is
a single trimming step anchored at the hypothesized point; no iteration or
re-anchoring is performed.  The competitors are the sample mean, the
coordinate-wise median, and the coordinate-wise Hodges-Lehmann estimator.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

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
    "DistanceOverflow",
    "EstimatorKind",
    "Estimate",
    "ForwardSearchConfig",
    "forward_search",
    "hodges_lehmann",
    "estimate",
]


class DistanceOverflow(ValueError):
    """Too many squared Mahalanobis distances overflow to NaN to pick the nearest rows."""


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

#: floats one call's scratch may hold (2 MB, an L2's worth): the Walsh-sum block,
#: and the blocks of replications that the forward search, the median-only sort
#: and the bootstrap's resamples reduce at a time
_SCRATCH_FLOATS = 1 << 18
#: batches of fewer columns (two pilots' worth above n = 100), or of fewer values
#: per column, skip the window (``_hl_window``): the whole band was faster there
#: at n = 64-100, and up to about 128 columns at n = 150-1000
_HL_WINDOW_COLUMNS, _HL_WINDOW_N = 512, 64
#: columns of the pilot that sets the window, and its margin in sums per band row
#: at n <= 168; above, the margin is 0.4 isqrt(n) (8 at n = 400, 12 at n = 1000),
#: which cut the columns that fail the window from 11-19% to about 2% at n = 400 and 1000
_HL_PILOT, _HL_MARGIN = 64, 4
#: the largest n whose band index, two int64 per sum, fits _SCRATCH_FLOATS (2 MB)
_HL_CACHED_N = 750


def _hl_band(n: int) -> tuple[tuple[NDArray[np.int64], ...], int, int]:
    """(rows, size, k): the rank band of n sorted values' Walsh sums.

    x_i + x_j is monotone in i and j once x is sorted (rounding is
    monotone), so with ties ordered by (value, i, j) the sum at (i, j) has
    rank at least L(i, j) - 1, where L(i, j) = (i+1)(j+1) - i(i+1)/2 counts
    the sums at or below it, and at most N - U(i, j), where the U(i, j) sums
    at or above it are L(n-1-j, n-1-i) by reflection.  The band keeps the
    sums whose rank interval meets a middle rank: j in [lo, hi) for the rows
    (i, lo, hi) of ``rows``, three arrays, ``size`` sums in all.  The upper
    middle of all N = n(n+1)/2 sums is the band's order statistic ``k``; for
    even N the lower middle is the one below it.
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
    return (i[keep], lo[keep], hi[keep]), int(np.sum(hi - lo)), k - int(np.sum(lo - i))


def _sorted_columns(data: NDArray[np.float64]) -> NDArray[np.float64]:
    """Row r * d + j holds data[r, :, j] sorted, for a (reps, n, d) batch."""
    reps, n, d = data.shape
    cols = np.array(data.transpose(0, 2, 1), dtype=float, order="C").reshape(reps * d, n)
    cols.sort(axis=1)
    return cols


def _median_batch(cols: NDArray[np.float64]) -> NDArray[np.float64]:
    """The median of each sorted column (``_sorted_columns``), with np.median's
    bits (the leading ``0.0 +`` as in ``_hodges_lehmann_batch``)."""
    n = cols.shape[1]
    h = n // 2
    return 0.0 + cols[:, h] if n % 2 else (0.0 + cols[:, h - 1] + cols[:, h]) / 2


def _hodges_lehmann_batch(cols: NDArray[np.float64], d: int) -> NDArray[np.float64]:
    """Hodges-Lehmann per replication from a batch's sorted columns.

    Each column (``_sorted_columns``) selects the middle of the Walsh sums of
    its rank band (``_hl_band``, about 45% of the n(n+1)/2), or, in large
    batches, past a pilot, of a window of the band (``_hl_window``); a column
    that fails the window's check takes the band.  All share one block, cut
    into the fewest equal chunks of columns whose band sums and gathered
    i-operands fit in _SCRATCH_FLOATS, one column at least.  Halving only
    the selected sums keeps np.median's bits, as x -> x/2 is monotone; the
    leading ``0.0 +`` mirrors np.median's mean, whose sum starts at +0.0 and
    so turns a -0.0 middle into +0.0.
    """
    columns, n = cols.shape
    band = _hl_band_sums(n)
    most = max(1, _SCRATCH_FLOATS // (2 * len(band[0])))  # columns that one chunk may hold
    block = np.empty(-(-columns // (-(-columns // most) or 1)) * 2 * len(band[0]))  # the fewest equal chunks
    out = np.empty(columns)
    window_columns = _HL_WINDOW_COLUMNS if n <= 100 else 2 * _HL_PILOT
    pilot = _HL_PILOT if columns >= window_columns and n >= _HL_WINDOW_N else columns
    _hl_select(cols, np.arange(pilot), band, block, out)
    if pilot < columns:
        failed = _hl_select(cols, np.arange(pilot, columns), _hl_window(cols[:pilot], out[:pilot]), block, out)
        _hl_select(cols, failed, band, block, out)
    return out.reshape(-1, d)


def _hl_middle(w: NDArray[np.float64], k: int, even: bool) -> tuple:
    """Partitions ``w``; each row's lower and upper middle sums and their halved mean."""
    w.partition(k, axis=1)
    upper = w[:, k].copy()
    lower = w[:, :k].max(axis=1) if even else upper
    mid = 0.0 + 0.5 * upper
    return lower, upper, (0.0 + 0.5 * lower + mid) / 2 if even else mid


def _hl_sums(rows, a, b, k) -> tuple:
    """(i, j, size, k, after): x_i + x_j at each position of the windows [a, b)
    of the band rows (i, lo, hi) ``rows``, then of the sum just before each
    window that starts past lo and, from ``after`` on, just after each that
    ends before hi; the band's order statistic k is the windows' at k."""
    ii, lo, hi = rows
    size, left, right = int(np.sum(b - a)), a > lo, b < hi
    i = np.concatenate([np.repeat(ii, b - a), ii[left], ii[right]])
    j = np.concatenate([np.arange(size) + np.repeat(b - np.cumsum(b - a), b - a), a[left] - 1, b[right]])
    return i, j, size, k - int(np.sum(a - lo)), size + int(np.sum(left))


def _hl_band_sums(n: int) -> tuple:
    """``_hl_sums`` of the whole band of n, the widest window.  The index stays
    int64 and writeable: np.take copies any other index on every call.  The
    last 8 n up to _HL_CACHED_N keep their index, and of larger n only the
    last, so a sweep over large n holds one band index at a time."""
    return (_hl_small_band_sums if n <= _HL_CACHED_N else _hl_large_band_sums)(n)


def _hl_build_band_sums(n: int) -> tuple:
    rows, _, k = _hl_band(n)
    return _hl_sums(rows, rows[1], rows[2], k)


_hl_small_band_sums = lru_cache(maxsize=8)(_hl_build_band_sums)
_hl_large_band_sums = lru_cache(maxsize=1)(_hl_build_band_sums)


def _hl_window(pilot: NDArray[np.float64], middles: NDArray[np.float64]) -> tuple:
    """``_hl_sums`` of windows where the band rows cross the ``pilot`` columns'
    ``middles``, widened by _HL_MARGIN."""
    n = pilot.shape[1]
    (ii, lo, hi), _, k = _hl_band(n)
    cross = np.clip([np.searchsorted(c, 2 * m - c[ii]) for c, m in zip(pilot, middles)], lo, hi)
    margin = _HL_MARGIN * max(10, math.isqrt(n)) // 10
    a = np.maximum(cross.min(axis=0) - margin, lo)
    return _hl_sums((ii, lo, hi), a, np.minimum(cross.max(axis=0) + margin + 1, hi), k)


def _hl_select(cols, take, sums, block, out) -> NDArray[np.intp]:
    """Sets ``out[take]`` from the Walsh sums ``sums`` (``_hl_sums``) of the
    columns ``cols[take]``; returns the columns that fail the check, all of
    them where the windows hold no middle.

    Sums grow along a row, so once the sum just outside each window lies on
    its side of a column's middles, no sum left out can move them, and the
    windows' order statistics are the band's own.  The band has none outside.
    """
    i, j, size, k, after = sums
    even = cols.shape[1] * (cols.shape[1] + 1) // 2 % 2 == 0
    if not even <= k < size:
        return take
    ok = np.ones(len(take), dtype=bool)
    chunk = max(1, block.size // (2 * len(i)))
    for start in range(0, len(take), chunk):
        at = take[start : start + chunk]
        if at[-1] - at[0] == len(at) - 1:  # consecutive columns: a view, not a copy
            at = slice(at[0], at[-1] + 1)
        c = cols[at]
        w, t = block[: 2 * len(c) * len(i)].reshape(2, len(c), len(i))
        np.add(np.take(c, j, axis=1, out=w, mode="clip"), np.take(c, i, axis=1, out=t, mode="clip"), out=w)
        lower, upper, out[at] = _hl_middle(w[:, :size], k, even)
        ok[start : start + chunk] = w[:, size:after].max(axis=1, initial=-np.inf) <= lower
        ok[start : start + chunk] &= w[:, after:].min(axis=1, initial=np.inf) >= upper
    return take[~ok]


def _in_blocks(data: NDArray[np.float64], floats_per_rep: int, reduce) -> NDArray[np.float64]:
    """``reduce(lo, hi)`` of the replications [lo, hi) of a (reps, n, d) batch,
    stacked into (reps, d), over blocks of replications whose ``floats_per_rep``
    scratch floats each fit in _SCRATCH_FLOATS together (one replication at least).
    Each replication is reduced on its own, so the blocks change no bit."""
    reps, _, d = data.shape
    out = np.empty((reps, d))
    step = max(1, _SCRATCH_FLOATS // floats_per_rep)
    for lo in range(0, reps, step):
        out[lo : lo + step] = reduce(lo, min(lo + step, reps))
    return out


def _forward_search_kept(dist: NDArray[np.float64], m: int) -> NDArray[np.intp]:
    """The m kept entries of each row of a (reps, n) block of distances, as flat
    indices in a (reps, m) array, in input order: all entries closer than the
    row's m-th smallest distance t, then the earliest at t.  Per row this is the
    set ``np.sort(np.argsort(dist, kind="stable")[:m])``.

    A row with exactly m entries at or below t keeps them.  A row with more has
    ties at t that straddle the cut and drops its last count - m entries at t:
    those from the column of the first dropped one on, which the positions of
    the entries at t give without a running count.  A row whose t is NaN, with
    more than n - m NaN distances (finite rows far out under a correlated
    scatter give inf - inf), raises :class:`DistanceOverflow`.
    """
    n = dist.shape[1]
    t = np.partition(dist, m - 1, axis=1)[:, [m - 1]]
    if np.isnan(t).any():
        raise DistanceOverflow(f"squared Mahalanobis distances overflow to NaN in more than {n - m} of {n} rows")
    keep = dist <= t
    count = keep.sum(axis=1, dtype=np.int32)
    tied = np.flatnonzero(count > m)
    if tied.size:
        at = dist[tied] == t[tied]
        ends = np.cumsum(at.sum(axis=1))  # row i's entries at t end here in flatnonzero(at)
        first = np.flatnonzero(at)[ends - (count[tied] - m)] % n
        keep[tied] &= ~at | (np.arange(n) < first[:, None])
    return np.flatnonzero(keep).reshape(-1, m)


def _row_mean(rows: NDArray[np.float64], idx: NDArray[np.intp]) -> NDArray[np.float64]:
    """Mean of ``rows[idx[r]]`` for each r of a (reps, m) index block, shape (reps, d),
    with the bits of the C-ordered gather's ``np.take(rows, idx, axis=0).mean(axis=1)``."""
    if rows.shape[1] == 1:  # numpy sums a contiguous axis pairwise
        return np.take(rows, idx, axis=0).mean(axis=1)
    # for d > 1 it sums axis 1 row by row, as it sums axis 0 of this gather, with a longer inner loop
    return np.take(rows, idx.T, axis=0).mean(axis=0)


def _forward_search_batch(
    data: NDArray[np.float64], mu0: NDArray[np.float64], sigma: SpdMatrix, gamma: float
) -> NDArray[np.float64]:
    """Forward-search estimate per replication for a (reps, n, d) batch.

    Keeps the m = trim_count(n, gamma) rows nearest ``mu0``
    (``_forward_search_kept``); only the kept rows are gathered, by index,
    and averaged in input order, so each replication has the bits of
    ``x[np.sort(np.argsort(dist, kind="stable")[:m])].mean(axis=0)``.
    :func:`batch_estimates` passes it blocks of replications.
    """
    _, n, d = data.shape
    kept = _forward_search_kept(mahalanobis_sq_many(data, mu0, sigma), trim_count(n, gamma))
    return _row_mean(data.reshape(-1, d), kept)


def batch_estimates(
    kind: EstimatorKind,
    data: NDArray[np.float64],
    mu0: NDArray[np.float64] | None = None,
    sigma: SpdMatrix | None = None,
    gamma: float | None = None,
    cols: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    """Estimator values for a (reps, n, d) batch, shape (reps, d); where given,
    t3 and t4 read the batch's ``_sorted_columns`` ``cols``.

    t2 has the bits of ``np.ascontiguousarray(data).mean(axis=1)``: for d > 1
    numpy sums that axis row by row, adding each row to the running sums, and
    einsum's sum over it runs in the same order in one pass.
    """
    _, n, d = data.shape
    if kind == EstimatorKind.FORWARD_SEARCH:
        if mu0 is None or sigma is None or gamma is None:
            raise ValueError("forward search needs mu0, sigma and gamma")
        # a block's differences from mu0 and their distances share the budget
        return _in_blocks(data, n * (d + 1), lambda lo, hi: _forward_search_batch(data[lo:hi], mu0, sigma, gamma))
    if kind == EstimatorKind.MEAN:
        # numpy's pairwise sum depends on the memory layout; fix it to C order
        data = np.ascontiguousarray(data)
        if d == 1:  # numpy sums a contiguous axis pairwise, einsum does not
            return data.mean(axis=1)
        return np.einsum("rid->rd", data) / n
    if kind == EstimatorKind.CW_MEDIAN:
        if cols is not None:
            return _median_batch(cols).reshape(-1, d)
        # the median alone sorts and reads a block of replications at a time
        return _in_blocks(data, n * d, lambda lo, hi: _median_batch(_sorted_columns(data[lo:hi])).reshape(-1, d))
    if kind == EstimatorKind.HODGES_LEHMANN:
        # HL sorts the whole batch: the window pass pays only on many columns
        return _hodges_lehmann_batch(_sorted_columns(data) if cols is None else cols, d)
    raise ValueError(f"unknown estimator kind {kind!r}")


def _resample_estimates(
    kind: EstimatorKind,
    x: NDArray[np.float64],
    idx: NDArray[np.intp],
    dist: NDArray[np.float64] | None,
    gamma: float,
) -> NDArray[np.float64]:
    """Estimates of the resamples ``x[idx[r]]`` of an (n, d) sample for a (reps, n)
    index block, shape (reps, d) in C order, with the bits of
    :func:`batch_estimates` of ``x[idx]``.

    Only t4 gathers that (reps, n, d) batch.  t1 keeps the rows of each
    resample nearest mu0 by the gathered distances of the sample's rows,
    ``dist``, which equal a batch's in any layout, and
    gathers only those rows; t2 gathers the rows replication-minor
    (``_row_mean``); t3 gathers the columns coordinate-major, with no
    strided transposed copy, and sorts them in place.
    """
    reps, n = idx.shape
    if kind == EstimatorKind.FORWARD_SEARCH:
        return _row_mean(x, np.take(idx, _forward_search_kept(np.take(dist, idx), trim_count(n, gamma))))
    if kind == EstimatorKind.MEAN:
        return _row_mean(x, idx)
    if kind == EstimatorKind.HODGES_LEHMANN:
        # the window pass's pilot, the first columns, must span the coordinates,
        # whose shapes may differ; reordering coordinate-major columns into a
        # batch's resample-major ones cost more than its transposed copy
        return batch_estimates(kind, np.take(x, idx, axis=0))
    cols = np.take(x.T, idx, axis=1).reshape(-1, n)  # row j * reps + r: coordinate j of resample r
    cols.sort(axis=1)
    # a strided (reps, d) view would change the last bit of some squared norms
    return np.ascontiguousarray(_median_batch(cols).reshape(-1, reps).T)


def _batch_estimates_by_kind(
    kinds: Sequence[EstimatorKind],
    data: NDArray[np.float64],
    mu0: NDArray[np.float64] | None = None,
    sigma: SpdMatrix | None = None,
    gamma: float | None = None,
) -> dict[EstimatorKind, NDArray[np.float64]]:
    """:func:`batch_estimates` of each kind.  t3 and t4 together share one sort
    and run first, so the sorted copy is freed before the other kinds' scratch
    is allocated: peak memory stays that of one HL call."""
    pair = (EstimatorKind.CW_MEDIAN, EstimatorKind.HODGES_LEHMANN)
    out = {}
    if set(pair) <= set(kinds):
        cols = _sorted_columns(data)
        out = {kind: batch_estimates(kind, data, cols=cols) for kind in pair}
        del cols
    out |= {kind: batch_estimates(kind, data, mu0, sigma, gamma) for kind in kinds if kind not in out}
    return {kind: out[kind] for kind in kinds}
