"""Dense symmetric linear algebra, squared distances and trim counts.

Plain numpy arrays are used throughout; :class:`SpdMatrix` wraps a known
scatter matrix with validation and cached factorizations so the same matrix
can be reused across many distance evaluations without refactorizing.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np
from numpy.typing import ArrayLike, NDArray

__all__ = [
    "DimensionMismatch",
    "NotSPD",
    "NotSymmetric",
    "SpdMatrix",
    "as_vector",
    "as_data_matrix",
    "mahalanobis_sq_many",
    "trim_count",
]

#: relative tolerance for the symmetry check at construction
SYMMETRY_RTOL = 1e-12


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class NotSymmetric(ValueError):
    """Matrix is not symmetric to within tolerance."""


class NotSPD(ValueError):
    """Matrix is symmetric but not positive definite."""


def as_vector(x: ArrayLike, name: str = "vector") -> NDArray[np.float64]:
    """Validate and return a finite 1-d float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch(f"{name} must be a nonempty 1-d array, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def as_data_matrix(x: ArrayLike, name: str = "data") -> NDArray[np.float64]:
    """Validate and return a finite (n, d) float array with n >= 1."""
    m = np.asarray(x, dtype=float)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise DimensionMismatch(f"{name} must be a nonempty (n, d) array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


class SpdMatrix:
    """A validated symmetric positive definite matrix with cached factorizations.

    Validation happens once at construction: symmetry to relative tolerance
    ``SYMMETRY_RTOL`` and positive definiteness via a Cholesky attempt.  The
    cached properties are derived data, so instances should be treated as
    immutable after construction.
    """

    def __init__(self, entries: ArrayLike):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix contains non-finite entries")
        scale = max(1.0, float(np.max(np.abs(a))))
        if np.max(np.abs(a - a.T)) > SYMMETRY_RTOL * scale:
            raise NotSymmetric("matrix is not symmetric to within 1e-12 relative")
        # exact symmetry simplifies everything downstream
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        self._a = a
        try:
            chol = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise NotSPD("matrix is not positive definite") from None
        chol.setflags(write=False)
        self._chol = chol

    @classmethod
    @lru_cache(maxsize=32)
    def identity(cls, d: int) -> "SpdMatrix":
        """The d x d identity, built and factorized once per d and shared by its callers."""
        return cls(np.eye(d))

    @property
    def d(self) -> int:
        return self._a.shape[0]

    @property
    def entries(self) -> NDArray[np.float64]:
        return self._a

    @property
    def cholesky_factor(self) -> NDArray[np.float64]:
        """Lower-triangular L with L L' equal to the matrix."""
        return self._chol

    @cached_property
    def inverse(self) -> NDArray[np.float64]:
        linv = np.linalg.inv(self._chol)
        inv = linv.T @ linv
        inv = 0.5 * (inv + inv.T)
        inv.setflags(write=False)
        return inv

    @cached_property
    def eigenvalues(self) -> NDArray[np.float64]:
        """Eigenvalues in descending order (all positive)."""
        vals = np.linalg.eigvalsh(self._a)[::-1].copy()
        vals.setflags(write=False)
        return vals

    @cached_property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self._a, np.eye(self.d)))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpdMatrix(d={self.d})"


#: entries from which a location is tiled: below about 5,000, np.tile costs more than it saves
_TILE_MIN_ENTRIES = 1 << 13


def _row_operands(arr: NDArray[np.float64], v: NDArray[np.float64]) -> tuple[NDArray, NDArray]:
    """``(a, w)`` such that an elementwise ``op(a, w)`` has the entries of ``op(arr, v)``
    over the rows of an (..., n, d) ``arr``, with ``a`` a view of ``arr``.  A large
    C-contiguous ``arr`` gives its (..., n * d) view and ``v`` tiled n times, so
    numpy's inner loop runs over n * d entries, not d; the bits are the same."""
    if arr.ndim < 2 or arr.size < _TILE_MIN_ENTRIES or not arr.flags.c_contiguous:
        return arr, v
    n, d = arr.shape[-2:]
    return arr.reshape(*arr.shape[:-2], n * d), np.tile(v, n)


def mahalanobis_sq_many(
    data: ArrayLike, mu0: ArrayLike, sigma: SpdMatrix
) -> NDArray[np.float64]:
    """Squared distances of the rows of ``data`` (shape (..., d)) from mu0.

    Each distance is einsum's sum over a row of the C-ordered ``diff = data -
    mu0`` times ``diff``, or, for a general ``sigma``, times that row's einsum
    product with the cached inverse, so it has the same bits alone, in any
    batch and in any layout.  With an all-zero ``mu0``, a C-contiguous
    ``data`` is its own ``diff``: the difference would have its bits, except
    that -0.0 - (-0.0) is +0.0, and einsum's sums start from +0.0.
    """
    arr = np.asarray(data, dtype=float)
    mu = as_vector(mu0, "mu0")
    if arr.shape[-1] != mu.size or sigma.d != mu.size:
        raise DimensionMismatch("data, mu0 and sigma dimensions disagree")
    if arr.flags.c_contiguous and not mu.any():
        diff = arr
    else:
        rows, loc = _row_operands(arr, mu)
        diff = np.subtract(rows, loc, order="C").reshape(arr.shape)
    if sigma.is_identity:
        return np.einsum("...i,...i->...", diff, diff)
    return np.einsum("...i,...i->...", np.einsum("...i,ij->...j", diff, sigma.inverse), diff)


def trim_count(n: int, gamma: float) -> int:
    """Number of retained observations: floor(n * gamma), clamped to >= 1."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    if n < 1:
        raise ValueError("n must be positive")
    return max(1, math.floor(n * gamma))

