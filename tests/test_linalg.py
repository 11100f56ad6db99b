import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fstest import linalg
from fstest.linalg import (
    DimensionMismatch,
    NotSPD,
    NotSymmetric,
    SpdMatrix,
    as_data_matrix,
    as_vector,
    mahalanobis_sq_many,
    trim_count,
)


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


class TestSpdMatrix:
    def test_identity(self):
        s = SpdMatrix.identity(3)
        assert s.d == 3
        assert s.is_identity
        assert np.array_equal(s.entries, np.eye(3))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            SpdMatrix(np.ones((2, 3)))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetric):
            SpdMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotSPD):
            SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_singular(self):
        with pytest.raises(NotSPD):
            SpdMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_inverse_and_logdet(self, rng):
        m = random_spd(rng, 4)
        s = SpdMatrix(m)
        assert np.allclose(s.inverse @ m, np.eye(4), atol=1e-10)
        sign, logdet = np.linalg.slogdet(m)
        assert sign > 0
        assert 2.0 * np.log(np.diag(s.cholesky_factor)).sum() == pytest.approx(logdet, rel=1e-12)

    def test_cholesky_reconstructs(self, rng):
        m = random_spd(rng, 5)
        s = SpdMatrix(m)
        left = s.cholesky_factor
        assert np.allclose(left @ left.T, m, atol=1e-10)

    def test_eigenvalues_descending_positive(self, rng):
        s = SpdMatrix(random_spd(rng, 6))
        eig = s.eigenvalues
        assert np.all(eig > 0)
        assert np.all(np.diff(eig) <= 0)

    def test_identity_is_built_once_per_d(self):
        # the cache hands one instance to every caller: it must not be writable
        s = SpdMatrix.identity(5)
        assert SpdMatrix.identity(5) is s and SpdMatrix.identity(4) is not s
        for entries in (s.entries, s.cholesky_factor, s.inverse, s.eigenvalues):
            assert not entries.flags.writeable

    def test_entries_read_only(self, rng):
        s = SpdMatrix(random_spd(rng, 3))
        with pytest.raises(ValueError):
            s.entries[0, 0] = 99.0


class TestMahalanobis:
    def test_identity_is_squared_norm(self, rng):
        x = rng.standard_normal((2, 4))
        mu = rng.standard_normal(4)
        got = mahalanobis_sq_many(x, mu, SpdMatrix.identity(4))
        assert np.allclose(got, np.sum((x - mu) ** 2, axis=1), rtol=1e-12)

    def test_matches_direct_quadratic_form(self, rng):
        sigma = random_spd(rng, 3)
        x = rng.standard_normal(3)
        mu = rng.standard_normal(3)
        expect = (x - mu) @ np.linalg.inv(sigma) @ (x - mu)
        got = mahalanobis_sq_many(x, mu, SpdMatrix(sigma))
        assert got == pytest.approx(expect, rel=1e-10)

    def test_many_matches_loop(self, rng):
        sigma = SpdMatrix(random_spd(rng, 3))
        data = rng.standard_normal((2, 8, 3))
        mu = rng.standard_normal(3)
        many = mahalanobis_sq_many(data, mu, sigma)
        inv = np.linalg.inv(sigma.entries)
        singles = [[(row - mu) @ inv @ (row - mu) for row in rows] for rows in data]
        assert np.allclose(many, singles, rtol=1e-10)

    def test_nonnegative_zero_at_center(self, rng):
        sigma = SpdMatrix(random_spd(rng, 4))
        mu = rng.standard_normal(4)
        data = np.vstack([mu, rng.standard_normal((5, 4))])
        got = mahalanobis_sq_many(data, mu, sigma)
        assert got[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(got >= 0.0)

    @pytest.mark.parametrize("shape", [(3,), (7, 3), (1, 100, 3), (40, 100, 3), (2, 40, 100, 3)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_tiled_location_keeps_the_bits(self, shape, order, rng):
        # large C-contiguous arrays take the location tiled over their (..., n * d) view
        arr = np.asarray(rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape), order=order)
        mu = rng.standard_normal(3) * 1e-3
        rows, loc = linalg._row_operands(arr, mu)
        tiled = order == "C" and arr.ndim > 1 and arr.size >= linalg._TILE_MIN_ENTRIES
        assert (rows.ndim == arr.ndim - 1) == tiled and np.shares_memory(rows, arr)
        assert np.array_equal((rows - loc).reshape(arr.shape).view(np.int64), (arr - mu).view(np.int64))
        added = arr.copy(order="K")
        rows, loc = linalg._row_operands(added, mu)
        rows += loc
        assert np.array_equal(added.view(np.int64), (arr + mu).view(np.int64))

    @pytest.mark.parametrize("shape", [(7, 3), (40, 4), (1, 100, 4), (300, 40, 4), (5, 11, 100)])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("identity", [True, False])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_anchor_has_the_subtracted_bits(self, shape, layout, identity, zero, rng):
        # zeros of both signs and whole rows of them, whose products carry either sign
        d = shape[-1]
        x = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e3], shape)
        x[rng.random(shape) < 0.2] = -0.0
        x[..., :2, :] = rng.choice([-0.0, 0.0], (*shape[:-2], 2, d))
        if layout == "F":
            x = np.asfortranarray(x)
        elif layout == "strided":
            big = np.empty(tuple(2 * k for k in shape))
            big[(slice(None, None, 2),) * len(shape)] = x
            x = big[(slice(None, None, 2),) * len(shape)]
        sigma = SpdMatrix.identity(d) if identity else SpdMatrix(np.eye(d) - 0.4 / d * (1 - np.eye(d)))
        mu = np.full(d, zero)
        diff = np.subtract(x, mu, order="C")
        if not identity:
            diff = np.einsum("...i,ij->...j", diff, sigma.inverse), diff
        else:
            diff = diff, diff
        expect = np.einsum("...i,...i->...", *diff)
        assert np.array_equal(mahalanobis_sq_many(x, mu, sigma).view(np.int64), expect.view(np.int64))

    @pytest.mark.parametrize("d", (1, 2, 4, 100))
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("identity", [True, False])
    @pytest.mark.parametrize("anchored", [True, False])
    def test_a_row_keeps_its_bits_in_any_batch(self, d, order, identity, anchored, rng):
        # a row's distance alone, in a (1, n, d) batch and at its place in a
        # (reps, n, d) batch; tenths of small integers tie rows, and mixed
        # magnitudes show the order of the sums
        reps, n = 5, 8
        x = rng.standard_normal((reps, n, d)) * rng.choice([1e-3, 1.0, 1e3], (reps, n, d))
        x[:, ::2] = rng.integers(-3, 4, (reps, n // 2, d)) * 0.1
        a = rng.standard_normal((d, d))
        sigma = SpdMatrix.identity(d) if identity else SpdMatrix(a @ a.T / d + np.eye(d) + 0.5)
        mu = rng.integers(-3, 4, d) * 0.1 if anchored else np.zeros(d)
        batch = mahalanobis_sq_many(np.asarray(x, order=order), mu, sigma).view(np.int64)
        for r in range(reps):
            one = mahalanobis_sq_many(np.asarray(x[r : r + 1], order=order), mu, sigma)[0].view(np.int64)
            alone = [mahalanobis_sq_many(row, mu, sigma).view(np.int64) for row in x[r]]
            assert np.array_equal(batch[r], alone) and np.array_equal(one, alone)

    def test_an_overflowing_distance_reads_inf_where_no_term_cancels(self):
        # (1e200, 1e200) under I + 0.5 halves: a three-operand einsum summed
        # its four inf and -inf products to NaN; through the inverse's row
        # sums the distance is the inf it overflows to.  (1e200, 3e200) has
        # terms of both signs past the float range, and stays NaN
        sigma = SpdMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        got = mahalanobis_sq_many(np.array([[1e200, 1e200], [1e200, 3e200]]), np.zeros(2), sigma)
        assert got[0] == np.inf and np.isnan(got[1])

    def test_mirrored_rows_keep_their_bits_in_a_batch(self):
        # under I + 0.5 both rows lie at 0.0275; a three-operand einsum read
        # them as ...007 and ...004 alone but as ...004 twice in the last of
        # 4 replications, so a forward search kept different rows
        rows, sigma = np.array([[0.2, 0.1], [0.1, 0.2]]), SpdMatrix(np.eye(2) + 0.5)
        batch = np.zeros((4, 2, 2))
        batch[3] = rows
        alone = mahalanobis_sq_many(rows, np.zeros(2), sigma)
        assert np.array_equal(mahalanobis_sq_many(batch, np.zeros(2), sigma)[3].view(np.int64), alone.view(np.int64))

    def test_zero_anchor_skips_the_subtraction_on_c_ordered_rows(self, monkeypatch, rng):
        x = rng.standard_normal((50, 100, 4))
        monkeypatch.setattr(linalg, "_row_operands", None)
        got = mahalanobis_sq_many(x, np.zeros(4), SpdMatrix.identity(4))
        assert np.array_equal(got, np.einsum("...i,...i->...", x, x))
        with pytest.raises(TypeError):
            mahalanobis_sq_many(np.asfortranarray(x), np.zeros(4), SpdMatrix.identity(4))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mahalanobis_sq_many(np.ones((4, 3)), np.ones(2), SpdMatrix.identity(2))
        with pytest.raises(DimensionMismatch):
            mahalanobis_sq_many(np.ones((4, 3)), np.ones(3), SpdMatrix.identity(2))


class TestTrimCount:
    def test_examples(self):
        assert trim_count(100, 0.5) == 50
        assert trim_count(20, 0.3) == 6
        assert trim_count(10, 0.05) == 1  # clamped to one observation
        assert trim_count(7, 1.0) == 7

    def test_rejects_bad_gamma(self):
        for gamma in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                trim_count(10, gamma)

    @given(st.integers(1, 10_000), st.floats(0.001, 1.0))
    def test_bounds(self, n, gamma):
        m = trim_count(n, gamma)
        assert 1 <= m <= n
        assert m == max(1, int(np.floor(n * gamma)))


class TestCoercions:
    def test_as_vector_rejects_matrix(self):
        with pytest.raises(DimensionMismatch):
            as_vector(np.ones((2, 2)))

    def test_as_data_matrix_rejects_vector(self):
        with pytest.raises(DimensionMismatch):
            as_data_matrix(np.ones(4))

    def test_as_data_matrix_keeps_shape(self, rng):
        x = rng.standard_normal((7, 2))
        assert as_data_matrix(x).shape == (7, 2)
