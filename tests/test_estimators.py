import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fstest import estimators
from fstest.elliptical import EllipticalModel, MixtureModel, standard_model
from fstest.estimators import (
    _SCRATCH_FLOATS,
    _hl_band,
    _sorted_columns,
    Estimate,
    EstimatorKind,
    ForwardSearchConfig,
    batch_estimates,
    estimate,
    forward_search,
    hodges_lehmann,
)
from fstest.linalg import DimensionMismatch, SpdMatrix, mahalanobis_sq_many, trim_count

finite_rows = arrays(
    float,
    st.tuples(st.integers(2, 24), st.integers(1, 4)),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


@pytest.fixture
def hl_chunks(monkeypatch):
    """The columns of each chunk of Walsh sums that Hodges-Lehmann selects from, in call order."""
    chunks = []
    middle = estimators._hl_middle
    monkeypatch.setattr(estimators, "_hl_middle", lambda w, *a: chunks.append(len(w)) or middle(w, *a))
    return chunks


def hl_bruteforce(data):
    """Coordinatewise median over all Walsh averages (x_i + x_j) / 2, i <= j."""
    x = np.asarray(data, dtype=float)
    i, j = np.triu_indices(x.shape[0])
    walsh = (x[i] + x[j]) / 2.0
    return np.median(walsh, axis=0)


class TestForwardSearch:
    def config(self, d=2, gamma=0.5, mu0=None):
        return ForwardSearchConfig(
            np.zeros(d) if mu0 is None else np.asarray(mu0, dtype=float),
            SpdMatrix.identity(d),
            gamma,
        )

    def test_keeps_closest_points(self):
        data = np.array([[10.0, 0.0], [0.1, 0.0], [0.0, 0.2], [-9.0, 1.0]])
        est = forward_search(data, self.config(gamma=0.5))
        assert np.allclose(est.value, data[1:3].mean(axis=0))
        assert est.n_used == 2
        assert est.kind is EstimatorKind.FORWARD_SEARCH

    def test_gamma_one_equals_mean(self, gauss_data):
        data = gauss_data(n=31, d=3)
        est = forward_search(data, self.config(d=3, gamma=1.0))
        assert np.allclose(est.value, data.mean(axis=0), atol=1e-12)

    def test_boundary_tie_resolved_by_input_order(self):
        # three points at equal distance 1; m = 2 keeps the first two
        data = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        est = forward_search(data, self.config(gamma=0.67))
        assert est.n_used == 2
        assert np.allclose(est.value, [[0.0, 0.0]])

    def test_boundary_tie_resolved_by_input_order_in_a_batch(self):
        # three points at distance 1 and one at 0.25; m = 2 keeps the near
        # point and the first of the tied three, whatever their positions
        data = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 0.5]])
        batch = np.stack([data, data[[2, 3, 0, 1]], data[[1, 0, 3, 2]]])
        got = batch_estimates(EstimatorKind.FORWARD_SEARCH, batch, np.zeros(2), SpdMatrix.identity(2), 0.5)
        assert np.array_equal(got, [[0.5, 0.25], [0.0, 0.75], [-0.5, 0.25]])

    def test_anchor_matters(self):
        data = np.array([[0.0, 0.0], [4.0, 4.0], [4.1, 4.0], [8.0, 8.0]])
        near_origin = forward_search(data, self.config(gamma=0.5))
        near_corner = forward_search(data, self.config(gamma=0.5, mu0=[4.0, 4.0]))
        assert np.allclose(near_origin.value, data[:2].mean(axis=0))
        assert np.allclose(near_corner.value, data[1:3].mean(axis=0))

    def test_scatter_changes_the_kept_set(self):
        data = np.array([[2.0, 0.0], [0.0, 1.1]])
        # squashing the first axis makes the [2, 0] point the nearer one
        squashed = ForwardSearchConfig(
            np.zeros(2), SpdMatrix(np.diag([16.0, 1.0])), 0.5
        )
        est = forward_search(data, squashed)
        assert np.allclose(est.value, [2.0, 0.0])

    def test_at_least_one_point_kept(self):
        data = np.array([[5.0, 5.0], [6.0, 6.0]])
        est = forward_search(data, self.config(gamma=0.01))
        assert est.n_used == 1
        assert np.allclose(est.value, [5.0, 5.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            forward_search(np.ones((4, 3)), self.config(d=2))

    @given(finite_rows, st.floats(0.05, 1.0))
    def test_mean_of_reported_subset_size(self, data, gamma):
        config = ForwardSearchConfig(
            np.zeros(data.shape[1]), SpdMatrix.identity(data.shape[1]), gamma
        )
        est = forward_search(data, config)
        assert est.n_used == max(1, int(np.floor(data.shape[0] * gamma)))
        assert est.n == data.shape[0]


class TestPlainEstimators:
    def test_mean(self):
        data = np.array([[1.0, 2.0], [3.0, 6.0]])
        assert np.allclose(estimate(EstimatorKind.MEAN, data).value, [2.0, 4.0])

    def test_mean_bits_do_not_depend_on_layout(self, rng):
        # numpy's pairwise sum follows the memory layout; t2 sums C order
        for _ in range(20):
            batch = rng.standard_normal((4, 50, 3))
            strided = np.empty((8, 100, 6))[::2, ::2, ::2]
            strided[...] = batch
            expect = batch_estimates(EstimatorKind.MEAN, batch)
            for other in (np.asfortranarray(batch), strided):
                assert same_bits(batch_estimates(EstimatorKind.MEAN, other), expect)
            for x in (np.asfortranarray(batch[0]), strided[0]):
                assert same_bits(estimate(EstimatorKind.MEAN, x).value, expect[0])

    @pytest.mark.parametrize("d", (1, 2, 4, 100))
    def test_mean_has_the_contiguous_mean_bits(self, d, rng):
        # d > 1 sums by einsum, d = 1 by numpy's pairwise mean; both must keep the
        # bits of the C-ordered mean, whatever the layout, with all-(-0.0) columns
        for n in (1, 2, 7, 8, 9, 100, 129, 1000):
            reps = 3 if n * d > 10_000 else 40
            batch = rng.standard_t(1.5, (reps, n, d)) * rng.choice([1e-3, 1.0, 1e3], (reps, n, d))
            batch[rng.random(batch.shape) < 0.1] = -0.0
            batch[0, :, 0] = -0.0
            strided = np.empty((reps, 2 * n, 2 * d))[:, ::2, ::2]
            strided[...] = batch
            expect = np.ascontiguousarray(batch).mean(axis=1)
            assert expect[0, 0] == 0.0 and not np.signbit(expect[0, 0])
            for x in (batch, np.asfortranarray(batch), strided):
                assert same_bits(batch_estimates(EstimatorKind.MEAN, x), expect)

    def test_cw_median_odd_even(self):
        odd = np.array([[1.0], [5.0], [2.0]])
        even = np.array([[1.0], [5.0], [2.0], [4.0]])
        assert estimate(EstimatorKind.CW_MEDIAN, odd).value[0] == 2.0
        assert estimate(EstimatorKind.CW_MEDIAN, even).value[0] == 3.0

    def test_cw_median_is_coordinatewise(self):
        data = np.array([[0.0, 10.0], [1.0, -10.0], [2.0, 0.0]])
        assert np.allclose(estimate(EstimatorKind.CW_MEDIAN, data).value, [1.0, 0.0])

    def test_hl_tiny_case(self):
        # Walsh averages of {0, 2}: 0, 1, 2 -> median 1
        data = np.array([[0.0], [2.0]])
        assert hodges_lehmann(data).value[0] == 1.0

    def test_hl_single_point(self):
        data = np.array([[3.0, -1.0]])
        assert np.allclose(hodges_lehmann(data).value, [3.0, -1.0])

    @given(finite_rows)
    def test_hl_matches_bruteforce(self, data):
        assert np.array_equal(hodges_lehmann(data).value, hl_bruteforce(data))

    @given(finite_rows)
    @settings(max_examples=25)
    def test_shift_equivariance(self, data):
        shift = np.arange(1.0, data.shape[1] + 1.0)
        for kind in (EstimatorKind.MEAN, EstimatorKind.CW_MEDIAN, EstimatorKind.HODGES_LEHMANN):
            base = estimate(kind, data).value
            moved = estimate(kind, data + shift).value
            assert np.allclose(moved, base + shift, rtol=1e-9, atol=1e-6)

    def test_forward_search_shift_equivariance(self, gauss_data):
        data = gauss_data(n=25, d=3)
        shift = np.array([10.0, -4.0, 2.0])
        base = forward_search(
            data, ForwardSearchConfig(np.zeros(3), SpdMatrix.identity(3), 0.4)
        )
        moved = forward_search(
            data + shift, ForwardSearchConfig(shift, SpdMatrix.identity(3), 0.4)
        )
        assert np.allclose(moved.value, base.value + shift, atol=1e-12)


class TestDispatch:
    def test_estimate_routes_each_kind(self, gauss_data):
        data = gauss_data(n=20, d=2)
        config = ForwardSearchConfig(np.zeros(2), SpdMatrix.identity(2), 0.5)
        for kind, direct in (
            (EstimatorKind.MEAN, data.mean(axis=0)),
            (EstimatorKind.CW_MEDIAN, np.median(data, axis=0)),
            (EstimatorKind.HODGES_LEHMANN, hodges_lehmann(data).value),
            (EstimatorKind.FORWARD_SEARCH, forward_search(data, config).value),
        ):
            routed = estimate(kind, data, config)
            assert routed.kind is kind
            assert np.allclose(routed.value, direct)

    def test_forward_search_requires_config(self, gauss_data):
        with pytest.raises(ValueError):
            estimate(EstimatorKind.FORWARD_SEARCH, gauss_data())


class TestBatch:
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_batch_matches_singles(self, kind, rng):
        reps, n, d = 7, 30, 3
        data = rng.standard_normal((reps, n, d))
        mu0 = np.zeros(d)
        sigma = SpdMatrix.identity(d)
        got = batch_estimates(kind, data, mu0, sigma, 0.5)
        config = ForwardSearchConfig(mu0, sigma, 0.5)
        expect = np.stack([estimate(kind, data[r], config).value for r in range(reps)])
        assert got.shape == (reps, d)
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_batch_hl_chunking_consistent(self, rng, hl_chunks):
        # 6 columns of 20,888 band sums and their i-operands fit in the budget,
        # so 118 columns span 20 chunks, the last one short
        _, band, _ = _hl_band(300)
        assert band == 20_888 and _SCRATCH_FLOATS // (2 * band) == 6
        data = rng.standard_normal((59, 300, 2))
        got = batch_estimates(EstimatorKind.HODGES_LEHMANN, data, np.zeros(2), SpdMatrix.identity(2), 0.5)
        expect = np.stack([hl_bruteforce(data[r]) for r in range(59)])
        assert np.array_equal(got, expect)
        assert hl_chunks == [6] * 19 + [4]

    @given(
        st.integers(1, 4),
        st.integers(1, 60),
        st.integers(1, 3),
        st.sampled_from([-1.0, 1.0]),
        st.integers(-300, 300),
        st.data(),
    )
    def test_batch_hl_is_exact_on_ties_and_extreme_scales(self, reps, n, d, sign, exponent, draw):
        # small integers give heavy ties; a negative sign turns zeros into -0.0
        ints = draw.draw(arrays(np.int64, (reps, n, d), elements=st.integers(-3, 3)))
        data = ints * (sign * 10.0**exponent)
        got = batch_estimates(EstimatorKind.HODGES_LEHMANN, data)
        expect = np.stack([hl_bruteforce(data[r]) for r in range(reps)])
        assert np.array_equal(got, expect)
        assert np.array_equal(np.signbit(got), np.signbit(expect))

    def test_batch_hl_column_larger_than_block(self, rng, hl_chunks):
        # n = 2100 gives a band of 1,029,114 Walsh sums, over 7 times the budget with their i-operands
        assert 2 * _hl_band(2100)[1] > 7 * _SCRATCH_FLOATS
        data = rng.standard_normal((1, 2100, 2))
        got = batch_estimates(EstimatorKind.HODGES_LEHMANN, data)
        assert np.array_equal(got[0], hl_bruteforce(data[0]))
        assert hl_chunks == [1, 1]

    @pytest.mark.parametrize("n", (61, 127, 128, 500))
    def test_batch_hl_exact_at_odd_and_even_counts(self, n, rng):
        # 61 gives an odd number of Walsh sums, the others an even one
        ties = rng.integers(-3, 4, (2, n, 2)) * -1e-300
        for data in (rng.standard_normal((2, n, 2)), ties):
            got = batch_estimates(EstimatorKind.HODGES_LEHMANN, data)
            expect = np.stack([hl_bruteforce(r) for r in data])
            assert np.array_equal(got, expect)
            assert np.array_equal(np.signbit(got), np.signbit(expect))

    def test_batch_hl_ignores_row_order(self, rng):
        # zeros of both signs and heavy ties, each column shuffled on its own
        data = rng.integers(-2, 3, (3, 50, 4)) * rng.choice([-1.0, 1.0], (3, 50, 4))
        shuffled = np.take_along_axis(data, rng.random(data.shape).argsort(axis=1), axis=1)
        got = batch_estimates(EstimatorKind.HODGES_LEHMANN, shuffled)
        expect = batch_estimates(EstimatorKind.HODGES_LEHMANN, data)
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))



#: ties, zeros of both signs and magnitudes at both ends of the float range
MEDIAN_POOL = (0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300, 1e-300, -1e-300)


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestMedianOracle:
    """t3 reads the middle of sorted columns; np.median is its bit-for-bit oracle."""

    @given(
        st.integers(1, 4),
        st.integers(1, 40),
        st.integers(1, 3),
        st.booleans(),
        st.data(),
    )
    def test_batch_median_has_np_median_bits(self, reps, n, d, infinite, draw):
        pool = MEDIAN_POOL + ((np.inf, -np.inf) if infinite else ())
        values = st.one_of(st.sampled_from(pool), st.floats(-1e300, 1e300))
        data = draw.draw(arrays(float, (reps, n, d), elements=values))
        with np.errstate(invalid="ignore", over="ignore"):
            expect = np.median(data, axis=1)
            got = batch_estimates(EstimatorKind.CW_MEDIAN, data)
        assert same_bits(got, expect)

    @pytest.mark.parametrize("shape", [(300, 99, 4), (300, 100, 4), (20, 1, 5), (5, 2, 100)])
    def test_batch_median_has_np_median_bits_on_wide_batches(self, shape, rng):
        for data in (rng.standard_normal(shape), rng.integers(-2, 3, shape) * -1e-300):
            assert same_bits(batch_estimates(EstimatorKind.CW_MEDIAN, data), np.median(data, axis=1))

    @pytest.mark.parametrize("n", (1, 2, 7, 8))
    def test_single_median_has_np_median_bits(self, n, rng):
        # single samples are finite by validation, so no infinities here
        for data in (rng.standard_normal((n, 3)), rng.choice(MEDIAN_POOL, (n, 3))):
            assert same_bits(estimate(EstimatorKind.CW_MEDIAN, data).value, np.median(data, axis=0))

    def test_single_estimators_are_the_batch_at_one_rep(self, rng):
        data = rng.integers(-2, 3, (31, 3)) * rng.choice([-1.0, 1.0], (31, 3))
        config = ForwardSearchConfig(np.zeros(3), SpdMatrix(np.eye(3) + 0.5), 0.5)
        params = (config.mu0, config.sigma, config.gamma)
        for kind, single in (
            (EstimatorKind.MEAN, lambda x: estimate(EstimatorKind.MEAN, x)),
            (EstimatorKind.CW_MEDIAN, lambda x: estimate(EstimatorKind.CW_MEDIAN, x)),
            (EstimatorKind.HODGES_LEHMANN, hodges_lehmann),
            (EstimatorKind.FORWARD_SEARCH, lambda x: forward_search(x, config)),
        ):
            assert same_bits(single(data).value, batch_estimates(kind, data[None], *params)[0])

    def test_unknown_kind_rejected(self, gauss_data):
        with pytest.raises(ValueError):
            estimate("trimean", gauss_data())


def stable_forward_search(x, mu0, sigma, gamma):
    """The m nearest rows by a stable sort, so boundary ties go to the earlier rows."""
    m = max(1, int(np.floor(x.shape[0] * gamma)))
    dist = mahalanobis_sq_many(x, mu0, sigma)
    return x[np.sort(np.argsort(dist, kind="stable")[:m])].mean(axis=0)


@st.composite
def selection_cases(draw):
    """(data, mu0, identity, gamma) of a (reps, n, d) batch for the forward search.

    Tenths of small integers (inexact, so the summation order shows), rows
    repeated by index, and mirrored rows, which sit at the same distance from
    the zero anchor under any scatter; an anchor in tenths sends the distances
    through the subtraction.
    """
    reps, n, d = draw(st.integers(1, 4)), draw(st.integers(1, 30)), draw(st.integers(1, 4))
    base = draw(arrays(np.int64, (reps, n, d), elements=st.integers(-3, 3), fill=st.nothing()))
    idx = draw(arrays(np.int64, n, elements=st.integers(0, n - 1), fill=st.nothing()))
    sign = draw(arrays(float, n, elements=st.sampled_from([-0.1, 0.1]), fill=st.nothing()))
    mu0 = np.zeros(d)
    if draw(st.booleans()):
        mu0 = 0.1 * draw(arrays(np.int64, d, elements=st.integers(-3, 3), fill=st.nothing()))
    return base[:, idx] * sign[:, None], mu0, draw(st.booleans()), draw(st.sampled_from([0.01, 0.5, 1.0]))


#: two rows at one distance under I + 0.5 in the last of 4 replications: a
#: contraction whose order follows the batch's shape reads them tied there
#: but not alone, so the batch and the single sample keep different rows
MIRRORED_ROWS = (np.concatenate([np.zeros((3, 2, 2)), [[[0.2, 0.1], [0.1, 0.2]]]]), np.zeros(2), False, 0.01)


class TestForwardSearchOracle:
    """t1 selects like a stable sort and sums in input order, in a batch and alone."""

    @given(selection_cases())
    @example(MIRRORED_ROWS)
    def test_batch_has_the_stable_selection_bits(self, case):
        data, mu0, identity, gamma = case
        reps, _, d = data.shape
        sigma = SpdMatrix.identity(d) if identity else SpdMatrix(np.eye(d) + 0.5)
        config = ForwardSearchConfig(mu0, sigma, gamma)
        got = batch_estimates(EstimatorKind.FORWARD_SEARCH, data, config.mu0, sigma, gamma)
        for r in range(reps):
            expect = stable_forward_search(data[r], config.mu0, sigma, gamma)
            assert same_bits(got[r], expect)
            assert same_bits(forward_search(data[r], config).value, expect)

    @pytest.mark.parametrize("identity", [True, False])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_gathered_distances_have_the_batch_bits(self, identity, order):
        # a resample block's distances, gathered from the C-ordered sample's,
        # equal those computed on the block, and so give the same estimates
        rng = np.random.default_rng(23)
        for n, d in [(1, 1), (7, 1), (40, 3), (100, 4), (60, 17)]:
            x = np.asarray(rng.standard_normal((n, d)) * 3.0, order=order)
            mu0 = rng.integers(-3, 4, d) * 0.1
            a = rng.standard_normal((d, d))
            sigma = SpdMatrix.identity(d) if identity else SpdMatrix(a @ a.T / d + np.eye(d))
            idx = rng.integers(0, n, size=(300, n))
            dist = mahalanobis_sq_many(np.ascontiguousarray(x), mu0, sigma)
            assert same_bits(np.take(dist, idx), mahalanobis_sq_many(x[idx], mu0, sigma))
            for gamma in (0.3, 0.5, 1.0):
                got = estimators._resample_estimates(EstimatorKind.FORWARD_SEARCH, x, idx, dist, gamma)
                assert same_bits(got, batch_estimates(EstimatorKind.FORWARD_SEARCH, x[idx], mu0, sigma, gamma))


class TestForwardSearchKept:
    """The kept entries of each row of distances are those of a stable sort,
    whether or not ties at the m-th distance straddle the cut."""

    @staticmethod
    def stable_kept(dist, m):
        n = dist.shape[1]
        return np.sort(np.argsort(dist, axis=1, kind="stable")[:, :m], axis=1) + n * np.arange(len(dist))[:, None]

    @staticmethod
    def tied_rows(dist, m):
        return np.sum(dist <= np.partition(dist, m - 1, axis=1)[:, [m - 1]], axis=1) != m

    def check(self, dist, m):
        assert np.array_equal(estimators._forward_search_kept(dist, m), self.stable_kept(dist, m))
        return self.tied_rows(dist, m)

    @pytest.mark.parametrize("m", (1, 10, 50, 99, 100))
    def test_continuous_distances_take_no_tie_rank(self, m, rng):
        dist = mahalanobis_sq_many(rng.standard_normal((300, 100, 4)), np.zeros(4), SpdMatrix.identity(4))
        assert not np.any(self.check(dist, m))

    @pytest.mark.parametrize("m", (1, 10, 50, 99))
    def test_integer_valued_data_ties_at_the_cut(self, m, rng):
        # coordinates in {0, 1} put five distances on 100 rows: nearly every row ties at t
        dist = mahalanobis_sq_many(rng.integers(0, 2, (300, 100, 4)) * 1.0, np.zeros(4), SpdMatrix.identity(4))
        assert np.mean(self.check(dist, m)) > 0.9

    @pytest.mark.parametrize("gamma", (0.3, 0.5, 0.7))
    def test_bootstrap_duplicates(self, gamma, rng):
        x = rng.standard_normal((100, 4))
        dist = np.take(mahalanobis_sq_many(x, np.zeros(4), SpdMatrix(np.eye(4) + 0.5)), rng.integers(0, 100, (655, 100)))
        tied = self.check(dist, trim_count(100, gamma))
        assert 0 < np.sum(tied) < len(tied)

    def test_nan_distances_past_the_cut(self, rng):
        # overflowing distances can be NaN; a stable sort puts them last, so
        # while a row has m others they are never kept, tied rows or not
        dist = np.take(rng.integers(0, 5, 100) * 1.0, rng.integers(0, 100, (300, 100)))
        dist[rng.random(dist.shape) < 0.3] = np.nan
        dist[::2] = np.sort(dist[::2], axis=1)[:, ::-1]  # NaN first in input order
        tied = self.check(dist, 50)
        assert 0 < np.sum(tied) < len(tied)

    def test_nan_at_the_cut_raises(self):
        # the second row has two numeric distances, fewer than m = 3
        dist = np.array([[0.0, 1.0, 2.0, 3.0], [np.nan, 1.0, np.nan, 0.5]])
        with pytest.raises(estimators.DistanceOverflow, match="NaN in more than 1 of 4 rows"):
            estimators._forward_search_kept(dist, 3)

    @pytest.mark.parametrize("gamma", (0.3, 0.5, 0.7))
    def test_breakdown_pushed_rows(self, gamma, rng):
        # the first k rows of a clean sample pushed to one magnitude tie with one another
        n, d = 20, 4
        clean = rng.standard_normal((n, d))
        pushed = (np.arange(1, n)[:, None] > np.arange(n))[:, :, None]
        block = np.concatenate([np.where(pushed, rung, clean) for rung in (1e2, 1e6)])
        tied = self.check(mahalanobis_sq_many(block, np.zeros(d), SpdMatrix.identity(d)), trim_count(n, gamma))
        assert 0 < np.sum(tied) < len(tied)


def test_hl_band_discards_only_beyond_the_middle():
    """The band against rank bounds counted from their definitions, and the
    discarded Walsh sums of sorted, heavily tied columns against the middle."""
    rng = np.random.default_rng(17)
    for n in range(1, 65):
        size = n * (n + 1) // 2
        i, j = np.triu_indices(n)
        upper = np.triu(np.ones((n, n), dtype=np.int64))
        at_or_below = upper.cumsum(0).cumsum(1)[i, j]
        at_or_above = upper[::-1, ::-1].cumsum(0).cumsum(1)[::-1, ::-1][i, j]
        below = size - at_or_above < (size - 1) // 2
        above = at_or_below - 1 > size // 2
        rows, band, k = _hl_band(n)
        kept = np.zeros((n, n), dtype=bool)
        for r, lo, hi in zip(*rows):
            kept[r, lo:hi] = True
        assert np.array_equal(kept[i, j], ~below & ~above)
        assert band == np.sum(~below & ~above) and k == size // 2 - np.sum(below)
        for _ in range(20):
            x = np.sort(rng.integers(-2, 3, n) * 0.5)
            sums = x[i] + x[j]
            ordered = np.sort(sums)
            assert np.all(sums[below] <= ordered[(size - 1) // 2])
            assert np.all(sums[above] >= ordered[size // 2])
            assert np.sort(sums[~below & ~above])[k] == ordered[size // 2]


def mixture_batch(family, beta, reps, n, d, seed):
    """A (reps, n, d) batch of the family's mixture with a shift of 5 per coordinate."""
    null = standard_model(family, d)
    model = MixtureModel(beta, null, EllipticalModel(null.generator, d, mu=np.full(d, 5.0)))
    buffers = model.buffers(reps, n)
    model.draw(np.random.default_rng(seed), *buffers)
    return model.finish(*buffers)


def walsh_medians(data):
    return np.stack([hl_bruteforce(x) for x in data])


class TestWindowedHodgesLehmann:
    """Large batches select inside a window of the band, checked column by
    column; the Walsh median over all pairwise averages is the oracle."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """The columns each selection was given, in call order, labelled band
        where it got the whole band's sums and window where it got a window's."""
        calls = []
        select = estimators._hl_select

        def spy(cols, take, sums, block, out):
            calls.append(("band" if sums is estimators._hl_band_sums(cols.shape[1]) else "window", len(take)))
            return select(cols, take, sums, block, out)

        monkeypatch.setattr(estimators, "_hl_select", spy)
        return calls

    def assert_exact(self, data):
        got = batch_estimates(EstimatorKind.HODGES_LEHMANN, data)
        expect = walsh_medians(data)
        assert same_bits(got, expect)
        assert np.array_equal(np.signbit(got), np.signbit(expect))

    @pytest.mark.parametrize("beta", (0.0, 0.2, 0.5))
    @pytest.mark.parametrize("family", ("gaussian", "cauchy", "light100"))
    def test_exact_on_nulls_and_mixtures(self, family, beta, passes):
        self.assert_exact(mixture_batch(family, beta, 150, 100, 4, seed=int(100 * beta) + len(family)))
        assert passes[:2] == [("band", estimators._HL_PILOT), ("window", 600 - estimators._HL_PILOT)]

    @pytest.mark.parametrize("n", (100, 101))
    def test_exact_at_even_and_odd_counts_and_on_ties(self, n, rng, passes):
        # n = 100 gives an even number of Walsh sums and n = 101 an odd one;
        # the tied batch holds zeros of both signs
        assert (n * (n + 1) // 2) % 2 == (n == 101)
        self.assert_exact(rng.standard_normal((130, n, 4)))
        self.assert_exact(rng.integers(-3, 4, (130, n, 4)) * -1e-300)
        assert [p for p, _ in passes].count("window") == 2

    def test_exact_with_the_margin_grown_at_large_n(self, rng, passes):
        # at n = 300 the window's margin is 6 sums per band row, not 4
        self.assert_exact(rng.standard_normal((130, 300, 1)))
        self.assert_exact(rng.integers(-3, 4, (130, 301, 1)) * -1e-300)
        assert [p for p, _ in passes].count("window") == 2

    def test_exact_across_many_scratch_chunks(self, rng, monkeypatch, passes):
        # a block of 60,000 floats holds 13 band columns with their i-operands,
        # and about 20 window columns
        monkeypatch.setattr(estimators, "_SCRATCH_FLOATS", 60_000)
        assert 600 > 40 * (60_000 // (2 * _hl_band(100)[1]))
        self.assert_exact(mixture_batch("gaussian", 0.2, 150, 100, 4, seed=3))
        self.assert_exact(rng.integers(-3, 4, (150, 101, 4)) * -1e-300)
        assert [p for p, _ in passes].count("window") == 2

    def test_a_block_of_one_band_column_holds_a_window_column(self, rng, monkeypatch, passes, hl_chunks):
        # a window and the sums just outside it are never more than the band,
        # so the smallest block still takes the window, one column at a time
        monkeypatch.setattr(estimators, "_SCRATCH_FLOATS", 1)
        self.assert_exact(rng.standard_normal((130, 100, 4)))
        (_, pilot), (_, rest), (_, failed) = passes
        assert [p for p, _ in passes] == ["band", "window", "band"] and (pilot, rest) == (64, 456)
        assert failed < 0.1 * rest and hl_chunks == [1] * (pilot + rest + failed)

    def test_columns_unlike_the_pilot_fall_back_and_stay_exact(self, rng, passes):
        # the pilot's 64 columns are gaussian, every later one is exp(3z)
        data = rng.standard_normal((160, 100, 4))
        data[16:] = np.exp(3 * data[16:])
        self.assert_exact(data)
        assert passes == [("band", 64), ("window", 576), ("band", 576)]

    def test_batches_below_the_thresholds_take_the_whole_band(self, rng, passes):
        columns, n = estimators._HL_WINDOW_COLUMNS, estimators._HL_WINDOW_N
        self.assert_exact(rng.standard_normal((columns - 1, 100, 1)))
        self.assert_exact(rng.standard_normal((columns // 4, n - 1, 4)))
        assert passes == [("band", columns - 1), ("band", columns)]
        passes.clear()
        self.assert_exact(rng.standard_normal((columns, n, 1)))
        assert [p for p, _ in passes] == ["band", "window", "band"]
        # above n = 100 two pilots' worth of columns take the window
        passes.clear()
        pilots = 2 * estimators._HL_PILOT
        self.assert_exact(rng.standard_normal((pilots - 1, 101, 1)))
        self.assert_exact(rng.standard_normal((pilots, 101, 1)))
        assert [p for p, _ in passes][:3] == ["band", "band", "window"]

    def test_few_gaussian_columns_fall_back(self, passes):
        # the window pays only while the band pass after it stays small
        data = mixture_batch("gaussian", 0.0, 2000, 100, 4, seed=19)
        batch_estimates(EstimatorKind.HODGES_LEHMANN, data)
        (_, pilot), (_, rest), (_, failed) = passes
        assert pilot + rest == 8000 and failed <= 0.05 * rest

    def test_scratch_stays_one_block_plus_per_column_arrays(self):
        cols = _sorted_columns(np.random.default_rng(23).standard_normal((2000, 100, 4)))
        tracemalloc.start()
        try:
            estimators._hodges_lehmann_batch(cols, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * _SCRATCH_FLOATS + 64 * len(cols)


@pytest.mark.parametrize("d", (1, 2, 4, 100))
@pytest.mark.parametrize("gamma", (7 / 11, 8 / 11))
def test_kept_row_mean_has_the_strided_mean_bits(d, gamma, rng):
    # t1 sums its m = 7 or 8 kept rows of 11 in a transposed gather for d > 1;
    # zeros of both signs and mixed magnitudes probe the order of the sums
    m, mu0, sigma = trim_count(11, gamma), np.zeros(d), SpdMatrix.identity(d)
    for reps in (1, 300):
        data = rng.standard_normal((reps, 11, d)) * rng.choice([1e-3, 1.0, 1e3], (reps, 11, d))
        data[rng.random(data.shape) < 0.2] = -0.0
        dist = mahalanobis_sq_many(data, mu0, sigma)
        idx = np.sort(np.argsort(dist, axis=1, kind="stable")[:, :m], axis=1) + 11 * np.arange(reps)[:, None]
        expect = data.reshape(-1, d)[idx.ravel()].reshape(reps, m, d).mean(axis=1)
        assert same_bits(batch_estimates(EstimatorKind.FORWARD_SEARCH, data, mu0, sigma, gamma), expect)


class TestScratchBudget:
    """Batches reduced in blocks of replications within _SCRATCH_FLOATS keep
    the bits of one block; the Hodges-Lehmann block fits in it or holds one
    column."""

    @staticmethod
    def one_block(monkeypatch, fn):
        with monkeypatch.context() as m:
            m.setattr(estimators, "_SCRATCH_FLOATS", 1 << 40)
            return fn()

    @pytest.mark.parametrize("d", (1, 4, 100))
    @pytest.mark.parametrize("identity", (True, False))
    def test_forward_search_blocks_keep_the_bits_with_ties_at_the_mth_distance(self, d, identity, monkeypatch):
        # rows in tenths of small integers, each repeated and mirrored, tie at
        # the m-th distance from the zero anchor; 11 replications of n = 9 run
        # in blocks of 3, 3, 3 and 2
        gen = np.random.default_rng(d)
        base = gen.integers(-3, 4, (11, 5, d)) * 0.1
        data = np.concatenate([base, -base[:, :4]], axis=1)
        n = data.shape[1]
        mu0 = np.zeros(d)
        a = gen.standard_normal((d, d))
        sigma = SpdMatrix.identity(d) if identity else SpdMatrix(a @ a.T / d + np.eye(d))
        dist = mahalanobis_sq_many(data, mu0, sigma)
        m = trim_count(n, 0.5)
        assert np.any(np.sum(dist <= np.sort(dist, axis=1)[:, [m - 1]], axis=1) > m)
        blocks = []
        forward_search_batch = estimators._forward_search_batch
        monkeypatch.setattr(
            estimators, "_forward_search_batch", lambda x, *a: blocks.append(len(x)) or forward_search_batch(x, *a)
        )
        monkeypatch.setattr(estimators, "_SCRATCH_FLOATS", 3 * n * (d + 1) + 1)
        blocked = batch_estimates(EstimatorKind.FORWARD_SEARCH, data, mu0, sigma, 0.5)
        whole = self.one_block(
            monkeypatch, lambda: batch_estimates(EstimatorKind.FORWARD_SEARCH, data, mu0, sigma, 0.5)
        )
        assert same_bits(blocked, whole)
        assert blocks == [3, 3, 3, 2, 11]

    @pytest.mark.parametrize("n", (7, 8))
    def test_median_blocks_keep_the_bits(self, n, monkeypatch, rng):
        # the median alone sorts blocks of 4 replications of 10; t3 with t4 shares one sort
        data = rng.integers(-2, 3, (10, n, 3)) * rng.choice([-1.0, 1.0], (10, n, 3))
        monkeypatch.setattr(estimators, "_SCRATCH_FLOATS", 4 * n * 3 + 3)
        blocked = batch_estimates(EstimatorKind.CW_MEDIAN, data)
        whole = self.one_block(monkeypatch, lambda: batch_estimates(EstimatorKind.CW_MEDIAN, data))
        shared = estimators._batch_estimates_by_kind([EstimatorKind.CW_MEDIAN, EstimatorKind.HODGES_LEHMANN], data)
        assert same_bits(blocked, whole) and same_bits(blocked, shared[EstimatorKind.CW_MEDIAN])
        assert same_bits(blocked, np.median(data, axis=1))

    def test_empty_batches_stay_empty(self):
        for kind in (EstimatorKind.FORWARD_SEARCH, EstimatorKind.CW_MEDIAN):
            got = batch_estimates(kind, np.empty((0, 5, 2)), np.zeros(2), SpdMatrix.identity(2), 0.5)
            assert got.shape == (0, 2)

    @pytest.mark.parametrize("n", (751, 1000))
    def test_hl_block_holds_one_column_past_n_750(self, n, rng, hl_chunks):
        # from n = 751 one column's band sums and i-operands exceed the budget;
        # each column takes the whole band on its own and stays exact
        assert 2 * _hl_band(750)[1] <= _SCRATCH_FLOATS < 2 * _hl_band(n)[1]
        data = rng.standard_normal((2, n, 3))
        data[1] = rng.integers(-3, 4, (n, 3)) * -1e-300
        got = batch_estimates(EstimatorKind.HODGES_LEHMANN, data)
        assert same_bits(got, np.stack([hl_bruteforce(x) for x in data]))
        assert hl_chunks == [1] * 6

    def test_hl_band_cache_holds_one_index_past_n_750(self, rng):
        # an index of eight n near 2,000 (15 MB each) would stay alive in an 8-entry cache
        hl, cached = EstimatorKind.HODGES_LEHMANN, estimators._HL_CACHED_N
        assert 2 * _hl_band(cached)[1] <= _SCRATCH_FLOATS < 2 * _hl_band(cached + 1)[1]
        batch_estimates(hl, rng.standard_normal((1, 100, 1)))
        tracemalloc.start()
        try:
            for n in range(1996, 2004):
                batch_estimates(hl, rng.standard_normal((1, n, 1)))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2 * 16 * _hl_band(2003)[1]  # one index of two int64 per sum, not eight
        hits = estimators._hl_small_band_sums.cache_info().hits
        batch_estimates(hl, rng.standard_normal((1, 100, 1)))
        assert estimators._hl_small_band_sums.cache_info().hits == hits + 1

    @pytest.mark.parametrize("n", (1, 2, 10, 100, 300, 750, 751, 1000))
    def test_hl_block_fits_the_budget_or_holds_one_column(self, n, rng, hl_chunks):
        # the fewest equal chunks of the columns that fit in the budget, three here
        band = _hl_band(n)[1]
        most = max(1, _SCRATCH_FLOATS // (2 * band))
        columns = 2 * most + 1
        estimators._hodges_lehmann_batch(_sorted_columns(rng.standard_normal((columns, n, 1))), 1)
        per = -(-columns // 3)
        assert hl_chunks == [per, per, columns - 2 * per]
        assert per * 2 * band <= _SCRATCH_FLOATS or per == 1


class TestEstimateRecord:
    def test_metadata(self, gauss_data):
        data = gauss_data(n=24, d=2)
        config = ForwardSearchConfig(np.zeros(2), SpdMatrix.identity(2), 0.25)
        est = forward_search(data, config)
        assert isinstance(est, Estimate)
        assert (est.n, est.n_used, est.gamma) == (24, 6, 0.25)
        assert estimate(EstimatorKind.MEAN, data).gamma is None

    def test_config_validates_gamma(self):
        with pytest.raises(ValueError):
            ForwardSearchConfig(np.zeros(2), SpdMatrix.identity(2), 0.0)

    def test_config_validates_dimensions(self):
        with pytest.raises(DimensionMismatch):
            ForwardSearchConfig(np.zeros(3), SpdMatrix.identity(2), 0.5)
