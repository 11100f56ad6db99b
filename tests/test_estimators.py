import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fstest.estimators import (
    _HL_BLOCK_FLOATS,
    _hl_band,
    Estimate,
    EstimatorKind,
    ForwardSearchConfig,
    batch_estimates,
    cw_median,
    estimate,
    forward_search,
    hodges_lehmann,
    sample_mean,
)
from fstest.linalg import DimensionMismatch, SpdMatrix, mahalanobis_sq_many

finite_rows = arrays(
    float,
    st.tuples(st.integers(2, 24), st.integers(1, 4)),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


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
        assert np.allclose(sample_mean(data).value, [2.0, 4.0])

    def test_cw_median_odd_even(self):
        odd = np.array([[1.0], [5.0], [2.0]])
        even = np.array([[1.0], [5.0], [2.0], [4.0]])
        assert cw_median(odd).value[0] == 2.0
        assert cw_median(even).value[0] == 3.0

    def test_cw_median_is_coordinatewise(self):
        data = np.array([[0.0, 10.0], [1.0, -10.0], [2.0, 0.0]])
        assert np.allclose(cw_median(data).value, [1.0, 0.0])

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
        for fn in (sample_mean, cw_median, hodges_lehmann):
            base = fn(data).value
            moved = fn(data + shift).value
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
            (EstimatorKind.MEAN, sample_mean(data)),
            (EstimatorKind.CW_MEDIAN, cw_median(data)),
            (EstimatorKind.HODGES_LEHMANN, hodges_lehmann(data)),
            (EstimatorKind.FORWARD_SEARCH, forward_search(data, config)),
        ):
            routed = estimate(kind, data, config)
            assert routed.kind is kind
            assert np.allclose(routed.value, direct.value)

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

    def test_batch_hl_chunking_consistent(self, rng):
        # 120 columns of 20,888 band sums span three blocks, the last one short
        _, band, _ = _hl_band(300)
        assert band == 20_888 and 120 > 2 * (_HL_BLOCK_FLOATS // band)
        data = rng.standard_normal((60, 300, 2))
        got = batch_estimates(EstimatorKind.HODGES_LEHMANN, data, np.zeros(2), SpdMatrix.identity(2), 0.5)
        expect = np.stack([hl_bruteforce(data[r]) for r in range(60)])
        assert np.array_equal(got, expect)

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

    def test_batch_hl_column_larger_than_block(self, rng):
        # n = 2100 gives a band of 1,029,114 Walsh sums, more than one block holds
        assert _hl_band(2100)[1] > _HL_BLOCK_FLOATS
        data = rng.standard_normal((1, 2100, 2))
        got = batch_estimates(EstimatorKind.HODGES_LEHMANN, data)
        assert np.array_equal(got[0], hl_bruteforce(data[0]))

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
            assert same_bits(cw_median(data).value, np.median(data, axis=0))
            assert same_bits(estimate(EstimatorKind.CW_MEDIAN, data).value, np.median(data, axis=0))

    def test_single_estimators_are_the_batch_at_one_rep(self, rng):
        data = rng.integers(-2, 3, (31, 3)) * rng.choice([-1.0, 1.0], (31, 3))
        config = ForwardSearchConfig(np.zeros(3), SpdMatrix(np.eye(3) + 0.5), 0.5)
        params = (config.mu0, config.sigma, config.gamma)
        for kind, single in (
            (EstimatorKind.MEAN, sample_mean),
            (EstimatorKind.CW_MEDIAN, cw_median),
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


class TestForwardSearchOracle:
    """t1 selects like a stable sort and sums in input order, in a batch and alone."""

    @given(
        st.integers(1, 4),
        st.integers(1, 30),
        st.integers(1, 4),
        st.sampled_from([0.01, 0.5, 1.0]),
        st.booleans(),
        st.data(),
    )
    def test_batch_has_the_stable_selection_bits(self, reps, n, d, gamma, identity, draw):
        # tenths of small integers (inexact, so the summation order shows),
        # rows repeated by index, and mirrored rows, which sit at the same
        # distance from the zero anchor under any scatter
        base = draw.draw(arrays(np.int64, (reps, n, d), elements=st.integers(-3, 3), fill=st.nothing()))
        idx = draw.draw(arrays(np.int64, n, elements=st.integers(0, n - 1), fill=st.nothing()))
        sign = draw.draw(arrays(float, n, elements=st.sampled_from([-0.1, 0.1]), fill=st.nothing()))
        data = base[:, idx] * sign[:, None]
        sigma = SpdMatrix.identity(d) if identity else SpdMatrix(np.eye(d) + 0.5)
        config = ForwardSearchConfig(np.zeros(d), sigma, gamma)
        got = batch_estimates(EstimatorKind.FORWARD_SEARCH, data, config.mu0, sigma, gamma)
        for r in range(reps):
            expect = stable_forward_search(data[r], config.mu0, sigma, gamma)
            assert same_bits(got[r], expect)
            assert same_bits(forward_search(data[r], config).value, expect)


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
        for r, lo, hi in rows:
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


class TestEstimateRecord:
    def test_metadata(self, gauss_data):
        data = gauss_data(n=24, d=2)
        config = ForwardSearchConfig(np.zeros(2), SpdMatrix.identity(2), 0.25)
        est = forward_search(data, config)
        assert isinstance(est, Estimate)
        assert (est.n, est.n_used, est.gamma) == (24, 6, 0.25)
        assert sample_mean(data).gamma is None

    def test_config_validates_gamma(self):
        with pytest.raises(ValueError):
            ForwardSearchConfig(np.zeros(2), SpdMatrix.identity(2), 0.0)

    def test_config_validates_dimensions(self):
        with pytest.raises(DimensionMismatch):
            ForwardSearchConfig(np.zeros(3), SpdMatrix.identity(2), 0.5)
