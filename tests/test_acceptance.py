"""Release acceptance checks.

Each test is one claim about the finished package, run at its stated
tolerance with fixed seeds.  Failure messages list the offending cells so
a red line documents exactly which targets the implementation does not
reproduce.  These are end-to-end checks; unit-level coverage lives in the
other modules.
"""

import math

import numpy as np
import pytest
from scipy import stats

import oracles
from fstest import asymptotics, engine, robustness
from fstest.elliptical import FAMILY_TAGS, generator_by_name
from fstest.engine import StatKind
from fstest.estimators import EstimatorKind, ForwardSearchConfig, estimate, forward_search
from fstest.linalg import SpdMatrix
from fstest.rng import stream_rng

FAMILIES = ("gaussian", "cauchy", "light100")

# Reference values for the d-th-root Gaussian efficiency grid; every cell
# is expected to be matched to +/- 0.01 by the closed forms.
REFERENCE_GAUSSIAN_ROOT_CELLS = {
    "e1": {2: 0.28, 4: 0.34, 10: 0.37, 20: 0.38, 50: 0.39, 100: 0.40},
    "e2": {2: 0.35, 4: 0.38, 10: 0.39, 20: 0.39, 50: 0.40, 100: 0.40},
    "e3": {2: 0.29, 4: 0.36, 10: 0.39, 20: 0.40, 50: 0.41, 100: 0.42},
}


def test_criterion_1_size_calibration():
    # With empirical calibration every test must hold its level under all
    # three families.  The sample-mean statistic is skipped for the heavy
    # tail, where its limit does not exist.
    table = engine.power_table(
        FAMILIES, (0.0,), d=4, n=100, reps=1000, gamma=0.5, alpha=0.05,
        null_reps=2000, seed=101,
    )
    failures = []
    for family in FAMILIES:
        for kind in StatKind:
            if family == "cauchy" and kind == StatKind.T2:
                continue
            rate = table[family][kind][0.0]
            if not 0.03 <= rate <= 0.07:
                failures.append(f"{family}/{kind.value}: {rate:.3f}")
    assert not failures, "null rejection rate outside 0.05 +/- 0.02: " + "; ".join(failures)


def test_criterion_2_power_trends():
    gauss = engine.power_table(
        ("gaussian",), (0.2, 0.7), d=4, n=100, reps=500, gamma=0.5, alpha=0.05,
        null_reps=2000, seed=202,
    )["gaussian"]
    cauchy = engine.power_table(
        ("cauchy",), (0.2, 0.3), d=4, n=100, reps=500, gamma=0.5, alpha=0.05,
        null_reps=2000, seed=202,
    )["cauchy"]
    failures = []
    if gauss[StatKind.T2][0.2] < 0.85:
        failures.append(f"gaussian t2 at beta=0.2: {gauss[StatKind.T2][0.2]:.3f} < 0.85")
    if cauchy[StatKind.T1][0.2] < 0.7:
        failures.append(f"cauchy t1 at beta=0.2: {cauchy[StatKind.T1][0.2]:.3f} < 0.7")
    if abs(cauchy[StatKind.T3][0.3] - 1.0) > 0.02:
        failures.append(f"cauchy t3 at beta=0.3: {cauchy[StatKind.T3][0.3]:.3f} != 1.0 +/- 0.02")
    for kind in StatKind:
        rate = gauss[kind][0.7]
        if rate < 0.9:
            failures.append(f"gaussian {kind.value} at beta=0.7: {rate:.3f} < 0.9")
    assert not failures, "power trend targets missed: " + "; ".join(failures)


def test_criterion_3_breakdown_fraction():
    for gamma in (0.3, 0.5, 0.7):
        result = robustness.breakdown_experiment(gamma, n=20, d=4, seed=303)
        assert abs(result.break_fraction - (1.0 - gamma)) <= 1 / 20 + 1e-12, gamma
        again = robustness.breakdown_experiment(gamma, n=20, d=4, seed=303)
        assert result.to_json_dict() == again.to_json_dict(), gamma


def test_criterion_4_closed_form_limits():
    for which in ("e1", "e2", "e3"):
        for d in (2, 4, 10):
            closed = asymptotics.efficiency("gaussian", which, d)
            quad = oracles.efficiency("gaussian", which, d)
            assert quad == pytest.approx(closed, rel=1e-8), (which, d)

    # over d = 2..d_max the gaussian form decays below 1e-6, monotone from d = 10;
    # the cauchy and light100 ones grow past 1e3
    def values(family, which, d_max):
        return {d: asymptotics.efficiency(family, which, d) for d in range(2, d_max + 1)}

    gauss = values("gaussian", "e1", 40)
    assert any(v < 1e-6 for v in gauss.values())
    tail = [v for d, v in gauss.items() if d >= 10]
    assert all(b < a for a, b in zip(tail, tail[1:]))
    assert any(v > 1e3 for v in values("cauchy", "e2", 60).values())
    assert any(v > 1e3 for v in values("light100", "e1", 60).values())


def test_criterion_5_gaussian_root_efficiency_cells():
    grid = asymptotics.efficiency_grid("gaussian")
    failures = []
    for which, cells in REFERENCE_GAUSSIAN_ROOT_CELLS.items():
        for d, target in cells.items():
            value = grid[which][d]
            if abs(value - target) > 0.01:
                failures.append(f"{which} d={d}: computed {value:.5f} vs expected {target:.2f}")
    assert not failures, "root-efficiency cells off by more than 0.01: " + "; ".join(failures)


def test_criterion_6_local_power_ordering():
    # Limiting power at d = 4, gamma = 1/2, alpha = 0.05 against closed forms.
    # For the Gaussian the trimmed statistic tends to v * chi2_4(kappa^2
    # |delta|^2 / v): v = P(chi2_6 <= q) / gamma^2 is its variance scalar and
    # kappa = 1 - 2 q f(q) / (d gamma) its drift factor, with q and f the
    # median and density of chi2_4; the package computes kappa as
    # P(chi2_6 <= q) / gamma, which integration by parts makes equal to it.
    # Under light100 the kernel is flat on the trimming ball, so kappa =
    # 5.0e-16 and t1 keeps power alpha, while the mean test's drift delta
    # makes its power 1.  Monte Carlo tolerance: 5 SE.
    alpha, d, gamma = 0.05, 4, 0.5
    mc = engine.DEFAULT_MC_SAMPLES

    def five_se(p):
        return 5 * math.sqrt(p * (1 - p) / mc)

    failures = []
    for comp in (0.5, -0.5, 5.0, -5.0):
        value = asymptotics.contiguous_power(StatKind.T2, "cauchy", np.full(4, comp))
        if value != 0.0:
            failures.append(f"cauchy t2 at {comp}*1: {value} != 0")
    delta = np.full(d, 0.5)
    q = stats.chi2.ppf(gamma, d)
    kappa = 1 - 2 * q * stats.chi2.pdf(q, d) / (d * gamma)
    v = stats.chi2.cdf(q, d + 2) / gamma**2
    expected = stats.ncx2.sf(stats.chi2.ppf(1 - alpha, d), d, kappa**2 * (delta @ delta) / v)
    trimmed = asymptotics.contiguous_power(StatKind.T1, "gaussian", delta)
    if abs(trimmed - expected) > five_se(expected):
        failures.append(f"gaussian t1 at 0.5*1: {trimmed:.4f} vs closed form {expected:.4f}")
    for comp in (5.0, -5.0):
        t1 = asymptotics.contiguous_power(StatKind.T1, "light100", np.full(4, comp))
        t2 = asymptotics.contiguous_power(StatKind.T2, "light100", np.full(4, comp))
        if abs(t1 - alpha) > five_se(alpha):
            failures.append(f"light100 t1 at {comp}*1: {t1:.4f} vs alpha {alpha}")
        if t2 != 1.0:
            failures.append(f"light100 t2 at {comp}*1: {t2:.4f} != 1")
    assert not failures, "local power targets missed: " + "; ".join(failures)


def test_criterion_7_oracle_equivalences():
    rng = np.random.default_rng(707)

    # trimmed-at-full-retention estimator reduces to the sample mean
    for _ in range(20):
        data = rng.standard_normal((int(rng.integers(2, 80)), 3))
        config = ForwardSearchConfig(np.zeros(3), SpdMatrix(np.eye(3)), 1.0)
        gap = np.abs(forward_search(data, config).value - data.mean(axis=0))
        assert gap.max() <= 1e-12

    # pairwise-average median equals brute-force enumeration
    for _ in range(100):
        n = int(rng.integers(2, 201))
        d = int(rng.integers(1, 5))
        data = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0)
        fast = estimate(EstimatorKind.HODGES_LEHMANN, data).value
        i, j = np.triu_indices(n)
        brute = np.median((data[i] + data[j]) / 2.0, axis=0)
        assert np.abs(fast - brute).max() <= 1e-12

    # Monte Carlo quantiles of unit-weight limits, from the critical-value stream, agree with
    # chi-squared references (critical_value itself takes the exact point at equal weights)
    for d, reference in ((1, 3.8415), (2, 5.9915), (5, 11.0705)):
        weights = np.ones(d)
        draws = engine.weighted_chisq_sample(weights, 200_000, stream_rng(707, "critical-value", *weights))
        quantile = engine._quantile_with_se(draws, 0.95)
        assert abs(quantile.value - reference) <= 4 * quantile.stderr, d

    # the kappa check's location score, -2 g'(x)/g(x) y at x = |y|^2, agrees with finite differences
    for _ in range(100):
        family = str(rng.choice(sorted(FAMILY_TAGS)))
        d = int(rng.integers(1, 5))
        y = 0.5 * rng.standard_normal((3, d))
        score = -2.0 * generator_by_name(family).dlog_g((y * y).sum(axis=1), d)[:, None] * y
        fd = oracles.location_score_fd(family, y, 1e-6)
        assert np.allclose(score, fd, rtol=1e-5, atol=1e-7), (family, d)

    # full-retention limit covariance of sqrt(n) (T - mu0) is the identity, within 3 SE
    n, reps = 500, 5000
    scaled = math.sqrt(n) * robustness._replicated_estimates(
        "gaussian", n, 2, 1.0, (EstimatorKind.FORWARD_SEARCH,), reps, 707
    )[EstimatorKind.FORWARD_SEARCH]
    centered = scaled - scaled.mean(axis=0)
    cov = centered.T @ centered / reps
    se_diag = math.sqrt(2.0 / reps)
    se_off = math.sqrt(1.0 / reps)
    assert abs(cov[0, 0] - 1.0) <= 3 * se_diag
    assert abs(cov[1, 1] - 1.0) <= 3 * se_diag
    assert abs(cov[0, 1]) <= 3 * se_off


def test_criterion_8_thread_invariant_determinism(monkeypatch):
    def campaign(threads: str):
        monkeypatch.setenv("FSTEST_THREADS", threads)
        return engine.power_table(
            ("gaussian",), (0.0, 0.5), d=2, n=40, reps=80, gamma=0.5, alpha=0.05,
            null_reps=400, seed=808,
        )

    serial = campaign("1")
    repeat = campaign("1")
    threaded = campaign("3")
    assert serial == repeat
    assert serial == threaded
