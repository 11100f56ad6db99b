"""Incomplete gamma and beta functions, their inverses, and the chi-squared laws.

Every number the limit laws give comes from here: the squared-radius laws of
the elliptical kernels, the t1 limit variance and drift, the chi-squared
critical points and p-values, and the noncentral chi-squared tail of the
asymptotic power.  They use only ``math`` and numpy, so the package needs no
scipy at run time; the tests check them against scipy and mpmath.  Nothing
here imports another fstest module.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

#: the argument from which Stirling's series (:func:`_stirling`) replaces lgamma
#: in differences of log-gamma values
_STIRLING_FROM = 15.0


def _stirling(a: float) -> float:
    """lgamma(a) - (a - 1/2) log a + a - log(2 pi) / 2 by Stirling's series to 1/a^9,
    whose next term is below 3e-16 from a = 15 on."""
    inv_sq = 1.0 / (a * a)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - inv_sq / 1188) * inv_sq) * inv_sq) * inv_sq) / a


def _log_gamma_term(a: float, x: float) -> float:
    """log(x^a e^{-x} / Gamma(a + 1)), x > 0.

    From a = _STIRLING_FROM on it is -a (r - 1 - log r) - log(2 pi a) / 2 - S(a)
    with r = x/a and S :func:`_stirling`'s: near the mode its error stays
    near eps |x - a|, where the direct form's grows like eps a log a (3e-13
    at a = 1000).
    """
    if a < _STIRLING_FROM:
        return a * math.log(x) - x - math.lgamma(a + 1.0)
    r = x / a
    return -a * (r - 1.0 - math.log(r)) - 0.5 * math.log(2.0 * math.pi * a) - _stirling(a)


def _gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x), x > 0, by its power series.

    The terms e^{-x} x^{a+k} / Gamma(a+k+1) sum to P and each is at most 1.
    Where the first one underflows, P rounds to 0 below the mode a and to 1
    above it.
    """
    term = math.exp(_log_gamma_term(a, x))
    if term < sys.float_info.min:
        return 0.0 if x < a else 1.0
    total, k = term, 0
    while True:
        k += 1
        term *= x / (a + k)
        total += term
        if a + k > x and term <= total * 1e-17:
            return min(total, 1.0)


def _gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x), x > 0.

    1 - P below x = a + 1, where Q is not small; above it Legendre's
    continued fraction, which keeps a small tail to full relative precision.
    """
    if x < a + 1.0:
        return 1.0 - _gamma_p(a, x)

    def terms():
        yield 1.0, x + 1.0 - a
        for i in itertools.count(1):
            yield -i * (i - a), x + 2 * i + 1.0 - a

    return a * math.exp(_log_gamma_term(a, x)) * _lentz(terms())  # x^a e^{-x} / Gamma(a) first


def _lentz(terms) -> float:
    """a1 / (b1 + a2 / (b2 + ...)) over the endless (a_i, b_i) of ``terms``, by the
    modified Lentz method, until a step moves it by at most one float (or to NaN)."""
    tiny = 1e-300
    value = c = tiny
    dd = 0.0
    for a, b in terms:
        dd = b + a * dd
        dd = 1.0 / (dd if abs(dd) > tiny else tiny)
        c = b + a / c
        c = c if abs(c) > tiny else tiny
        step = c * dd
        value *= step
        if not abs(step - 1.0) > sys.float_info.epsilon:
            return value


def _log_beta(a: float, b: float) -> float:
    """log B(a, b).  From max(a, b) = _STIRLING_FROM on, lgamma(big) - lgamma(big +
    small) is taken by Stirling's formula, where the direct difference loses eps
    lgamma(big)."""
    small, big = sorted((a, b))
    if big < _STIRLING_FROM:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (
        math.lgamma(small) - small * math.log(big) - (big + small - 0.5) * math.log1p(small / big)
        + small + _stirling(big) - _stirling(big + small)
    )


def _beta_inc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) by its continued fraction.

    The fraction converges fast below x = (a + 1) / (a + b + 2); above it
    I_x(a, b) = 1 - I_{1-x}(b, a) is taken instead.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    flip = x > (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, x = b, a, 1.0 - x
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)) / a
    value = front * _beta_fraction(a, b, x)
    return 1.0 - value if flip else value


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) (Numerical Recipes' betacf)."""

    def terms():
        yield 1.0, 1.0
        for m in itertools.count():
            if m:
                yield m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)), 1.0
            yield -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)), 1.0

    return _lentz(terms())


def _beta_half_odds_mean(a: float, b: float) -> float:
    """E[U/(1-U) 1{U <= b}] for U ~ Beta(a, 1/2), 0 < b < 1, by its positive series.

    The mean is the integral of t^a (1-t)^{-3/2} over (0, b), divided by B(a, 1/2),
    so it is sum_k ((3/2)_k / k!) b^{a+k+1} / (a+k+1) / B(a, 1/2).  For a >= 1/2
    each term is below b times the one before, so the rest of the sum is below
    the last term times b / (1 - b); the sum stops where that is below 1e-17 of
    the total.
    """
    odds = b / (1.0 - b)
    term = total = 1.0 / (a + 1.0)
    coef, k = 1.0, 0
    while term * odds > total * 1e-17:
        k += 1
        coef *= (k + 0.5) / k * b
        term = coef / (a + k + 1.0)
        total += term
    return math.exp((a + 1.0) * math.log(b) - _log_beta(a, 0.5)) * total


def _bisect(cdf, p: float, hi: float) -> float:
    """The x >= 0 where the increasing ``cdf`` reaches p: ``hi`` doubles from its start
    until cdf(hi) >= p, then bisection narrows [0, hi] down to adjacent floats."""
    lo = 0.0
    while cdf(hi) < p:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid


def _gamma_p_inverse(a: float, p: float) -> float:
    """The x with P(a, x) = p."""
    return _bisect(lambda x: _gamma_p(a, x), p, a + 1.0)


def _gamma_q_inverse(a: float, q: float) -> float:
    """The x with Q(a, x) = q."""
    return _bisect(lambda x: -_gamma_q(a, x), -q, a + 1.0)


def _beta_inc_inverse(a: float, b: float, p: float) -> float:
    """The x with I_x(a, b) = p; I_1 = 1, so [0, 1] brackets it."""
    return _bisect(lambda x: _beta_inc(a, b, x), p, 1.0)


@lru_cache(maxsize=256)
def _chi2_upper_point(d: int, alpha: float) -> float:
    """The q with P(chi2_d > q) = alpha, from the upper tail, where 1 - alpha would
    lose a small alpha's relative precision."""
    return 2.0 * _gamma_q_inverse(d / 2, alpha)


def _chi2_tail(d: int, x: float) -> float:
    """P(chi2_d > x) = Q(d/2, x/2): NaN at NaN, 1 at x <= 0, where Q's series
    takes log x, and 0 at +inf, where its fraction gives NaN."""
    if math.isnan(x):
        return math.nan
    if x <= 0:
        return 1.0
    if x == math.inf:
        return 0.0
    return _gamma_q(d / 2, x / 2)


def _noncentral_chi2_cdf(q: float, d: int, shift: float) -> float:
    """P(chi2_d(shift) <= q) = sum_j Poisson(j; shift/2) P(d/2 + j, q/2) (Ding 1992, AS 275).

    The sum runs over :func:`_gamma_p_ladder`, past whose end P(d/2 + j, q/2)
    is below 1e-20, so it needs no cap on the shift: the Poisson weights of a
    large one underflow to 0 along the ladder.
    """
    j, offsets, ladder = _gamma_p_ladder(d / 2, q / 2)
    if shift == 0.0:
        return float(ladder[0])
    return float(np.exp(_log_gamma_terms(j, shift / 2, offsets)) @ ladder)


@lru_cache(maxsize=8)
def _gamma_p_ladder(a: float, y: float) -> tuple[NDArray, NDArray, NDArray]:
    """j, :func:`_log_gamma_offsets` of j, and P(a + j, y) for j = 0, 1, ... while
    P(a + j, y) >= 1e-20.

    With t_k = e^{-y} y^{a+k} / Gamma(a + k + 1), the terms of P(a, y)'s
    power series, P(a + j, y) is both the head P(a, y) - t_0 - ... - t_{j-1},
    the recurrence from one :func:`_gamma_q` call, precise in absolute terms,
    and the tail t_j + t_{j+1} + ..., precise in relative ones; the ladder
    takes the tail where it is below 1/2.
    """
    size = math.ceil(max(y - a, 0.0) + 12.0 * math.sqrt(y) + 60.0)
    j = np.arange(size + 1.0)
    terms = np.exp(_log_gamma_terms(a + j, y, _log_gamma_offsets(a + j)))
    tails = np.cumsum(terms[::-1])[::-1]
    heads = 1.0 - _gamma_q(a, y) - np.concatenate(([0.0], np.cumsum(terms[:-1])))
    ladder = np.where(tails < 0.5, tails, heads)
    offsets = _log_gamma_offsets(j)
    for array in (j, offsets, ladder):
        array.flags.writeable = False
    return j, offsets, ladder


def _log_gamma_terms(s: NDArray, x: float, offsets: NDArray) -> NDArray:
    """:func:`_log_gamma_term` (log(x^s e^{-x} / Gamma(s + 1))) over an increasing
    array s, x > 0: directly below s = _STIRLING_FROM and in Stirling's form from
    there on, with the s-only parts in ``offsets``.  It rounds differently from
    the scalar form in the last bit."""
    cut = int(np.searchsorted(s, _STIRLING_FROM))
    r = x / s[cut:]
    head = s[:cut] * math.log(x) - x - offsets[:cut]
    return np.concatenate((head, -s[cut:] * (r - 1.0 - np.log(r)) - offsets[cut:]))


def _log_gamma_offsets(s: NDArray) -> NDArray:
    """The parts of :func:`_log_gamma_terms` that depend on s alone: lgamma(s + 1)
    below _STIRLING_FROM, log(2 pi s) / 2 + S(s) from there on."""
    return np.array([
        math.lgamma(v + 1.0) if v < _STIRLING_FROM else 0.5 * math.log(2.0 * math.pi * v) + _stirling(v)
        for v in s
    ])
