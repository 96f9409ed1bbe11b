"""Probabilistic model of the counting function and exponent fitting.

Treating B(n) and B(n^2) as independent binomial weights predicts
p(n) ~ n^alpha / log n with alpha = log2(27/16) ~ 0.7549.  This module
computes the model probabilities exactly, evaluates the finite-k
expression that converges to alpha, fits a power-law exponent to
counting samples by ordinary least squares on log-log axes, and emits
the fluctuation profile p(n) * ln(n) / n^alpha.
"""

from __future__ import annotations

import math
from math import comb, lgamma
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

    from .enumeration import CountSample


class FitResult(NamedTuple):
    alpha_hat: float
    intercept: float
    residual_rms: float
    sample_count: int


class ProfilePoint(NamedTuple):
    """Fluctuation-profile sample: value = count * ln(n) / n^alpha.

    log2_n is the abscissa used for period-1 inspection.
    """

    n: int
    log2_n: float
    value: float


def model_probability(k: int, l: int) -> Fraction:
    """Model probability that B(n^2) = l for n in [2^k, 2^(k+1)).

    Exactly (C(2k, l) + C(2k+1, l)) / (3 * 2^2k).  This is not the chance
    that n is a member with B(n) = l: summed over l it gives the model's
    P(B(n^2) <= k + 1), 0.715 at k = 8 and 0.573 at k = 80.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= l <= k + 1:
        raise ValueError(f"l must be in 0..{k + 1}, got {l}")
    from fractions import Fraction
    return Fraction(comb(2 * k, l) + comb(2 * k + 1, l), 3 * (1 << (2 * k)))


def alpha_theoretical() -> float:
    """The model exponent log(27/16) / log(2) = 0.75488750..."""
    return math.log(27 / 16) / math.log(2)


def cross_binomial_sum(k: int) -> int:
    """Exact sum over l of C(k, l) * C(2k, l); equals C(3k, k)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return sum(comb(k, l) * comb(2 * k, l) for l in range(k + 1))


def alpha_limit(k: int) -> float:
    """Finite-k exponent -2 + log2(sum_l C(k,l) C(2k,l)) / k.

    The sum collapses to C(3k, k), whose logarithm comes from log-gamma,
    so arbitrarily large k never overflows.  Converges to
    alpha_theoretical() from below as k grows.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    log_sum = lgamma(3 * k + 1) - lgamma(k + 1) - lgamma(2 * k + 1)
    return -2.0 + log_sum / (k * math.log(2))


def fit_exponent(samples: list[CountSample]) -> FitResult:
    """Ordinary least squares of log(count) against log(n).

    Samples with count = 0 or n < 2 are dropped; at least two usable
    samples with distinct n are required.  No log-n correction is
    applied: the fit is a pure power law, computed as
    statistics.linear_regression computes it (means, then sxy / sxx, each
    sum a math.fsum), so it gives the same floats.
    """
    usable = [s for s in samples if s.count >= 1 and s.n >= 2]
    if len(usable) < 2:
        raise ValueError(f"need at least 2 usable samples, got {len(usable)}")
    xs = [math.log(s.n) for s in usable]
    ys = [math.log(s.count) for s in usable]
    n = len(usable)
    xbar, ybar = math.fsum(xs) / n, math.fsum(ys) / n
    sxx = math.fsum((x - xbar) * (x - xbar) for x in xs)
    if not sxx:
        raise ValueError("all usable samples share one n")
    slope = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    intercept = ybar - slope * xbar
    rss = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    return FitResult(alpha_hat=slope, intercept=intercept,
                     residual_rms=math.sqrt(rss / n), sample_count=n)


def fluctuation_profile(samples: list[CountSample],
                        alpha: float) -> list[ProfilePoint]:
    """Per-sample value count * ln(n) / n^alpha, order preserved."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    points = []
    for s in samples:
        if s.n < 2:
            raise ValueError(f"samples need n >= 2, got {s.n}")
        value = s.count * math.log(s.n) / s.n**alpha
        points.append(ProfilePoint(n=s.n, log2_n=math.log2(s.n), value=value))
    return points


def geometric_grid(start: int, limit: int, ratio: float = 2**0.25) -> list[int]:
    """Geometric grid of integers from start to limit, duplicates dropped.

    The points are min(round(start * ratio**i), limit) for i = 0, 1, ...
    while start * ratio**i <= limit * (1 + 1e-12).  A run of i giving one
    point is crossed by doubling then halving the step, so the work grows
    with the number of points, not with log(limit / start) / log(ratio).
    """
    if not 1 <= start <= limit:
        raise ValueError(f"need 1 <= start <= limit, got {start}, {limit}")
    if limit >= 1 << 1023:  # keeps limit * (1 + 1e-12) a finite float
        raise ValueError("geometric grid limit must be below 2^1023, got "
                         f"a {limit.bit_length()}-bit limit")
    if not ratio > 1:  # NaN fails this too
        raise ValueError(f"ratio must be > 1, got {ratio}")
    bound = limit * (1 + 1e-12)

    def point(i: int) -> int | None:  # non-decreasing in i; None past the end
        try:
            x = start * ratio**i
        except OverflowError:  # ratio**i is beyond every float, so past bound
            return None
        return None if x > bound else min(round(x), limit)

    grid, i = [], 0
    while (p := point(i)) is not None:
        grid.append(p)
        lo, hi = i, i + 1  # point(lo) == p; find the first hi with point != p
        while point(hi) == p:
            lo, hi = hi, 2 * hi - i
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if point(mid) == p else (lo, mid)
        i = hi
    return grid
