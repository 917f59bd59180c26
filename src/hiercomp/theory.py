"""Closed-form approximation of the normalised measure on independent-pair graphs.

The degree-k class of an er graph stacks k-vectors of iid degree draws; the
column sds are therefore sds of order statistics, approximated by

    sigma_i ~ (1 / f(F^-1(i/(k+1)))) * sqrt(i(k-i+1) / ((k+1)^2 (k+2)))

with f, F the degree pmf/cdf (binomial B(n-1, p) for er).  Summing over i
and dividing by the expected (1-d) m gives the per-degree estimate, and
averaging over the expected degree range [a, b] gives the global one.
Discrete quantiles follow the convention F^-1(u) = min{x : F(x) >= u}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BinomialDistribution",
    "UniformDistribution",
    "order_stat_sigma",
    "nhc_global_approx",
    "corollary_bound",
    "TheoryApprox",
]

_PMF_FLOOR = 1e-300


class BinomialDistribution:
    """Exact B(n_trials, p) evaluated in log space for tail stability."""

    def __init__(self, n_trials: int, p: float):
        from scipy.special import gammaln

        if n_trials < 1:
            raise ValueError("n_trials must be positive")
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        self.n_trials = int(n_trials)
        self.p = float(p)
        k = np.arange(self.n_trials + 1, dtype=np.float64)
        if p == 0.0 or p == 1.0:
            pmf = np.zeros(self.n_trials + 1)
            pmf[0 if p == 0.0 else self.n_trials] = 1.0
        else:
            logpmf = (
                gammaln(self.n_trials + 1)
                - gammaln(k + 1)
                - gammaln(self.n_trials - k + 1)
                + k * math.log(p)
                + (self.n_trials - k) * math.log1p(-p)
            )
            pmf = np.exp(logpmf)
        self._pmf = pmf
        cdf = np.minimum(np.cumsum(pmf), 1.0)
        cdf[-1] = 1.0
        self._cdf = cdf

    def pmf(self, x):
        x = np.asarray(x)
        inside = (x >= 0) & (x <= self.n_trials)
        out = np.where(inside, self._pmf[np.clip(x, 0, self.n_trials).astype(np.int64)], 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x)
        idx = np.clip(np.floor(x).astype(np.int64), -1, self.n_trials)
        out = np.where(idx < 0, 0.0, self._cdf[np.maximum(idx, 0)])
        return out if out.ndim else float(out)

    def quantile(self, u):
        """Smallest x with F(x) >= u."""
        u = np.asarray(u, dtype=np.float64)
        if np.any((u <= 0.0) | (u > 1.0)):
            raise ValueError("quantile argument must lie in (0, 1]")
        out = np.searchsorted(self._cdf, u, side="left")
        out = np.minimum(out, self.n_trials)
        return out if out.ndim else int(out)


class UniformDistribution:
    """Continuous uniform on [0, 1]; diagnostic reference distribution."""

    def pmf(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.clip(x, 0.0, 1.0)
        return out if out.ndim else float(out)

    def quantile(self, u):
        u = np.asarray(u, dtype=np.float64)
        if np.any((u <= 0.0) | (u > 1.0)):
            raise ValueError("quantile argument must lie in (0, 1]")
        return u if u.ndim else float(u)


def order_stat_sigma(i: int, k: int, dist) -> float:
    """Approximate sd of the i-th of k ascending iid draws from dist."""
    if not 1 <= i <= k:
        raise ValueError("need 1 <= i <= k")
    f = float(dist.pmf(dist.quantile(i / (k + 1))))
    if f <= 0.0:
        raise ValueError("pmf vanishes at quantile")
    return (1.0 / f) * math.sqrt(i * (k - i + 1) / ((k + 1) ** 2 * (k + 2)))


def _sigma_sum(k: int, dist) -> tuple[float, int]:
    """Sum_i sqrt(i(k-i+1)) / f(F^-1(i/(k+1))), dropping underflowed pmfs."""
    i = np.arange(1, k + 1, dtype=np.float64)
    f = np.asarray(dist.pmf(dist.quantile(i / (k + 1))), dtype=np.float64)
    ok = f >= _PMF_FLOOR
    dropped = int(k - ok.sum())
    total = float(np.sum(np.sqrt(i[ok] * (k - i[ok] + 1)) / f[ok]))
    return total, dropped


@dataclass(frozen=True)
class TheoryApprox:
    """Per-degree and range-averaged estimates plus the degree range used."""

    per_degree: dict[int, float]
    global_value: float
    degree_low: int
    degree_high: int
    dropped_terms: int

    def to_rows(self) -> list[tuple[int, float]]:
        return sorted(self.per_degree.items())


def _degree_bounds(n: int, dist, minmax_quantile: str) -> tuple[int, int]:
    if minmax_quantile == "1/n":
        u_lo, u_hi = 1.0 / n, (n - 1.0) / n
    elif minmax_quantile == "1/(n+1)":
        u_lo, u_hi = 1.0 / (n + 1), n / (n + 1.0)
    else:
        raise ValueError("minmax_quantile must be '1/n' or '1/(n+1)'")
    a = int(math.floor(dist.quantile(u_lo)))
    b = int(math.ceil(dist.quantile(u_hi)))
    return max(a, 1), b


def nhc_global_approx(n: int, p: float, minmax_quantile: str = "1/n") -> TheoryApprox:
    """Estimate of the global normalised measure for er(n, p).

    The expected degree range [a, b] comes from extreme quantiles of the
    degree distribution (a clamped to >= 1); the per-degree estimates are
    summed over [a, b] and divided by (b - a) -- the printed form of the
    average, which has one term more than its divisor.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if p == 0.0 or p == 1.0:
        return TheoryApprox({}, 0.0, 0, 0, 0)
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in [0, 1]")
    dist = BinomialDistribution(n - 1, p)
    a, b = _degree_bounds(n, dist, minmax_quantile)
    if b <= a:
        raise ValueError(f"degenerate degree range [{a}, {b}]")
    per: dict[int, float] = {}
    dropped = 0
    for k in range(a, b + 1):
        total, miss = _sigma_sum(k, dist)
        dropped += miss
        per[k] = 2.0 * total / (p * (1.0 - p) * (n - 1) * n * (k + 1) * math.sqrt(k + 2))
    global_value = math.fsum(per.values()) / (b - a)
    return TheoryApprox(per, global_value, a, b, dropped)


def corollary_bound(n: int, p: float, minmax_quantile: str = "1/n") -> float:
    """Closed-form upper estimate sqrt(pi) b / (n sqrt(2 p (1-p) (n-1)))."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly in (0, 1)")
    dist = BinomialDistribution(n - 1, p)
    _, b = _degree_bounds(n, dist, minmax_quantile)
    return math.sqrt(math.pi) * b / (n * math.sqrt(2.0 * p * (1.0 - p) * (n - 1)))

