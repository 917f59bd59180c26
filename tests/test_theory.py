"""Degree distribution, order-statistic sd, and the closed-form estimates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiercomp import theory
from hiercomp.theory import (
    BinomialDistribution,
    UniformDistribution,
    corollary_bound,
    nhc_global_approx,
    order_stat_sigma,
)


class StubDist:
    """Minimal pmf/cdf/quantile triple for exercising guard paths."""

    def __init__(self, pmf_value):
        self._pmf = pmf_value

    def pmf(self, x):
        return np.full_like(np.asarray(x, dtype=np.float64), self._pmf)

    def quantile(self, u):
        return np.rint(np.asarray(u) * 100).astype(np.int64)


def test_binomial_pmf_exact_small_case():
    dist = BinomialDistribution(10, 0.5)
    assert dist.pmf(5) == pytest.approx(252 / 1024, abs=1e-15)
    assert dist.pmf(0) == pytest.approx(1 / 1024, abs=1e-15)
    total = sum(dist.pmf(x) for x in range(11))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_binomial_cdf_monotone_and_complete():
    dist = BinomialDistribution(30, 0.2)
    cdf = dist.cdf(np.arange(31))
    assert (np.diff(cdf) >= 0).all()
    assert cdf[-1] == pytest.approx(1.0, abs=1e-12)


def test_binomial_quantile_median_symmetry():
    assert BinomialDistribution(10, 0.5).quantile(0.5) == 5


def test_quantile_is_left_inverse_of_cdf_on_support():
    dist = BinomialDistribution(10, 0.3)
    for k in range(11):
        assert dist.quantile(dist.cdf(k)) == k


def test_quantile_domain_errors():
    dist = BinomialDistribution(10, 0.3)
    for bad in (0.0, -0.1, 1.0000001):
        with pytest.raises(ValueError, match="quantile argument"):
            dist.quantile(bad)
    assert dist.quantile(1.0) == 10


def test_binomial_point_masses():
    lo = BinomialDistribution(7, 0.0)
    hi = BinomialDistribution(7, 1.0)
    assert lo.pmf(0) == 1.0 and lo.quantile(0.5) == 0
    assert hi.pmf(7) == 1.0 and hi.quantile(0.5) == 7


@given(st.floats(min_value=1e-9, max_value=1.0), st.integers(5, 60),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=150, deadline=None)
def test_quantile_bracket_property(u, trials, p):
    """F(q-1) < u <= F(q) for the minimal-atom quantile convention."""
    dist = BinomialDistribution(trials, p)
    q = dist.quantile(u)
    assert u <= dist.cdf(q) + 1e-15
    if q > 0:
        assert dist.cdf(q - 1) < u + 1e-15


def test_uniform_reference_distribution():
    u = UniformDistribution()
    assert u.pmf(0.3) == 1.0
    assert u.quantile(0.42) == pytest.approx(0.42)
    assert u.cdf(0.7) == pytest.approx(0.7)


def test_order_stat_sigma_uniform_single_sample():
    # one U[0,1] draw: sd = sqrt(1/12)
    assert order_stat_sigma(1, 1, UniformDistribution()) == pytest.approx(
        math.sqrt(1 / 12), abs=1e-12
    )


def test_order_stat_sigma_uniform_median_of_three():
    val = order_stat_sigma(2, 3, UniformDistribution())
    assert val == pytest.approx(0.5 / math.sqrt(5), abs=1e-12)
    rng = np.random.default_rng(1234)
    sims = np.median(rng.random((200_000, 3)), axis=1)
    assert val == pytest.approx(sims.std(ddof=1), rel=0.02)


def test_order_stat_sigma_binomial_midrange_matches_simulation():
    dist = BinomialDistribution(99, 0.1)
    approx = order_stat_sigma(10, 20, dist)
    rng = np.random.default_rng(77)
    draws = rng.binomial(99, 0.1, size=(100_000, 20))
    draws.sort(axis=1)
    empirical = draws[:, 9].std(ddof=1)
    assert approx == pytest.approx(empirical, rel=0.10)


def test_order_stat_sigma_guards():
    with pytest.raises(ValueError, match="pmf vanishes at quantile"):
        order_stat_sigma(1, 3, StubDist(0.0))
    with pytest.raises(ValueError):
        order_stat_sigma(0, 3, UniformDistribution())
    with pytest.raises(ValueError):
        order_stat_sigma(4, 3, UniformDistribution())


def test_nhc_k_approx_term_symmetry_at_half():
    """Symmetric degree law: the summand at i mirrors the one at k+1-i."""
    for trials, k in ((100, 10), (99, 20), (50, 7)):
        dist = BinomialDistribution(trials, 0.5)
        for i in range(1, k + 1):
            j = k + 1 - i
            ti = math.sqrt(i * (k - i + 1)) / dist.pmf(dist.quantile(i / (k + 1)))
            tj = math.sqrt(j * (k - j + 1)) / dist.pmf(dist.quantile(j / (k + 1)))
            assert ti == pytest.approx(tj, rel=1e-12)


def test_nhc_k_approx_against_monte_carlo():
    from hiercomp.complexity import complexity_report
    from hiercomp.generators import child_seed, gen_er

    vals = []
    for s in range(20):
        g = gen_er(2000, 0.005, child_seed(0, 100, 1, s))
        rep = complexity_report(g)
        if 10 in rep.per_degree:
            vals.append(rep.per_degree[10][1])
    mc = float(np.mean(vals))
    assert nhc_global_approx(2000, 0.005).per_degree[10] == pytest.approx(mc, rel=0.25)


def test_nhc_k_approx_doubling_scaling():
    """Denominator n(n-1) quadruples; the summed 1/pmf terms grow ~sqrt(2)
    as the degree law widens, leaving a net ratio near 2*sqrt(2)."""
    for n, p, k in ((2000, 0.005, 10), (4000, 0.003, 12), (1000, 0.01, 10)):
        ratio = nhc_global_approx(n, p).per_degree[k] / nhc_global_approx(2 * n, p).per_degree[k]
        assert 2.5 < ratio < 3.2


def test_global_approx_regression_pins():
    a = nhc_global_approx(2000, 0.005)
    assert a.global_value == pytest.approx(0.00146128362098288, rel=1e-12)
    assert (a.degree_low, a.degree_high) == (2, 22)
    assert a.dropped_terms == 0
    assert sorted(a.per_degree) == list(range(2, 23))
    assert a.to_rows()[0][0] == 2
    b = nhc_global_approx(500, 0.002)
    assert b.global_value == pytest.approx(0.009336588674617811, rel=1e-12)
    assert (b.degree_low, b.degree_high) == (1, 5)


def test_global_approx_degenerate_inputs():
    assert nhc_global_approx(1000, 0.0).global_value == 0.0
    assert nhc_global_approx(1000, 1.0).global_value == 0.0
    with pytest.raises(ValueError, match="degenerate degree range"):
        nhc_global_approx(3, 1e-9)
    with pytest.raises(ValueError, match="n must be"):
        nhc_global_approx(1, 0.1)


def test_global_approx_decreases_with_n():
    assert nhc_global_approx(20000, 0.01).global_value < nhc_global_approx(2000, 0.01).global_value


def test_minmax_quantile_switch_changes_bounds():
    x = nhc_global_approx(10, 0.3)
    y = nhc_global_approx(10, 0.3, minmax_quantile="1/(n+1)")
    assert (x.degree_low, x.degree_high) == (1, 4)
    assert (y.degree_low, y.degree_high) == (1, 5)
    with pytest.raises(ValueError, match="minmax_quantile"):
        nhc_global_approx(100, 0.1, minmax_quantile="bogus")


def test_dropped_term_counter_via_stub_distribution():
    class TinyTail(StubDist):
        def __init__(self):
            super().__init__(0.5)

        def pmf(self, x):
            arr = np.asarray(x, dtype=np.float64)
            return np.where(arr < 5, 1e-310, 0.5)

    # at k = 50 the quantiles of i/51 for i = 1, 2 are 2 and 4, where the pmf underflows
    assert theory._sigma_sum(50, TinyTail())[1] == 2


def test_corollary_bound_dominates_estimate():
    for n, p in ((10_000, 0.01), (10_000, 0.1)):
        assert corollary_bound(n, p) >= nhc_global_approx(n, p).global_value
        assert corollary_bound(n, p) > 0


def test_corollary_bound_decays_with_n():
    assert corollary_bound(10**6, 0.1) < corollary_bound(10**4, 0.1) / 10


def test_corollary_bound_validation():
    with pytest.raises(ValueError, match="p must lie"):
        corollary_bound(100, 0.0)
    with pytest.raises(ValueError, match="n must be"):
        corollary_bound(1, 0.5)

