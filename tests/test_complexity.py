"""Complexity measures against the brute-force reference implementation."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from hiercomp import complexity
from hiercomp.complexity import complexity_report, nhc_alt_sqrtk, nhc_global
from hiercomp.generators import gen_er, gen_rhgg
from hiercomp.graph import build_graph, from_codes

SIX_EDGES = [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4), (4, 5)]

# Hand-worked values for the six-node example, frozen from the pure-python
# reference in oracle.py before the vectorised implementation was written.
SIX_R = 5 / 18
SIX_R_HAT = 5 / 27
SIX_PER_DEGREE_R = {1: 0.25, 2: 0.5, 3: 1 / 12}
SIX_PER_DEGREE_R_HAT = {1: 5 / 36, 2: 5 / 18, 3: 5 / 36}
SIX_SQRTK = 0.13849832553531116
SIX_SQRTK_SQRTM = 0.33925022779139025


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def class_sigmas(g):
    """``(k, class_size, sigma)`` per degree class, ascending k: the slices
    of the kernel's one array of column sds."""
    ks, ells, cols, starts = complexity._class_columns(g)
    return [(k, ell, cols[at + 1:at + 1 + k])
            for k, ell, at in zip(ks.tolist(), ells.tolist(), starts.tolist())]


def test_sixnode_frozen_values():
    g = build_graph(SIX_EDGES)
    rep = complexity_report(g)
    assert rep.global_unnormalised == pytest.approx(SIX_R, abs=1e-12)
    assert nhc_global(g) == pytest.approx(SIX_R_HAT, abs=1e-12)
    for k in (1, 2, 3):
        assert rep.per_degree[k][0] == pytest.approx(SIX_PER_DEGREE_R[k], abs=1e-12)
        assert rep.per_degree[k][1] == pytest.approx(SIX_PER_DEGREE_R_HAT[k], abs=1e-12)
    assert nhc_alt_sqrtk(g, sqrt_m=False) == pytest.approx(SIX_SQRTK, abs=1e-12)
    assert nhc_alt_sqrtk(g, sqrt_m=True) == pytest.approx(SIX_SQRTK_SQRTM, abs=1e-12)


def test_class_sigmas_sixnode():
    g = build_graph(SIX_EDGES)
    got = [(k, ell, sig.tolist()) for k, ell, sig in class_sigmas(g)]
    # class 3 holds nodes 1 then 3, with NDS rows [1, 2, 3] and [2, 2, 3]
    assert got == [(1, 2, [0.5]), (2, 2, [1.0, 0.0]), (3, 2, [0.5, 0.0, 0.0])]
    # a degree held by a single node is no class
    star = build_graph([(0, 1), (0, 2), (0, 3)])
    assert [k for k, _, _ in class_sigmas(star)] == [1]


def test_sixnode_exact_rational_cross_check():
    adj = oracle.adjacency(6, SIX_EDGES)
    assert oracle.r_hat_global_exact(adj) == pytest.approx(SIX_R_HAT, rel=1e-12)


def test_sixnode_report_fields():
    g = build_graph(SIX_EDGES)
    rep = complexity_report(g)
    assert (rep.node_count, rep.edge_count) == (6, 6)
    assert rep.density == pytest.approx(0.4)
    assert rep.component_count == 1
    assert rep.d2_size == 3
    assert sorted(rep.per_degree) == [1, 2, 3]
    for k, (rk, nk, ell) in rep.per_degree.items():
        assert rk == pytest.approx(SIX_PER_DEGREE_R[k], abs=1e-12)
        assert nk == pytest.approx(SIX_PER_DEGREE_R_HAT[k], abs=1e-12)
        assert ell == 2
    d = rep.to_dict()
    assert d["R"] == pytest.approx(SIX_R, abs=1e-12)
    assert d["R_hat"] == pytest.approx(SIX_R_HAT, abs=1e-12)
    assert d["per_degree"]["2"]["count"] == 2


@pytest.mark.parametrize("n", [4, 9, 30])
def test_regular_graphs_are_exactly_zero(n):
    for edges in (cycle_edges(n), complete_edges(n)):
        g = build_graph(edges)
        assert nhc_global(g) == 0.0
        rep = complexity_report(g)
        assert rep.global_unnormalised == 0.0
        assert rep.global_normalised == 0.0
        assert all(rk == nk == 0.0 for rk, nk, _ in rep.per_degree.values())


def test_complete_graph_normalisation_short_circuit():
    g = build_graph(complete_edges(5))
    assert g.density == 1.0
    assert nhc_global(g) == 0.0
    assert nhc_alt_sqrtk(g) == 0.0
    rep = complexity_report(g)
    assert rep.per_degree[4] == (0.0, 0.0, 5)


def test_empty_graph_measures_are_zero():
    g = build_graph([], n_hint=5)
    assert g.m == 0
    assert nhc_global(g) == 0.0
    rep = complexity_report(g)
    assert rep.global_unnormalised == 0.0
    assert rep.d2_size == 0 and rep.per_degree == {}


@pytest.mark.parametrize("shape", [(2, 1), (2, 7), (3, 40), (57, 12), (400, 3)])
@pytest.mark.parametrize("ddof", [0, 1])
def test_column_sds_are_numpys_std_to_the_bit(shape, ddof):
    rows = np.random.default_rng(shape[0]).integers(1, 300, size=shape)
    rows.sort(axis=1)
    x = rows.astype(np.float64)
    expected = x.std(axis=0, ddof=ddof)
    sds = np.empty(shape[1])
    # _centred_squares is numpy's _var before its division by ell - ddof,
    # whichever ddof; the kernel divides by ell (ddof 0) for every class
    complexity._centred_squares(x.copy(), sds)
    np.true_divide(sds, np.full(shape[1], max(shape[0] - ddof, 0), np.float64), out=sds)
    assert np.sqrt(sds).tobytes() == expected.tobytes()


@given(st.integers(1, 60), st.floats(0.0, 1.0), st.integers(0, 2**32), st.integers(0, 12))
@example(30, 0.6, 1, 0)  # classes of k >= 9
@example(5, 0.0, 0, 12)  # a star: one k = 1 class of 12 rows
@example(20, 0.3, 2, 10)  # a k = 1 class of >= 10 rows beside the er classes
@settings(max_examples=120, deadline=None)
def test_class_table_matches_naive_to_the_bit(n, p, seed, leaves):
    """The class table, and every class's sigmas, are those of ``rows.std``
    per class, to the bit; ``leaves`` pendant nodes on node 0 make a large
    k = 1 class."""
    big = n + leaves
    pendant = np.array([(0, n + i) for i in range(leaves)], np.int64).reshape(-1, 2)
    edges = np.vstack((gen_er(n, p, seed).edge_array(), pendant))
    g = from_codes(big, np.sort(edges[:, 0] * big + edges[:, 1]))
    naive = oracle.class_sigmas_naive(big, edges.tolist())
    got = {k: sig for k, _, sig in class_sigmas(g)}
    assert list(got) == list(naive)
    assert all(got[k].tobytes() == naive[k].tobytes() for k in naive)
    assert complexity._class_table(g) == oracle.class_table_naive(big, edges.tolist())


# a heterogeneous geometric graph, and an er graph whose k = 1 class has many rows
MEMO_GRAPHS = (gen_rhgg(300, 0.05, seed=31, lognormal_sigma=0.5), gen_er(400, 0.004, seed=32))


def _measures(g):
    return {
        "nhc": lambda: nhc_global(g),
        "sqrtk": lambda: nhc_alt_sqrtk(g, sqrt_m=False),
        "sqrtk-sqrtm": lambda: nhc_alt_sqrtk(g, sqrt_m=True),
        "hc": lambda: complexity_report(g).global_unnormalised,
        "per-k": lambda: [(rk, nk) for rk, nk, _ in complexity_report(g).per_degree.values()],
        "report": lambda: complexity_report(g).to_dict(),
    }


@pytest.mark.parametrize("graph", [0, 1])
def test_measures_in_any_order_give_the_values_of_a_fresh_graph(graph):
    # a fresh Graph object over the same arrays starts with no class table
    base = MEMO_GRAPHS[graph]
    fresh = {name: _measures(dataclasses.replace(base))[name]() for name in _measures(base)}
    for order in itertools.islice(itertools.permutations(fresh), 0, None, 37):
        g = dataclasses.replace(base)
        calls = _measures(g)
        assert {name: calls[name]() for name in order} == fresh, order


def test_class_table_dies_with_its_graph():
    gc.collect()
    before = len(complexity._TABLES)
    g = dataclasses.replace(MEMO_GRAPHS[0])
    nhc_global(g)
    table = complexity._TABLES[g]
    complexity_report(g)
    assert complexity._TABLES[g] is table  # built once, read by both
    assert len(complexity._TABLES) == before + 1
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
    assert len(complexity._TABLES) == before


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_random_graphs_match_oracle(p):
    for s in range(10):
        g = gen_er(8, p, seed=100 * s + int(p * 10))
        if g.m == 0:
            continue
        adj = oracle.adjacency(g.n, [tuple(e) for e in g.edge_array().tolist()])
        rep = complexity_report(g)
        assert rep.global_unnormalised == pytest.approx(oracle.r_global(adj), rel=1e-12, abs=1e-15)
        assert rep.global_normalised == pytest.approx(oracle.r_hat_global(adj), rel=1e-12, abs=1e-15)
        for variant, sqrt_m in ((False, False), (True, True)):
            assert nhc_alt_sqrtk(g, sqrt_m=sqrt_m) == pytest.approx(
                oracle.r_hat_sqrtk_global(adj, sqrt_m=sqrt_m), rel=1e-12, abs=1e-15
            )
        for k, (rk, nk, _) in rep.per_degree.items():
            assert rk == pytest.approx(oracle.r_k(adj, k), rel=1e-12, abs=1e-15)
            assert nk == pytest.approx(oracle.r_hat_k(adj, k), rel=1e-12, abs=1e-15)


@given(st.permutations(list(range(6))))
@settings(max_examples=60, deadline=None)
def test_relabelling_invariance(perm):
    relabelled = [(perm[a], perm[b]) for a, b in SIX_EDGES]
    g = build_graph(relabelled)
    assert complexity_report(g).global_unnormalised == pytest.approx(SIX_R, abs=1e-12)
    assert nhc_global(g) == pytest.approx(SIX_R_HAT, abs=1e-12)


@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=18),
    st.permutations(list(range(7))),
)
@settings(max_examples=60, deadline=None)
def test_relabelling_invariance_random_graphs(edges, perm):
    try:
        g1 = build_graph(edges, n_hint=7)
    except ValueError:
        return
    g2 = build_graph([(perm[a], perm[b]) for a, b in edges], n_hint=7)
    assert nhc_global(g1) == pytest.approx(nhc_global(g2), rel=1e-9, abs=1e-12)
    assert complexity_report(g1).global_unnormalised == pytest.approx(
        complexity_report(g2).global_unnormalised, rel=1e-9, abs=1e-12)
