"""Graph construction, neighbourhood access, and degree-class helpers."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from hiercomp import graph
from hiercomp.graph import (
    Graph,
    build_graph,
    complement_codes,
    component_count,
    degree_support_d2,
    from_codes,
    nds,
)

SIX_EDGES = [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4), (4, 5)]


def small_edge_sets():
    """Random edge lists over a handful of nodes, duplicates allowed."""
    pair = st.tuples(st.integers(0, 7), st.integers(0, 7))
    return st.lists(pair, min_size=1, max_size=24)


def test_build_graph_basic():
    g = build_graph(SIX_EDGES)
    assert (g.n, g.m) == (6, 6)
    assert g.degrees.tolist() == [1, 3, 2, 3, 2, 1]
    assert g.density == pytest.approx(6 / 15)


def test_build_graph_canonicalises_duplicates_and_orientation():
    messy = [(1, 0), (0, 1), (1, 0), (3, 2), (2, 3)]
    g = build_graph(messy)
    assert g.m == 2
    assert g.edge_array().tolist() == [[0, 1], [2, 3]]


def test_build_graph_drops_self_loops():
    g = build_graph([(0, 0), (0, 1), (2, 2), (1, 2)])
    assert g.m == 2
    assert g.degrees.tolist() == [1, 2, 1]


def test_build_graph_n_hint_keeps_isolated_nodes():
    g = build_graph([(0, 1)], n_hint=5)
    assert g.n == 5
    assert g.degrees.tolist() == [1, 1, 0, 0, 0]
    assert component_count(g) == 4


def test_build_graph_errors():
    with pytest.raises(ValueError, match="empty graph"):
        build_graph([])
    with pytest.raises(ValueError, match="non-negative"):
        build_graph([(-1, 2)])
    with pytest.raises(ValueError, match="out of range for n_hint"):
        build_graph([(0, 9)], n_hint=5)
    with pytest.raises(ValueError, match="pairs"):
        build_graph([(0, 1, 2)])


def test_neighbors_and_has_edge_match_oracle():
    g = build_graph(SIX_EDGES)
    adj = oracle.adjacency(6, SIX_EDGES)
    for i in range(6):
        assert sorted(g.neighbors(i).tolist()) == sorted(adj[i])
        for j in range(6):
            if i != j:
                assert g.has_edge(i, j) == (j in adj[i])
    with pytest.raises(ValueError, match="out of range"):
        g.neighbors(6)


def test_edge_array_round_trips():
    g = build_graph(SIX_EDGES)
    again = build_graph(g.edge_array())
    assert np.array_equal(again.edge_array(), g.edge_array())
    assert np.array_equal(again.degrees, g.degrees)


def test_from_codes_matches_build_graph():
    codes = np.array([0 * 4 + 1, 1 * 4 + 2, 1 * 4 + 3], dtype=np.int64)
    a = from_codes(4, codes)
    b = build_graph([(0, 1), (1, 2), (1, 3)])
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert a.indices.dtype == np.int64 and a.degrees.dtype == np.int64
    assert a.codes().tolist() == codes.tolist() == b.codes().tolist()
    empty = from_codes(3, np.empty(0, np.int64))
    assert (empty.m, empty.degrees.tolist(), empty.indptr.tolist()) == (0, [0, 0, 0], [0, 0, 0, 0])


@given(n=st.integers(1, 40), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       block=st.sampled_from([1, 7, 1 << 15]))
@settings(max_examples=60, deadline=None)
def test_complement_and_nth_pair_match_the_absent_pairs(n, p, seed, block):
    rng = np.random.default_rng(seed)
    pairs = [u * n + v for u in range(n) for v in range(u + 1, n)]
    present = sorted(c for c in pairs if rng.random() < p)
    absent = [c for c in pairs if c not in set(present)]
    codes = np.array(present, dtype=np.int64)
    with mock.patch.object(graph, "_BLOCK", block):
        listed = complement_codes(n, codes)
    assert listed.dtype == np.int64 and listed.tolist() == absent
    nth = np.arange(len(absent))
    assert graph._nth_non_edges(n, codes, nth).tolist() == absent


def test_graph_arrays_are_read_only():
    g = build_graph(SIX_EDGES)
    with pytest.raises(ValueError):
        g.degrees[0] = 5
    with pytest.raises(ValueError):
        g.indices[0] = 5


def test_nds_sorted_and_matches_oracle():
    g = build_graph(SIX_EDGES)
    adj = oracle.adjacency(6, SIX_EDGES)
    for i in range(6):
        got = nds(g, i).tolist()
        assert got == oracle.nds(adj, i)
        assert got == sorted(got)


def test_degree_support_d2_example():
    g = build_graph(SIX_EDGES)
    assert degree_support_d2(g).tolist() == [1, 2, 3]
    # a degree held by a single node is excluded
    star = build_graph([(0, 1), (0, 2), (0, 3)])
    assert degree_support_d2(star).tolist() == [1]


def test_component_count():
    assert component_count(build_graph(SIX_EDGES)) == 1
    two = build_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert component_count(two) == 2


@st.composite
def graphs_in_blocks(draw):
    """(n, edges) of a graph drawn as up to five blocks of random edges, its
    ids shuffled: several components, isolated nodes and n = 1 all occur."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    edges, base = [], 0
    for size in sizes:
        node = st.integers(base, base + size - 1)
        edges += draw(st.lists(st.tuples(node, node), max_size=2 * size))
        base += size
    ids = draw(st.permutations(range(base)))
    return base, [(ids[u], ids[v]) for u, v in edges]


@given(graphs_in_blocks())
@example((1, []))
@example((3, [(0, 0)]))
@settings(max_examples=300, deadline=None)
def test_component_count_matches_bfs(case):
    n, edges = case
    g = build_graph(np.array(edges, dtype=np.int64).reshape(-1, 2), n_hint=n)
    assert component_count(g) == oracle.component_count_naive(oracle.adjacency(n, edges))


@given(small_edge_sets())
@settings(max_examples=120, deadline=None)
def test_degree_sum_is_twice_edge_count(edges):
    try:
        g = build_graph(edges)
    except ValueError:
        return  # all entries were self-loops
    assert int(g.degrees.sum()) == 2 * g.m
    adj = oracle.adjacency(g.n, [tuple(e) for e in g.edge_array().tolist()])
    assert g.m == oracle.edge_count(adj)


@given(small_edge_sets())
@settings(max_examples=120, deadline=None)
def test_rows_are_strictly_ascending_and_match_oracle(edges):
    g = build_graph(edges)
    adj = oracle.adjacency(g.n, edges)
    for i in range(g.n):
        row = g.neighbors(i).tolist()
        assert all(a < b for a, b in zip(row, row[1:]))
        assert set(row) == adj[i]


@given(small_edge_sets())
@settings(max_examples=80, deadline=None)
def test_build_is_idempotent_under_duplication(edges):
    try:
        g1 = build_graph(edges)
    except ValueError:
        return
    g2 = build_graph(list(edges) + list(edges))
    assert np.array_equal(g1.edge_array(), g2.edge_array())


def test_graph_is_immutable_dataclass():
    g = build_graph(SIX_EDGES)
    with pytest.raises(AttributeError):
        g.n = 7
    assert isinstance(g, Graph)
