"""Graph construction, neighbourhood access, and degree-class helpers."""

from __future__ import annotations

from dataclasses import replace
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
)

SIX_EDGES = [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4), (4, 5)]


def row(g, i):
    """Node i's CSR row: its neighbour ids, as stored."""
    return g.indices[g.indptr[i]:g.indptr[i + 1]].tolist()


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


def assert_spliced(g, new):
    """_splice(g, new) is the graph from_codes builds from the union, array
    for array and dtype for dtype, and keeps the union codes read-only."""
    h = graph._splice(g, new)
    union = np.sort(np.concatenate((g.codes(), new)))
    want = from_codes(g.n, union)
    for name in ("indptr", "indices", "degrees"):
        got, ref = getattr(h, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
    assert (h.n, h.m, h.labels) == (want.n, want.m, g.labels)
    codes = h.codes()
    assert codes is h.codes()  # kept, not recomputed
    assert codes.dtype == np.int64 and np.array_equal(codes, want.codes())
    with pytest.raises(ValueError):
        codes[:1] = 0
    return h


@given(n=st.integers(2, 30), p=st.floats(0.0, 1.0), share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1), labelled=st.booleans())
@example(n=2, p=0.0, share=1.0, seed=0, labelled=False)  # the one pair of n = 2
@example(n=6, p=0.9, share=1.0, seed=1, labelled=True)  # fill every missing pair
@example(n=30, p=0.0, share=0.01, seed=2, labelled=False)  # mostly isolated nodes
@settings(max_examples=150, deadline=None)
def test_splice_matches_from_codes(n, p, share, seed, labelled):
    rng = np.random.default_rng(seed)
    every = complement_codes(n, np.empty(0, np.int64))
    g = from_codes(n, every[rng.random(every.size) < p])
    if labelled:
        g = replace(g, labels=tuple(f"v{i}" for i in range(n)))
    free = complement_codes(n, g.codes())
    new = np.sort(rng.choice(free, size=round(share * free.size), replace=False))
    h = assert_spliced(g, new)
    # a spliced graph splices again, from its kept codes
    assert_spliced(h, complement_codes(n, h.codes())[: 2])


def test_splice_at_row_starts_row_ends_and_empty_rows():
    # 0 and 5 isolated, 1-2-3-4 a path: (0, 1) opens row 0 and goes first in
    # row 1; (1, 4) goes last in row 1 and first in row 4; (2, 5) goes last
    # in row 2 and opens row 5; (4, 5) goes last in rows 4 and 5
    g = build_graph([(1, 2), (2, 3), (3, 4)], n_hint=6)
    h = assert_spliced(g, np.array([0 * 6 + 1, 1 * 6 + 4, 2 * 6 + 5, 4 * 6 + 5]))
    assert [row(h, i) for i in range(6)] == [
        [1], [0, 2, 4], [1, 3, 5], [2, 4], [1, 3, 5], [2, 4]]
    assert_spliced(g, np.empty(0, np.int64))


def test_spliced_codes_memo_is_read_only_and_plain_graphs_keep_none():
    g = build_graph(SIX_EDGES)
    assert g.codes() is not g.codes() and g.codes().flags.writeable
    h = graph._splice(g, np.array([0 * 6 + 5], dtype=np.int64))
    with pytest.raises(ValueError):
        h.codes()[0] += 1
    assert h.codes().tolist() == sorted(g.codes().tolist() + [5])


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
        nbrs = row(g, i)
        assert all(a < b for a, b in zip(nbrs, nbrs[1:]))
        assert set(nbrs) == adj[i]


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
