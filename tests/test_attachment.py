"""Attachment-weight maps, edge addition, and the density sweep driver."""

from __future__ import annotations

import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from hiercomp import graph
from hiercomp.attachment import (
    DEFAULT_FRACTIONS,
    MECHANISMS,
    NonEdgeWeights,
    _SharedPairs,
    add_edges,
    density_sweep,
    edge_weights,
    non_edge_count,
)
from hiercomp.complexity import nhc_global
from hiercomp.generators import child_seed, gen_er, gen_rhgg
from hiercomp.graph import build_graph, complement_codes, from_codes
from hiercomp.workbench import read_edgelist

P3 = [(0, 1), (1, 2)]
C4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
STAR5 = [(0, i) for i in range(1, 5)]
SIX = [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4), (4, 5)]
TWO_DISJOINT = [(0, 1), (2, 3)]


def weight_dict(wmap: NonEdgeWeights, n: int) -> dict[tuple[int, int], float]:
    return {
        divmod(code, n): w for code, w in zip(wmap.codes.tolist(), wmap.weights.tolist())
    }


def graphs_for_cross_check():
    yield build_graph(P3)
    yield build_graph(C4)
    yield build_graph(STAR5)
    yield build_graph(SIX)
    yield build_graph([(0, 1)], n_hint=4)  # pair (2, 3) of isolated nodes weighs 0
    rng = np.random.default_rng(42)
    for _ in range(6):
        n = 6
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
        if edges:
            yield build_graph(edges, n_hint=n)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_edge_weights_match_definition(mechanism):
    for g in graphs_for_cross_check():
        expected = oracle.nonedge_weights(
            oracle.adjacency(g.n, g.edge_array().tolist()), mechanism
        )
        wmap = edge_weights(g, mechanism)
        if wmap.uniform_fallback:
            assert all(v == 0.0 for v in expected.values())
            continue
        assert (wmap.weights > 0).all()
        assert (np.diff(wmap.codes) > 0).all()
        got = weight_dict(wmap, g.n)
        for pair, w in got.items():
            assert w == pytest.approx(expected[pair], abs=1e-12)
        missing = set(expected) - set(got)
        assert all(expected[p] == 0.0 for p in missing)


def test_random_weights_are_uniform():
    g = build_graph(C4)
    wmap = edge_weights(g, "random")
    assert (wmap.weights == 1.0).all()
    assert wmap.codes.size == non_edge_count(g) == 2


def test_no_overlap_graphs_fall_back_to_uniform(caplog):
    g = build_graph(TWO_DISJOINT)
    for mechanism in ("similarity", "combined"):
        with caplog.at_level(logging.WARNING, logger="hiercomp.attachment"):
            wmap = edge_weights(g, mechanism)
        assert wmap.uniform_fallback
        assert wmap.codes.size == non_edge_count(g) == 4
        assert (wmap.weights == 1.0).all()
    assert "falling back to uniform attachment" in caplog.text


def test_enumeration_cap_above_8192_nodes():
    g = gen_er(9000, 0.0003, child_seed(0, 900))
    for mechanism in ("random", "hierarchical"):
        with pytest.raises(ValueError, match="capped at n=8192"):
            edge_weights(g, mechanism)
    # only the 17998 pairs touching node 0 or 1 are listed
    wmap = edge_weights(build_graph([(0, 1)], n_hint=9001), "hierarchical")
    assert wmap.codes.size == 17998 and (wmap.weights == 1.0).all()


def test_add_edges_keeps_labels(tmp_path):
    path = tmp_path / "labelled.txt"
    path.write_text("a b\nb c\nc d\nx y\n")
    g = read_edgelist(path)
    assert g.labels is not None
    for mechanism in MECHANISMS:
        assert add_edges(g, mechanism, 2, seed=0).labels == g.labels


def test_add_edges_counts_and_determinism():
    g = build_graph(SIX)
    for mechanism in MECHANISMS:
        h1 = add_edges(g, mechanism, 3, seed=11)
        h2 = add_edges(g, mechanism, 3, seed=11)
        h3 = add_edges(g, mechanism, 3, seed=12)
        assert h1.m == g.m + 3
        assert np.array_equal(h1.edge_array(), h2.edge_array())
        assert h1.n == g.n
        # the original edges are all retained
        old = set(map(tuple, g.edge_array().tolist()))
        assert old <= set(map(tuple, h1.edge_array().tolist()))
        del h3  # different seed may or may not coincide; only determinism is pinned


def test_add_edges_validation():
    g = build_graph(C4)
    with pytest.raises(ValueError, match="only 2 non-edges remain"):
        add_edges(g, "random", 3, seed=0)
    with pytest.raises(ValueError, match="unknown mechanism"):
        add_edges(g, "preferential", 1, seed=0)
    with pytest.raises(ValueError, match="non-negative"):
        add_edges(g, "random", -1, seed=0)
    assert add_edges(g, "random", 0, seed=0) is g


def test_add_edges_tops_up_when_candidates_run_out(caplog):
    # P3 plus an isolated node: similarity weights live on one pair only,
    # so a 3-edge batch must widen to the full non-edge set and top up.
    g = build_graph(P3, n_hint=4)
    with caplog.at_level(logging.WARNING, logger="hiercomp.attachment"):
        h = add_edges(g, "similarity", 3, seed=5)
    assert h.m == g.m + 3
    assert "topping up uniformly" in caplog.text
    # the lone positive-weight candidate is always included
    assert (0, 2) in set(map(tuple, h.edge_array().tolist()))


def test_add_edges_widens_candidate_set_when_needed():
    g = build_graph(P3, n_hint=4)
    h = add_edges(g, "combined", 2, seed=9)
    assert h.m == 4
    codes = h.edge_array()[:, 0] * h.n + h.edge_array()[:, 1]
    assert len(np.unique(codes)) == h.m


def reference_draw(g, mechanism: str, count: int, seed: int) -> np.ndarray:
    """Ascending edge codes of g plus ``count`` new edges, from the oracles:
    uniform picks from the listed complement for random, the per-pair
    rejection loop for hierarchical (or every weighted pair and a uniform
    top-up when the batch needs them all), and draw_naive's keys for
    similarity/combined."""
    if mechanism in ("similarity", "combined"):
        return oracle.draw_naive(g, mechanism, count, seed)
    rng = np.random.default_rng(seed)
    adj = oracle.adjacency(g.n, g.edge_array().tolist())
    weights = oracle.nonedge_weights(adj, mechanism)
    positive = np.array(sorted(u * g.n + v for (u, v), w in weights.items() if w > 0),
                        dtype=np.int64)
    if mechanism == "random" or positive.size == 0:
        new = oracle.uniform_naive(g, np.empty(0, np.int64), count, rng)
    elif count < positive.size:
        degrees = np.array([len(adj[i]) for i in range(g.n)])
        new = oracle.rejection_sample(g, count, rng, node_p=degrees / degrees.sum())
    else:
        extra = oracle.uniform_naive(g, positive, count - positive.size, rng)
        new = np.concatenate((positive, extra))
    return np.sort(np.concatenate((g.codes(), new)))


@given(
    active=st.integers(2, 120),
    isolated=st.integers(0, 300),
    p=st.floats(0.0, 0.5),
    share=st.floats(0.0, 1.0),
    mechanism=st.sampled_from(MECHANISMS),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([64, 1 << 15]),
)
@settings(max_examples=80, deadline=None)
def test_add_edges_matches_listed_draw(active, isolated, p, share, mechanism, seed, block):
    """Each mechanism's draw gives exactly the oracle's edges, across isolated
    nodes, uniform fallbacks, top-ups and counts up to every non-edge, with
    the complement listed in small or large row blocks."""
    g = build_graph(gen_er(active, p, seed).edge_array(), n_hint=active + isolated)
    assume(non_edge_count(g) > 0)
    count = max(1, round(share * non_edge_count(g)))
    with mock.patch.object(graph, "_BLOCK", block):
        h = add_edges(g, mechanism, count, seed)
    assert np.array_equal(h.codes(), reference_draw(g, mechanism, count, seed))


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_first_pick_frequencies_match_weights(mechanism):
    """With count = 1 a mechanism picks each non-edge with probability
    weight / total weight (5 binomial sds), and never a zero-weight pair."""
    g = build_graph([(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)], n_hint=7)  # 5, 6 isolated
    weights = oracle.nonedge_weights(oracle.adjacency(g.n, g.edge_array().tolist()), mechanism)
    total = sum(weights.values())
    trials = 1500
    picks = {pair: 0 for pair in weights}
    old = set(g.codes().tolist())
    for seed in range(trials):
        (code,) = set(add_edges(g, mechanism, 1, seed).codes().tolist()) - old
        picks[divmod(code, g.n)] += 1
    for pair, w in weights.items():
        q = w / total
        assert abs(picks[pair] - trials * q) <= 5 * np.sqrt(trials * q * (1 - q)), (pair, picks)


def test_non_edge_blocks_cover_every_non_edge_in_order():
    edges = {(0, 5), (1, 2), (3, 299), (298, 299), (150, 151)}
    g = build_graph(sorted(edges), n_hint=300)
    with mock.patch.object(graph, "_BLOCK", 100):
        blocks = list(graph._non_edge_blocks(g.n, g.codes()))
    assert len(blocks) > 200
    listed = np.concatenate(blocks)
    expected = [i * 300 + j for i in range(300) for j in range(i + 1, 300)
                if (i, j) not in edges]
    assert listed.tolist() == expected


def test_hierarchical_draw_has_no_draw_cap():
    # K1000 plus one isolated node: the 999 new edges are 999 of the 1000
    # pairs at the isolated node, about 7.5M draws in all
    k = 1000
    g = build_graph([(i, j) for i in range(k) for j in range(i + 1, k)], n_hint=k + 1)
    h = add_edges(g, "hierarchical", k - 1, seed=0)
    assert h.degrees[k] == k - 1 and h.m == g.m + k - 1


def test_large_graph_rejection_path():
    g = gen_er(9000, 0.0003, child_seed(0, 900))
    for mechanism in ("random", "hierarchical"):
        h = add_edges(g, mechanism, 40, seed=3)
        h2 = add_edges(g, mechanism, 40, seed=3)
        assert h.m == g.m + 40
        assert np.array_equal(h.edge_array(), h2.edge_array())
        codes = h.edge_array()[:, 0].astype(np.int64) * h.n + h.edge_array()[:, 1]
        assert len(np.unique(codes)) == h.m


def test_large_empty_graph_hierarchical_degrades_to_uniform(caplog):
    g = build_graph([], n_hint=9000)
    with caplog.at_level(logging.WARNING, logger="hiercomp.attachment"):
        h = add_edges(g, "hierarchical", 5, seed=1)
    assert h.m == 5
    assert "all hierarchical weights zero" in caplog.text


def test_large_graph_shared_neighbour_mechanisms_top_up(caplog):
    # above the enumeration limit: one shared-neighbour candidate for 3 edges
    g = build_graph(P3, n_hint=9001)
    for mechanism in ("similarity", "combined"):
        with caplog.at_level(logging.WARNING, logger="hiercomp.attachment"):
            h = add_edges(g, mechanism, 3, seed=5)
        assert h.m == g.m + 3
        assert 0 * 9001 + 2 in h.codes()
        assert np.array_equal(h.codes(), add_edges(g, mechanism, 3, seed=5).codes())
    assert "topping up uniformly" in caplog.text


def test_large_graph_without_shared_neighbours_falls_back_to_uniform(caplog):
    g = build_graph(TWO_DISJOINT, n_hint=9001)
    for mechanism in ("similarity", "combined"):
        with caplog.at_level(logging.WARNING, logger="hiercomp.attachment"):
            h = add_edges(g, mechanism, 5, seed=1)
        assert h.m == g.m + 5
    assert "all similarity weights zero" in caplog.text
    assert "all combined weights zero" in caplog.text


def test_large_graph_hierarchical_takes_every_weighted_pair_then_tops_up(caplog):
    # K2 plus 8999 isolated nodes: only 17998 non-edges have positive weight
    g = build_graph([(0, 1)], n_hint=9001)
    with caplog.at_level(logging.WARNING, logger="hiercomp.attachment"):
        h = add_edges(g, "hierarchical", 18000, seed=2)
    assert h.m == g.m + 18000
    assert h.degrees[0] == h.degrees[1] == 9000
    assert int(h.degrees[2:].sum()) == 2 * 8999 + 4  # 2 top-up edges among the isolated
    assert "only 17998 positive-weight candidates" in caplog.text


def test_density_sweep_baseline_and_targets():
    g = gen_er(200, 0.05, child_seed(0, 777))
    fractions = (0.0, 0.01, 0.02, 0.05)
    steps = density_sweep(g, "hierarchical", fractions, seed=4)
    assert isinstance(steps, tuple)
    assert [s.fraction for s in steps] == list(fractions)
    assert steps[0].edge_count == g.m
    assert steps[0].value == pytest.approx(nhc_global(g), abs=0.0)
    for s in steps:
        assert s.edge_count == int(round(g.m * (1 + s.fraction)))


def test_density_sweep_deterministic():
    g = gen_er(150, 0.06, child_seed(0, 778))
    a = density_sweep(g, "combined", (0.0, 0.01, 0.02), seed=6)
    b = density_sweep(g, "combined", (0.0, 0.01, 0.02), seed=6)
    assert a == b


def test_default_fraction_grid():
    assert len(DEFAULT_FRACTIONS) == 21
    assert DEFAULT_FRACTIONS[0] == 0.0
    assert DEFAULT_FRACTIONS[-1] == pytest.approx(0.02)


def test_density_sweep_validation():
    g = build_graph(SIX)
    with pytest.raises(ValueError, match="non-empty"):
        density_sweep(g, "random", ())
    with pytest.raises(ValueError, match="non-decreasing"):
        density_sweep(g, "random", (0.0, 0.02, 0.01))
    with pytest.raises(ValueError, match="non-negative"):
        density_sweep(g, "random", (-0.1, 0.0))
    with pytest.raises(ValueError, match="unknown mechanism 'bogus'"):
        density_sweep(g, "bogus", (0.0,))


# --------------------------------------------------------------------------
# shared-neighbour pairs carried across sweep steps


def assert_rebuilt(pairs, h):
    """The carried codes and counts are the ones rebuilt from h's A @ A."""
    rebuilt = _SharedPairs(h)
    for got, want in ((pairs.codes, rebuilt.codes), (pairs.counts, rebuilt.counts)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def grow_and_check(g, new_codes, pairs):
    """Grow ``pairs`` of g to g plus ``new_codes``; assert that the carried
    codes and counts are the rebuilt ones, and on small graphs that the
    weights derived from them are the oracle's.  Returns the grown graph."""
    h = from_codes(g.n, np.sort(np.concatenate((g.codes(), new_codes))))
    pairs.grow(g, new_codes, h.codes())
    assert_rebuilt(pairs, h)
    if h.n <= 40:
        adj = oracle.adjacency(h.n, h.edge_array().tolist())
        positive = {pair for pair, w in oracle.nonedge_weights(adj, "combined").items() if w > 0}
        assert {divmod(c, h.n) for c in pairs.codes.tolist()} == positive
        for mechanism in ("similarity", "combined"):
            expected = oracle.nonedge_weights(adj, mechanism)
            for code, w in zip(pairs.codes.tolist(), pairs.weights(h, mechanism).tolist()):
                assert w == pytest.approx(expected[divmod(code, h.n)], abs=1e-12)
    return h


@given(
    n=st.integers(2, 70),
    p=st.floats(0.0, 0.4),
    batches=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_carried_shared_pairs_match_rebuild(n, p, batches, seed):
    """After each random batch of new edges, up to a third of the open pairs
    and sharing endpoints freely, the carried codes and counts are the ones
    rebuilt from A @ A."""
    g = gen_er(n, p, seed)
    pairs = _SharedPairs(g)
    rng = np.random.default_rng(seed)
    for share in batches:
        free = complement_codes(n, g.codes())
        g = grow_and_check(g, rng.choice(free, size=round(share * free.size / 3), replace=False),
                           pairs)


def test_carried_pairs_two_new_edges_sharing_an_endpoint():
    # 0-1 and 3-4 gain 1-2 and 2-3: paths 0-1-2, 1-2-3 (both new), 2-3-4
    g = build_graph([(0, 1), (3, 4)], n_hint=5)
    pairs = _SharedPairs(g)
    grow_and_check(g, np.array([1 * 5 + 2, 2 * 5 + 3]), pairs)
    assert [divmod(c, 5) for c in pairs.codes.tolist()] == [(0, 2), (1, 3), (2, 4)]
    assert pairs.counts.tolist() == [1.0, 1.0, 1.0]


def test_carried_pairs_drop_new_edges_and_old_edges():
    # triangle closed by new edges, and a new edge between carried pairs
    g = build_graph([(0, 1), (1, 2), (2, 3)], n_hint=4)
    pairs = _SharedPairs(g)
    grow_and_check(g, np.array([0 * 4 + 2, 1 * 4 + 3]), pairs)
    assert [divmod(c, 4) for c in pairs.codes.tolist()] == [(0, 3)]
    assert pairs.counts.tolist() == [2.0]


def test_carried_pairs_after_a_top_up():
    # path30 padded to 1000 nodes: 28 candidates for 100 edges, so 72 uniform
    # top-up edges land outside the carried set
    g = build_graph([(i, i + 1) for i in range(29)], n_hint=1000)
    pairs = _SharedPairs(g)
    assert pairs.codes.size == 28
    h = add_edges(g, "similarity", 100, 7, pairs=pairs)
    assert np.array_equal(h.codes(), add_edges(g, "similarity", 100, 7).codes())
    assert_rebuilt(pairs, h)


def test_carried_pairs_after_the_uniform_fallback(caplog):
    # a perfect matching: no pair shares a neighbour, so the step is uniform
    g = build_graph([(2 * i, 2 * i + 1) for i in range(15)], n_hint=30)
    pairs = _SharedPairs(g)
    assert pairs.codes.size == 0
    with caplog.at_level(logging.WARNING, logger="hiercomp.attachment"):
        h = add_edges(g, "combined", 12, 3, pairs=pairs)
    assert "falling back to uniform attachment" in caplog.text
    assert_rebuilt(pairs, h)


def test_carried_pairs_step_of_zero_edges():
    g = gen_er(30, 0.1, 5)
    pairs = _SharedPairs(g)
    codes, counts = pairs.codes, pairs.counts
    grow_and_check(g, np.empty(0, np.int64), pairs)
    assert np.array_equal(pairs.codes, codes) and np.array_equal(pairs.counts, counts)


def test_a_sweep_builds_its_base_pairs_once(monkeypatch):
    """A similarity or combined sweep builds its base's pairs once, not per
    step, and a second sweep of the same base builds its own; random and
    hierarchical sweeps build none."""
    g = gen_rhgg(200, 0.03, 4)
    builds = []
    build = _SharedPairs._build
    monkeypatch.setattr(_SharedPairs, "_build", staticmethod(lambda h: builds.append(h) or build(h)))
    for mechanism in ("similarity", "combined", "random", "hierarchical"):
        builds.clear()
        steps = density_sweep(g, mechanism, (0.0, 0.1, 0.2), seed=1)
        assert steps[0].edge_count < steps[1].edge_count < steps[2].edge_count
        shared = mechanism in ("similarity", "combined")
        assert [h is g for h in builds] == ([True] if shared else []), mechanism


def per_step_sweep(g, mechanism, fractions, seed):
    """density_sweep's steps and seeds, every step through plain add_edges."""
    step_seeds = np.random.default_rng(seed).integers(0, 2**63, size=len(fractions))
    cur, out = g, []
    for f, step_seed in zip(fractions, step_seeds):
        need = int(round(g.m * (1.0 + f))) - cur.m
        if need > 0:
            cur = add_edges(cur, mechanism, need, int(step_seed))
        out.append((f, cur.m, nhc_global(cur)))
    return out


def rebuilt_sweep(g, mechanism, fractions, seed):
    """per_step_sweep with every step's graph rebuilt by from_codes from its
    codes, so that neither the draws nor the measure see a spliced graph."""
    step_seeds = np.random.default_rng(seed).integers(0, 2**63, size=len(fractions))
    cur, out = g, []
    for f, step_seed in zip(fractions, step_seeds):
        need = int(round(g.m * (1.0 + f))) - cur.m
        if need > 0:
            codes = np.array(add_edges(cur, mechanism, need, int(step_seed)).codes())
            cur = from_codes(g.n, codes)
        out.append((f, cur.m, nhc_global(cur)))
    return out


@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("case", ["rhgg", "path30pad1000", "matching", "repeated"])
def test_density_sweep_matches_per_step_add_edges(mechanism, case):
    """The sweep that carries the pairs and splices each step's edges gives
    the trace of per-step add_edges, and of a loop that rebuilds every
    step's graph from its codes, bit for bit: big steps, top-ups, the
    uniform fallback, 0-edge steps."""
    fractions = (0.0, 0.05, 0.2, 0.5, 2.0)
    if case == "rhgg":
        g = gen_rhgg(300, 0.01, 3)
    elif case == "path30pad1000":
        g = build_graph([(i, i + 1) for i in range(29)], n_hint=1000)
        fractions = (0.0, 1.0, 3.0)
    elif case == "matching":
        g = build_graph([(2 * i, 2 * i + 1) for i in range(20)], n_hint=40)
    else:
        g = gen_er(80, 0.05, 9)
        fractions = (0.0, 0.0, 0.1, 0.1, 0.101, 0.3)
    steps = [tuple(s) for s in density_sweep(g, mechanism, fractions, seed=21)]
    assert steps == per_step_sweep(g, mechanism, fractions, 21)
    assert steps == rebuilt_sweep(g, mechanism, fractions, 21)
