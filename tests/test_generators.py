"""Random-graph families: determinism, exact targets, and degree contracts."""

from __future__ import annotations

import logging
import re
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracle
from hiercomp import generators
from hiercomp.generators import (
    ModelSpec,
    child_seed,
    gen_config,
    gen_er,
    gen_rgg,
    gen_rhgg,
    generate,
)
from hiercomp.graph import build_graph, complement_codes


CONFIG_ERRORS = {
    "degree sequence must be non-empty",
    "degrees must be non-negative",
    "degree sum must be even",
    "max degree must be below n",
} | {f"degree sequence is not graphical: Erdős–Gallai fails at k={k}" for k in range(1, 13)} | {
    f"degree sequence is graphical, but the double-edge-swap repair gave up after {100 * m} "
    "attempts (cap: 100 per edge); another seed may realise it" for m in range(1, 40)}


def pair_count(n):
    return n * (n - 1) // 2


def test_child_seed_is_stable_and_path_sensitive():
    assert child_seed(0, 1, 2) == child_seed(0, 1, 2)
    seen = {child_seed(0, a, b) for a in range(4) for b in range(4)}
    assert len(seen) == 16
    assert child_seed(1, 0) != child_seed(0, 1)


def test_er_determinism_and_edge_count_band():
    g1 = gen_er(500, 0.05, seed=42)
    g2 = gen_er(500, 0.05, seed=42)
    assert np.array_equal(g1.edge_array(), g2.edge_array())
    assert not np.array_equal(g1.edge_array(), gen_er(500, 0.05, seed=43).edge_array())
    mean = pair_count(500) * 0.05
    sd = np.sqrt(pair_count(500) * 0.05 * 0.95)
    assert abs(g1.m - mean) < 5 * sd


def test_er_degenerate_probabilities():
    empty = gen_er(50, 0.0, seed=1)
    assert empty.m == 0 and empty.n == 50
    full = gen_er(20, 1.0, seed=1)
    assert full.m == pair_count(20)
    assert full.density == 1.0


def test_er_mean_degree_tracks_p():
    g = gen_er(2000, 0.01, seed=7)
    mean_deg = 2 * g.m / g.n
    expected = 0.01 * 1999
    sd = np.sqrt(1999 * 0.01 * 0.99 / 2000)
    assert abs(mean_deg - expected) < 4 * sd


def test_er_input_validation():
    with pytest.raises(ValueError, match="p must lie"):
        gen_er(10, 1.5, seed=0)
    with pytest.raises(ValueError, match="n must be positive"):
        gen_er(0, 0.5, seed=0)


@pytest.mark.parametrize("n,p,m", [
    (1, 0.5, 0), (1, 1.0, 0), (2, 0.0, 0), (2, 1.0, 1),
    (12, 5e-324, 0), (12, 1 - 2**-53, 66), (2000, 1 - 2**-53, pair_count(2000)),
])
def test_er_edge_cases(n, p, m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid-value warning
        g = gen_er(n, p, seed=5)
    assert (g.n, g.m) == (n, m)
    assert int(g.degrees.sum()) == 2 * m


def test_er_sparse_side_holds_no_pair_sized_array():
    # 5 * 10**11 pairs: an array over them could not be allocated
    n = 10**6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gen_er(n, 5e-324, seed=1).m == 0
        # p = 1 - 2**-53 skips over the absent pairs with q = 2**-53
        assert generators._skip_pairs(n, 2**-53, np.random.default_rng(1)).size == 0
    g = gen_er(n, 2e-11, seed=3)  # about 10 edges
    assert g.n == n and 0 < g.m < 40
    assert np.all(np.diff(g.codes()) > 0)


def test_er_skips_to_absent_pairs_above_one_half():
    for p in (0.5, np.nextafter(0.5, 1.0), 0.9):
        skipped = generators._skip_pairs(30, min(p, 1.0 - p), np.random.default_rng(9))
        expected = skipped if p <= 0.5 else complement_codes(30, skipped)
        assert np.array_equal(gen_er(30, p, 9).codes(), expected)


@given(n=st.integers(1, 80), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32),
       block=st.sampled_from([1, 2, 7, 64]))
@example(n=60, p=0.7, seed=0, block=7)
@example(n=80, p=0.05, seed=1, block=7)
@settings(max_examples=120, deadline=None)
def test_er_edge_set_does_not_depend_on_block_size(n, p, seed, block):
    with mock.patch.object(generators, "_ER_BLOCK", block):
        small = gen_er(n, p, seed)
    assert np.array_equal(small.codes(), gen_er(n, p, seed).codes())


@pytest.mark.parametrize("p", [0.05, 0.5, 0.8])
def test_er_pair_frequencies_and_edge_count_match_binomial(p):
    """Over 2000 seeds at n = 12: each of the 66 pairs is an edge with
    frequency p (chi-square), and the edge count has the mean and variance
    of Binomial(66, p).  Seeds and bounds fixed in advance."""
    from scipy import stats

    n, runs, pairs = 12, 2000, pair_count(12)
    hits = np.zeros(n * n, dtype=np.int64)
    counts = np.empty(runs)
    for seed in range(runs):
        codes = gen_er(n, p, seed).codes()
        hits[codes] += 1
        counts[seed] = codes.size
    rows, cols = np.triu_indices(n, 1)
    per_pair = hits[rows * n + cols]
    assert per_pair.sum() == counts.sum()
    chi2 = float((((per_pair - runs * p) ** 2) / (runs * p * (1 - p))).sum())
    assert stats.chi2.sf(chi2, pairs) > 1e-3
    var = pairs * p * (1 - p)
    assert abs(counts.mean() - pairs * p) < 4 * np.sqrt(var / runs)
    excess_kurtosis = (1 - 6 * p * (1 - p)) / var
    assert abs(counts.var(ddof=1) / var - 1) < 4 * np.sqrt((2 + excess_kurtosis) / runs)


def test_er_measure_matches_rowwise_draw():
    """R-hat of er(1000, 0.01) from the skipping draw and from one uniform
    per pair: a two-sided rank-sum test at 30 fixed seeds a side."""
    from scipy import stats

    from hiercomp.complexity import nhc_global
    from hiercomp.graph import from_codes

    skip = [nhc_global(gen_er(1000, 0.01, child_seed(0, 1300, s))) for s in range(30)]
    rowwise = [nhc_global(from_codes(1000, oracle.er_rowwise(1000, 0.01, child_seed(0, 1301, s))))
               for s in range(30)]
    assert stats.ranksums(skip, rowwise).pvalue > 0.01


@pytest.mark.parametrize("n,density", [(40, 0.1), (120, 0.05), (60, 0.5), (30, 0.9)])
def test_rgg_hits_exact_edge_target(n, density):
    g = gen_rgg(n, density, seed=5)
    assert g.m == generators._pair_target(n, density)
    assert g.n == n


def test_rgg_determinism_and_dims():
    a = gen_rgg(80, 0.2, seed=9, dims=2)
    b = gen_rgg(80, 0.2, seed=9, dims=2)
    assert np.array_equal(a.edge_array(), b.edge_array())
    c = gen_rgg(80, 0.2, seed=9, dims=3)
    assert not np.array_equal(a.edge_array(), c.edge_array())


@pytest.mark.parametrize("dims", [0, -1])
def test_geometric_generators_reject_non_positive_dims(dims):
    with pytest.raises(ValueError, match="dims must be positive"):
        gen_rgg(50, 0.1, seed=0, dims=dims)
    with pytest.raises(ValueError, match="dims must be positive"):
        gen_rhgg(50, 0.1, seed=0, dims=dims)


def test_rgg_clusters_more_than_er():
    """Geometric proximity breeds triangles; independent pairs do not."""
    nx = pytest.importorskip("networkx")
    cl = {}
    for fam, gen in (("rgg", gen_rgg), ("er", lambda n, d, seed: gen_er(n, d, seed))):
        vals = []
        for s in range(3):
            g = gen(300, 0.05, 50 + s)
            G = nx.Graph()
            G.add_nodes_from(range(g.n))
            G.add_edges_from(map(tuple, g.edge_array()))
            vals.append(nx.average_clustering(G))
        cl[fam] = np.mean(vals)
    assert cl["rgg"] > 3 * cl["er"]


def test_rhgg_sigma_zero_matches_rgg():
    """rgg, drawn as rhgg with equal strengths, keeps the m pairs closest by
    1/dist, the all-pairs scan without strengths."""
    for seed in (0, 7, 123):
        pts = generators._distinct_points(150, 3, np.random.default_rng(seed))
        expected = oracle.geometric_top_m_naive(pts, generators._pair_target(150, 0.1))
        assert np.array_equal(gen_rgg(150, 0.1, seed).codes(), expected)


class _StubRandom:
    """Hands out the given draws in turn, checking each requested shape."""

    def __init__(self, *draws):
        self.draws = [np.asarray(d, dtype=np.float64) for d in draws]

    def random(self, shape):
        draw = self.draws.pop(0)
        assert draw.shape == shape
        return draw.copy()


def test_distinct_points_redraws_all_but_the_lowest_id_of_each_duplicate_group():
    a, b, c = [0.1, 0.2], [0.3, 0.4], [0.5, 0.6]
    # groups {0, 2, 5} and {1, 4}: ids 2, 4 and 5 redraw in that order; the
    # redraw gives 4 the point of 3, so 4 redraws again
    rng = _StubRandom([a, b, a, c, b, a], [[0.7, 0.8], c, [0.9, 0.1]], [[0.2, 0.3]])
    pts = generators._distinct_points(6, 2, rng)
    assert pts.tolist() == [a, b, [0.7, 0.8], c, [0.2, 0.3], [0.9, 0.1]]
    assert not rng.draws


def _scaled_floor(scale):
    floor = generators._weight_floor
    return lambda pts, m, strengths: scale * floor(pts, m, strengths)


@given(
    n=st.integers(1, 200),
    dims=st.integers(1, 4),
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    density=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 0.05), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
    sample=st.sampled_from([8, 512]),
    floor_scale=st.sampled_from([1.0, 1e3]),
)
# m = 253, where round(density * pair_count(n)) gives 252
@example(n=101, dims=1, sigma=0.0, density=0.05, seed=0, sample=8, floor_scale=1.0)
@settings(max_examples=150, deadline=None)
def test_geometric_selection_matches_all_pairs_scan(n, dims, sigma, density, seed, sample,
                                                    floor_scale):
    """rgg/rhgg keep exactly the scan's edge set, also when the sampled floor
    is noisy (few sample points) or far too high (the floor must be lowered)."""
    with mock.patch.object(generators, "_SAMPLE_POINTS", sample), \
            mock.patch.object(generators, "_weight_floor", _scaled_floor(floor_scale)):
        rgg = gen_rgg(n, density, seed, dims=dims)
        rhgg = gen_rhgg(n, density, seed, dims=dims, lognormal_sigma=sigma)
    rng = np.random.default_rng(seed)
    pts = generators._distinct_points(n, dims, rng)
    strengths = rng.lognormal(0.0, sigma, n) if sigma else np.ones(n)
    m = generators._pair_target(n, density)
    assert np.array_equal(rgg.codes(), oracle.geometric_top_m_naive(pts, m))
    assert np.array_equal(rhgg.codes(), oracle.geometric_top_m_naive(pts, m, strengths))
    if sigma == 0.0:
        assert np.array_equal(rhgg.codes(), rgg.codes())


def test_rhgg_heterogeneous_large_hits_exact_edge_target():
    # sigma = 1 spreads strengths over ~25 log-strength buckets
    g = gen_rhgg(20000, 1e-4, seed=4, lognormal_sigma=1.0)
    assert g.n == 20000 and g.m == round(1e-4 * pair_count(20000))
    assert int(g.degrees.sum()) == 2 * g.m


def test_rhgg_heterogeneity_raises_degree_variance():
    vr = [gen_rgg(600, 0.03, seed=s).degrees.var() for s in range(3)]
    vh = [gen_rhgg(600, 0.03, seed=s, lognormal_sigma=0.5).degrees.var() for s in range(3)]
    assert np.mean(vh) > 2 * np.mean(vr)


def test_rhgg_exact_edge_target_and_determinism():
    g1 = gen_rhgg(100, 0.15, seed=3)
    g2 = gen_rhgg(100, 0.15, seed=3)
    assert g1.m == round(0.15 * pair_count(100))
    assert np.array_equal(g1.edge_array(), g2.edge_array())


def test_config_preserves_degrees_sparse():
    base = gen_rhgg(300, 0.05, seed=11)
    g = gen_config(base.degrees, seed=21)
    assert np.array_equal(np.sort(g.degrees), np.sort(base.degrees))
    assert np.array_equal(g.degrees, base.degrees)  # positional, not just multiset
    assert not np.array_equal(g.edge_array(), base.edge_array())


def test_config_preserves_degrees_dense_complement_path():
    base = gen_er(60, 0.8, seed=2)
    assert base.degrees.sum() > pair_count(60)  # complement pairing engages
    g = gen_config(base.degrees, seed=4)
    assert np.array_equal(g.degrees, base.degrees)


def test_config_validation():
    with pytest.raises(ValueError, match="even"):
        gen_config([1, 1, 1], seed=0)
    with pytest.raises(ValueError, match="below n"):
        gen_config([4, 1, 1, 0], seed=0)
    with pytest.raises(ValueError, match="non-negative"):
        gen_config([-1, 1], seed=0)
    with pytest.raises(ValueError, match="non-empty"):
        gen_config([], seed=0)


def test_config_rejects_non_graphical_sequence_up_front():
    with pytest.raises(ValueError, match="Erdős–Gallai fails at k=2$"):
        gen_config([3, 3, 1, 1], seed=0)
    # two nodes adjacent to every other node, which all have degree 1
    degs = [2999, 2999] + [1] * 2998
    start = time.perf_counter()
    with pytest.raises(ValueError, match="Erdős–Gallai fails at k=2$"):
        gen_config(degs, seed=0)
    assert time.perf_counter() - start < 0.1


def test_config_repair_exhaustion_says_the_sequence_is_graphical():
    degs = [1, 1, 1, 1, 1, 1, 2, 2, 8]
    assert oracle.erdos_gallai_violation(degs) is None
    with pytest.raises(ValueError) as err:
        gen_config(degs, seed=3)
    assert str(err.value) == (
        "degree sequence is graphical, but the double-edge-swap repair gave up after 900 "
        "attempts (cap: 100 per edge); another seed may realise it")
    assert gen_config(degs, seed=0).degrees.tolist() == degs


@given(st.lists(st.integers(0, 9), min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_config_graphicality_check_matches_oracle(degs):
    if sum(degs) % 2 or max(degs) >= len(degs):
        return
    k = oracle.erdos_gallai_violation(degs)
    try:
        g = gen_config(degs, seed=3)
    except ValueError as exc:
        message = str(exc)
    else:
        assert g.degrees.tolist() == degs
        message = None
    if k is None:  # the swap repair can still get stuck, e.g. on [1]*6 + [2, 2, 8]
        assert message is None or message in CONFIG_ERRORS and "is graphical" in message
    else:
        assert message == f"degree sequence is not graphical: Erdős–Gallai fails at k={k}"


def _config_outcome(degs, seed):
    try:
        return gen_config(degs, seed).codes().tolist()
    except ValueError as exc:
        return str(exc)


# graphical sequences of er graphs, sparse through complete (complement path),
# and short arbitrary sequences: tiny m, where the partner often is the bad
# edge itself, non-graphical ones and repairs that give up
_REPAIR_INPUTS = st.one_of(
    st.builds(lambda n, p, s: gen_er(n, p, s).degrees.tolist(),
              st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**32)),
    st.lists(st.integers(0, 9), min_size=1, max_size=10).filter(
        lambda d: sum(d) % 2 == 0 and max(d) < len(d)),
)


@given(_REPAIR_INPUTS, st.integers(0, 2**32))
@example([1, 1, 1, 1, 1, 1, 2, 2, 8], 3)  # gives up
@example([1, 1, 1, 1, 0], 0)  # m = 2
@example([1, 0, 1], 0)  # m = 1
# first pairings with a pair of 3 copies and a self-loop, paired directly and
# in the complement: the one pass must leave no bad edge that a rescan finds
@example([2, 1, 3, 4, 0, 2], 3)
@example([3, 1, 5, 3, 2, 4], 3)
@settings(max_examples=300, deadline=None)
def test_config_repair_matches_numpy_draw_loop(degs, seed):
    """Keys drawn in blocks give the codes, or the error, of drawing each
    attempt's key alone through numpy."""
    new = _config_outcome(degs, seed)
    with mock.patch.object(generators, "_pair_and_repair", oracle.pair_and_repair_naive):
        assert new == _config_outcome(degs, seed)


def _repair_records(caplog, degs, seed):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="hiercomp.generators"):
        try:
            gen_config(degs, seed)
        except ValueError:
            pass
    return [r.getMessage() for r in caplog.records if r.name == "hiercomp.generators"]


@given(_REPAIR_INPUTS, st.integers(0, 2**32), st.sampled_from([1, 3, 64]))
@example([1, 1, 1, 1, 1, 1, 2, 2, 8], 3, 64)  # gives up
@example([1, 0, 1], 0, 3)  # m = 1
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_config_repair_does_not_depend_on_key_block(caplog, degs, seed, block):
    """The codes or error, and the DEBUG record with its attempts, of any
    key block are those of the default one."""
    with mock.patch.object(generators, "_KEY_BLOCK", block):
        small = _config_outcome(degs, seed), _repair_records(caplog, degs, seed)
    assert small == (_config_outcome(degs, seed), _repair_records(caplog, degs, seed))


# two hubs joined to every other node: their pair is paired about 300 times
TWO_HUBS = [1199, 1199] + [2] * 1198


def test_config_logs_one_repair_record(caplog, monkeypatch):
    degs = gen_rhgg(200, 0.05, seed=17).degrees
    (message,) = _repair_records(caplog, degs, 2)
    match = re.fullmatch(
        r"repair n=(\d+) m=(\d+) bad=(\d+) attempts=(\d+) held=bytes", message)
    n, m, bad, attempts = map(int, match.groups())
    assert (n, m) == (200, degs.sum() // 2)
    assert bad > 0 and attempts >= 1
    # sparse: n*n bytes would be more than 64 per edge
    (message,) = _repair_records(caplog, gen_rhgg(400, 0.01, seed=17).degrees, 2)
    assert message.startswith("repair n=400 m=798 bad=") and message.endswith(" held=dict")
    assert _repair_records(caplog, [1, 1, 1, 1, 1, 1, 2, 2, 8], 3) == [
        "repair n=9 m=9 bad=2 attempts=900 held=bytes"]
    assert _repair_records(caplog, [0, 0, 0], 0) == [
        "repair n=3 m=0 bad=0 attempts=0 held=dict"]
    # a triangle is paired as its empty complement
    assert _repair_records(caplog, [2, 2, 2], 0) == [
        "repair n=3 m=0 bad=0 attempts=0 held=dict"]
    assert _repair_records(caplog, [3, 1, 1], 0) == []  # rejected before any pairing
    # n*n bytes would do, but a pair's 256th copy does not fit in one
    monkeypatch.setattr(generators, "_BYTES_PER_EDGE", 10**9)
    (message,) = _repair_records(caplog, TWO_HUBS, 0)
    assert message.startswith("repair n=1200 m=2397 ") and message.endswith(" held=dict")
    stubs = np.repeat(np.arange(1200), TWO_HUBS)
    np.random.default_rng(0).shuffle(stubs)
    assert (np.sort(stubs.reshape(-1, 2), axis=1) == [0, 1]).all(axis=1).sum() > 255


@pytest.mark.parametrize("degs", [
    gen_rhgg(300, 0.3, seed=21, lognormal_sigma=0.4).degrees,
    gen_er(300, 0.2, seed=22).degrees,
    gen_rhgg(300, 0.01, seed=23).degrees,
], ids=["rhgg", "er", "rhgg-sparse"])
def test_config_repair_is_the_same_in_bytes_and_in_a_dict(degs, monkeypatch, caplog):
    outcomes = {}
    for ratio in (0, 10**9):  # every graph in a dict; in bytes wherever the copies fit
        monkeypatch.setattr(generators, "_BYTES_PER_EDGE", ratio)
        (message,) = _repair_records(caplog, degs, 4)
        outcomes[message.rsplit("=", 1)[1]] = _config_outcome(degs, 4)
    with mock.patch.object(generators, "_pair_and_repair", oracle.pair_and_repair_naive):
        naive = _config_outcome(degs, 4)
    assert set(outcomes) == {"dict", "bytes"}
    assert outcomes["dict"] == outcomes["bytes"] == naive
    assert not isinstance(naive, str)


def test_config_zero_sequence():
    g = gen_config([0, 0, 0], seed=0)
    assert g.n == 3 and g.m == 0


@given(st.lists(st.integers(0, 5), min_size=2, max_size=12))
@settings(max_examples=60, deadline=None)
def test_config_degree_contract_or_clean_error(degs):
    """Any sequence either realises exactly or raises a clear error."""
    try:
        g = gen_config(degs, seed=8)
    except ValueError as exc:
        assert str(exc) in CONFIG_ERRORS
        return
    assert g.degrees.tolist() == degs


def test_generate_dispatch_matches_family_generators():
    spec = ModelSpec(family="er", n=100, target=0.1, seed=14)
    assert np.array_equal(generate(spec).edge_array(), gen_er(100, 0.1, 14).edge_array())
    spec = ModelSpec(family="rgg", n=100, target=0.1, seed=14)
    assert np.array_equal(generate(spec).edge_array(), gen_rgg(100, 0.1, 14).edge_array())
    spec = ModelSpec(family="rhgg", n=100, target=0.1, seed=14, lognormal_sigma=0.3)
    assert np.array_equal(
        generate(spec).edge_array(),
        gen_rhgg(100, 0.1, 14, lognormal_sigma=0.3).edge_array(),
    )


def test_generate_rhg_preserves_rhgg_degrees():
    spec = ModelSpec(family="rhg", n=200, target=0.05, seed=31)
    rhg = generate(spec)
    rhgg = gen_rhgg(200, 0.05, child_seed(31, 0))
    assert np.array_equal(np.sort(rhg.degrees), np.sort(rhgg.degrees))
    assert not np.array_equal(rhg.edge_array(), rhgg.edge_array())


def test_generate_rhg_accepts_explicit_degree_sequence():
    base = gen_er(40, 0.2, seed=3)
    spec = ModelSpec(family="rhg", n=40, seed=5, degree_sequence=tuple(base.degrees.tolist()))
    g = generate(spec)
    assert np.array_equal(g.degrees, base.degrees)


def test_generate_determinism():
    spec = ModelSpec(family="rhg", n=150, target=0.08, seed=99)
    assert np.array_equal(generate(spec).edge_array(), generate(spec).edge_array())


def test_modelspec_validation():
    with pytest.raises(ValueError, match="unknown family"):
        generate(ModelSpec(family="ba", n=10, target=0.1))
    with pytest.raises(ValueError, match="target"):
        generate(ModelSpec(family="er", n=10, target=1.2))
    with pytest.raises(ValueError, match="n must be positive"):
        generate(ModelSpec(family="er", n=0, target=0.1))
    with pytest.raises(ValueError, match="lognormal_sigma"):
        generate(ModelSpec(family="rhgg", n=10, target=0.1, lognormal_sigma=-0.1))
    with pytest.raises(ValueError, match="dims"):
        generate(ModelSpec(family="rgg", n=10, target=0.1, dims=0))


def test_modelspec_rejects_mismatched_degree_sequence():
    with pytest.raises(ValueError, match="4 entries for n=10"):
        generate(ModelSpec(family="rhg", n=10, degree_sequence=(1, 1, 2, 2)))
    for family in ("er", "rgg", "rhgg"):
        with pytest.raises(ValueError, match="rhg only"):
            generate(ModelSpec(family=family, n=4, target=0.5, degree_sequence=(1, 1, 2, 2)))


def test_geometric_families_have_no_duplicate_edges():
    for fam in ("rgg", "rhgg"):
        g = generate(ModelSpec(family=fam, n=70, target=0.4, seed=16))
        arr = g.edge_array()
        codes = arr[:, 0] * g.n + arr[:, 1]
        assert np.unique(codes).size == g.m
        assert (arr[:, 0] < arr[:, 1]).all()
