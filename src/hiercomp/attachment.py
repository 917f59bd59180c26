"""Edge-attachment mechanisms and density-growth sweeps.

Four rules assign weights to currently absent pairs:

* ``random``        -- every non-edge weight 1.
* ``hierarchical``  -- degree sum k_i + k_j.
* ``similarity``    -- Jaccard overlap |g_i & g_j| / |g_i | g_j|.
* ``combined``      -- raw common-neighbour count |g_i & g_j|.

Selection probability is weight over total weight.  A weight map lists
only the non-edges of positive weight; when a batch asks for more edges than
it lists, all of them are taken and the rest are drawn uniformly among the
other non-edges, and a map with none falls back to uniform attachment with a
logged notice.  Batch steps sample without replacement against the weights
frozen at the start of the step; sweeps recompute weights between steps.

random and hierarchical list their non-edges in ascending row blocks of
about 32k pairs, and a draw keeps only the smallest keys as the blocks go
by, so no step holds every non-edge at once; similarity and combined list
their shared-neighbour pairs as one block.  Every mechanism goes through
the same draw.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .complexity import nhc_global
from .graph import Graph, from_codes, sorted_unique

__all__ = [
    "MECHANISMS",
    "NonEdgeWeights",
    "edge_weights",
    "add_edges",
    "density_sweep",
    "SweepStep",
    "SweepTrace",
]

log = logging.getLogger(__name__)

MECHANISMS = ("random", "hierarchical", "similarity", "combined")

# Listing every non-edge is O(n^2) work: edge_weights lists at most as many
# pairs as a graph on this many nodes has, and above it add_edges draws random
# and hierarchical pairs by rejection instead.
_ENUM_LIMIT = 8192
# Non-edges are listed in ascending row blocks of about this many pairs, so a
# draw holds one block and its kept keys, never every non-edge at once.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class NonEdgeWeights:
    """Positive weights of non-edges; a non-edge that is not listed weighs 0.

    Under the uniform fallback every non-edge weighs 1; above n = 8192 the
    fallback lists none of them.
    """

    codes: np.ndarray  # ascending pair codes u * n + v, u < v
    weights: np.ndarray  # > 0
    uniform_fallback: bool = False


def _check_cap(pairs: int) -> None:
    if pairs > _ENUM_LIMIT * (_ENUM_LIMIT - 1) // 2:
        raise ValueError(f"non-edge enumeration capped at n={_ENUM_LIMIT}")


def _row_starts(n: int) -> np.ndarray:
    """Rank of pair (u, u + 1) among the pairs u < v in ascending code order."""
    u = np.arange(n, dtype=np.int64)
    return u * (2 * n - u - 1) // 2


def _non_edge_blocks(g: Graph):
    """Ascending codes of the non-edges of g, one block of rows at a time."""
    n, edges, starts = g.n, g.codes(), _row_starts(g.n)
    u0 = 0
    while u0 < n - 1:
        u1 = min(n - 1, max(u0 + 1, int(np.searchsorted(starts, starts[u0] + _BLOCK))))
        absent = np.arange(n) > np.arange(u0, u1)[:, None]
        lo, hi = np.searchsorted(edges, (u0 * n, u1 * n))
        absent.ravel()[edges[lo:hi] - u0 * n] = False
        yield np.flatnonzero(absent) + u0 * n
        u0 = u1


def _hierarchical_blocks(g: Graph):
    """Non-edges with a non-isolated end, weighted by degree sum, in blocks."""
    for codes in _non_edge_blocks(g):
        weights = (g.degrees[codes // g.n] + g.degrees[codes % g.n]).astype(np.float64)
        keep = weights > 0
        yield codes[keep], weights[keep]


def _uniform_blocks(g: Graph):
    for codes in _non_edge_blocks(g):
        yield codes, np.ones(codes.size, dtype=np.float64)


def _shared_neighbour_weights(g: Graph, mechanism: str) -> tuple[np.ndarray, np.ndarray]:
    """Ascending codes of the non-adjacent pairs with >= 1 shared neighbour,
    weighted by the shared count (combined) or the Jaccard overlap (similarity)."""
    from scipy import sparse

    a = sparse.csr_matrix(
        (np.ones(g.indices.size, dtype=np.float64), g.indices, g.indptr),
        shape=(g.n, g.n),
    )
    c = (a @ a).tocsr()
    c.setdiag(0)
    c.eliminate_zeros()
    c = sparse.triu(c, k=1).tocsr()
    c = (c - c.multiply(a)).tocoo()
    keep = c.data > 0
    codes = c.row[keep].astype(np.int64) * g.n + c.col[keep]
    order = np.argsort(codes)
    codes, counts = codes[order], c.data[keep][order]
    if mechanism == "similarity":
        lo, hi = np.divmod(codes, g.n)
        return codes, counts / (g.degrees[lo] + g.degrees[hi] - counts)
    return codes, counts.astype(np.float64)


def non_edge_count(g: Graph) -> int:
    return g.n * (g.n - 1) // 2 - g.m


def _weight_blocks(g: Graph, mechanism: str):
    """(blocks, uniform_fallback): the positive weights over the non-edges of
    g as an iterable of ascending (codes, weights) blocks.

    random lists every non-edge and hierarchical every non-edge with a
    non-isolated end, one row block at a time; similarity/combined list the
    pairs with shared neighbours in one block.  A map that lists none
    degrades to uniform over every non-edge, with a logged notice.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    pairs = g.n * (g.n - 1) // 2
    if mechanism == "random":
        _check_cap(pairs)
        blocks, positive = _uniform_blocks(g), True
    elif mechanism == "hierarchical":
        iso = int(np.count_nonzero(g.degrees == 0))
        _check_cap(pairs - iso * (iso - 1) // 2)
        # every non-edge weighs 0 only when no node has an edge
        blocks, positive = _hierarchical_blocks(g), g.m > 0
    else:
        codes, weights = _shared_neighbour_weights(g, mechanism)
        blocks, positive = [(codes, weights)], codes.size > 0
    if positive or non_edge_count(g) == 0:
        return blocks, False
    log.warning("all %s weights zero; falling back to uniform attachment", mechanism)
    return ([] if g.n > _ENUM_LIMIT else _uniform_blocks(g)), True


def edge_weights(g: Graph, mechanism: str) -> NonEdgeWeights:
    """Positive attachment weights over the non-edges of g, in one map.

    The pairs of :func:`_weight_blocks`, concatenated.  Listing more
    candidate pairs than a graph on 8192 nodes has raises ``ValueError``.
    """
    blocks, fallback = _weight_blocks(g, mechanism)
    pairs = [(np.empty(0, np.int64), np.empty(0))] + list(blocks)
    return NonEdgeWeights(np.concatenate([c for c, _ in pairs]),
                          np.concatenate([w for _, w in pairs]), fallback)


def _rejection_sample(
    g: Graph, count: int, rng: np.random.Generator, node_p: np.ndarray | None = None,
    taken: np.ndarray | None = None,
) -> np.ndarray:
    """Codes of ``count`` distinct non-edges, drawn without O(n^2) enumeration.

    With ``node_p`` one end is drawn from it and the other uniformly among
    the remaining nodes (degree-sum weighting); otherwise both ends are
    uniform.  Pairs in ``taken`` are rejected like edges and earlier picks.
    """
    n = g.n
    seen = set() if taken is None else set(taken.tolist())
    out: list[int] = []
    batch = max(1024, 4 * count)
    draws = 0
    limit = 2000 * (count + 100)
    while len(out) < count:
        if draws > limit:
            raise RuntimeError("rejection sampling stalled; graph too dense for this path")
        draws += batch
        if node_p is not None:
            ii = rng.choice(n, size=batch, p=node_p)
            jj = rng.integers(0, n - 1, size=batch)
            jj += jj >= ii
        else:
            ii = rng.integers(0, n, size=batch)
            jj = rng.integers(0, n, size=batch)
        for i, j in zip(ii.tolist(), jj.tolist()):
            code = i * n + j if i < j else j * n + i
            if i == j or code in seen or g.has_edge(i, j):
                continue
            seen.add(code)
            out.append(code)
            if len(out) == count:
                break
    return np.array(out, dtype=np.int64)


def _nth_non_edges(n: int, taken: np.ndarray, nth: np.ndarray) -> np.ndarray:
    """Codes of the nth (0-based) pairs, in ascending code order, among the
    pairs on n nodes whose codes are not in ``taken`` (ascending)."""
    starts = _row_starts(n)
    u, v = np.divmod(taken, n)
    # pairs that are not taken and rank before each taken pair
    before = starts[u] + (v - u - 1) - np.arange(taken.size)
    rank = nth + np.searchsorted(before, nth, side="right")
    u = np.searchsorted(starts, rank, side="right") - 1
    return u * n + (rank - starts[u] + u + 1)


def _draw(g: Graph, blocks, count: int, rng: np.random.Generator) -> np.ndarray:
    """Codes of ``count`` distinct non-edges, by successive sampling on the
    weights of ascending (codes, weights) blocks.

    The smallest ``count`` keys Exp(1)/w win (Efraimidis & Spirakis, IPL
    97(5), 2006); keys are drawn block by block, which gives the same
    stream as one draw over every listed pair, and only the smallest are
    kept as the blocks go by.  When fewer pairs are listed, all are taken
    and the rest are drawn uniformly among the other non-edges.
    """
    keys, codes = [np.empty(0)], [np.empty(0, np.int64)]
    kept = listed = 0
    cut = np.inf
    for c, w in blocks:
        listed += c.size
        k = rng.exponential(size=c.size) / w
        small = k < cut
        keys.append(k[small])
        codes.append(c[small])
        kept += keys[-1].size
        if kept >= max(2 * count, _BLOCK):
            k, c = np.concatenate(keys), np.concatenate(codes)
            best = np.argpartition(k, count - 1)[:count]
            keys, codes, kept = [k[best]], [c[best]], count
            cut = keys[0].max()
    keys, codes = np.concatenate(keys), np.concatenate(codes)
    if count <= listed:
        return codes[np.argpartition(keys, count - 1)[:count]]
    if codes.size:
        log.warning("only %d positive-weight candidates for %d requested edges; "
                    "topping up uniformly", codes.size, count)
    if g.n <= _ENUM_LIMIT:
        # ``codes`` is every listed pair, ascending: uniform over the others
        others = non_edge_count(g) - codes.size
        nth = rng.choice(others, size=count - codes.size, replace=False)
        extra = _nth_non_edges(g.n, np.sort(np.concatenate((g.codes(), codes))), nth)
    else:
        extra = _rejection_sample(g, count - codes.size, rng, taken=codes)
    return np.concatenate((codes, extra))


def add_edges(g: Graph, mechanism: str, count: int, seed: int) -> Graph:
    """New graph with ``count`` extra edges drawn by the given mechanism.

    Above n = 8192, random and hierarchical draw by rejection without
    listing non-edges, unless hierarchical must take every pair it weighs.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if count < 0:
        raise ValueError("count must be non-negative")
    avail = non_edge_count(g)
    if count > avail:
        raise ValueError(f"requested {count} new edges but only {avail} non-edges remain")
    if count == 0:
        return g
    rng = np.random.default_rng(seed)
    iso = int(np.count_nonzero(g.degrees == 0))
    if g.n > _ENUM_LIMIT and (mechanism == "random" or (
            mechanism == "hierarchical" and count <= avail - iso * (iso - 1) // 2)):
        node_p = g.degrees / g.degrees.sum() if mechanism == "hierarchical" else None
        new = _rejection_sample(g, count, rng, node_p=node_p)
    else:
        new = _draw(g, _weight_blocks(g, mechanism)[0], count, rng)
    codes = sorted_unique(np.concatenate((g.codes(), new)))
    if codes.size != g.m + count:
        raise AssertionError("attachment produced an overlapping edge")
    return from_codes(g.n, codes, labels=g.labels)


class SweepStep(NamedTuple):
    fraction: float
    edge_count: int
    value: float


@dataclass(frozen=True)
class SweepTrace:
    mechanism: str
    base_id: str
    steps: tuple[SweepStep, ...]


DEFAULT_FRACTIONS = tuple(i / 1000 for i in range(21))  # 0, 0.001, ..., 0.020


def density_sweep(
    g: Graph,
    mechanism: str,
    fractions=DEFAULT_FRACTIONS,
    seed: int = 0,
    base_id: str = "",
) -> SweepTrace:
    """Grow g towards round(m0 * (1 + f)) edges for each fraction f.

    Weights are recomputed once per step; the measure is recorded after
    each step, including the f=0 baseline.
    """
    fr = [float(f) for f in fractions]
    if not fr:
        raise ValueError("fractions must be non-empty")
    if any(f < 0 for f in fr) or any(b < a for a, b in zip(fr, fr[1:])):
        raise ValueError("fractions must be non-negative and non-decreasing")
    m0 = g.m
    master = np.random.default_rng(seed)
    step_seeds = master.integers(0, 2**63, size=len(fr))
    cur = g
    steps: list[SweepStep] = []
    for i, f in enumerate(fr):
        target = int(round(m0 * (1.0 + f)))
        need = target - cur.m
        if need > 0:
            cur = add_edges(cur, mechanism, need, int(step_seeds[i]))
        steps.append(SweepStep(f, cur.m, nhc_global(cur)))
    return SweepTrace(mechanism=mechanism, base_id=base_id, steps=tuple(steps))
