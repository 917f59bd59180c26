"""Edge-attachment mechanisms and density-growth sweeps.

Four rules assign weights to currently absent pairs:

* ``random``        -- every non-edge weight 1.
* ``hierarchical``  -- degree sum k_i + k_j.
* ``similarity``    -- Jaccard overlap |g_i & g_j| / |g_i | g_j|.
* ``combined``      -- raw common-neighbour count |g_i & g_j|.

Selection probability is weight over total weight; an all-zero step falls
back to uniform with a logged notice.  Batch steps sample without
replacement against the weights frozen at the start of the step; sweeps
recompute weights between steps.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .complexity import nhc_global
from .graph import Graph, from_unique_pairs

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

# Dense non-edge enumeration is O(n^2) memory; beyond this add_edges switches
# to rejection sampling for the mechanisms that allow it.
_ENUM_LIMIT = 8192


@dataclass(frozen=True)
class NonEdgeWeights:
    """Sparse weight map over non-edges: absent pairs carry weight 0."""

    pairs: np.ndarray  # (M, 2), i < j
    weights: np.ndarray  # (M,)
    uniform_fallback: bool = False

    def probabilities(self) -> np.ndarray:
        total = self.weights.sum()
        if total <= 0:
            raise ValueError("no positive weights")
        return self.weights / total


def _adjacency_bool(g: Graph) -> np.ndarray:
    adj = np.zeros((g.n, g.n), dtype=bool)
    rows = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    adj[rows, g.indices] = True
    np.fill_diagonal(adj, True)
    return adj


def _all_non_edges(g: Graph) -> np.ndarray:
    if g.n > _ENUM_LIMIT:
        raise ValueError(f"non-edge enumeration capped at n={_ENUM_LIMIT}")
    lo, hi = np.nonzero(np.triu(~_adjacency_bool(g), k=1))
    return np.column_stack((lo.astype(np.int64), hi.astype(np.int64)))


def _common_neighbour_pairs(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Non-adjacent pairs with >= 1 shared neighbour, and the shared counts."""
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
    pairs = np.column_stack((c.row[keep].astype(np.int64), c.col[keep].astype(np.int64)))
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order], c.data[keep][order]


def non_edge_count(g: Graph) -> int:
    return g.n * (g.n - 1) // 2 - g.m


def edge_weights(g: Graph, mechanism: str) -> NonEdgeWeights:
    """Attachment weights over the non-edges of g.

    similarity/combined enumerate only pairs with shared neighbours (all
    other non-edges weigh 0); if no candidate has positive weight the whole
    map degrades to uniform over every non-edge, with a logged notice.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if mechanism in ("random", "hierarchical"):
        pairs = _all_non_edges(g)
        if mechanism == "random":
            weights = np.ones(len(pairs), dtype=np.float64)
        else:
            weights = (g.degrees[pairs[:, 0]] + g.degrees[pairs[:, 1]]).astype(np.float64)
    else:
        pairs, counts = _common_neighbour_pairs(g)
        if mechanism == "similarity":
            union = g.degrees[pairs[:, 0]] + g.degrees[pairs[:, 1]] - counts
            weights = counts / union
        else:
            weights = counts.astype(np.float64)
    if weights.sum() <= 0.0 and non_edge_count(g) > 0:
        log.warning("all %s weights zero; falling back to uniform attachment", mechanism)
        full = _all_non_edges(g)
        return NonEdgeWeights(full, np.ones(len(full), dtype=np.float64), uniform_fallback=True)
    return NonEdgeWeights(pairs, weights)


def _weighted_sample_without_replacement(
    pairs: np.ndarray, weights: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Exponential-key trick: smallest count keys of Exp(1)/w."""
    positive = weights > 0
    n_pos = int(positive.sum())
    keys = np.full(weights.size, np.inf)
    keys[positive] = rng.exponential(size=n_pos) / weights[positive]
    if count <= n_pos:
        sel = np.argpartition(keys, count - 1)[:count]
        return pairs[sel]
    log.warning(
        "only %d positive-weight candidates for %d requested edges; topping up uniformly",
        n_pos, count,
    )
    zero_idx = np.flatnonzero(~positive)
    extra = rng.choice(zero_idx, size=count - n_pos, replace=False)
    return pairs[np.concatenate((np.flatnonzero(positive), extra))]


def _rejection_sample(g: Graph, mechanism: str, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform / degree-sum sampling of non-edges without O(n^2) enumeration."""
    total_deg = int(g.degrees.sum())
    degree_mode = mechanism == "hierarchical" and total_deg > 0
    if mechanism == "hierarchical" and total_deg == 0:
        log.warning("all hierarchical weights zero; falling back to uniform attachment")
    node_p = g.degrees / total_deg if degree_mode else None
    chosen: set[tuple[int, int]] = set()
    out = np.empty((count, 2), dtype=np.int64)
    batch = max(1024, 4 * count)
    draws = 0
    limit = 2000 * (count + 100)
    while len(chosen) < count:
        if draws > limit:
            raise RuntimeError("rejection sampling stalled; graph too dense for this path")
        draws += batch
        if degree_mode:
            ii = rng.choice(g.n, size=batch, p=node_p)
            jj = rng.integers(0, g.n - 1, size=batch)
            jj += jj >= ii
        else:
            ii = rng.integers(0, g.n, size=batch)
            jj = rng.integers(0, g.n, size=batch)
        for i, j in zip(ii.tolist(), jj.tolist()):
            if i == j:
                continue
            pair = (i, j) if i < j else (j, i)
            if pair in chosen or g.has_edge(*pair):
                continue
            out[len(chosen)] = pair
            chosen.add(pair)
            if len(chosen) == count:
                break
    return out


def add_edges(g: Graph, mechanism: str, count: int, seed: int) -> Graph:
    """New graph with ``count`` extra edges drawn by the given mechanism."""
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
    if mechanism in ("random", "hierarchical") and g.n > _ENUM_LIMIT:
        new_pairs = _rejection_sample(g, mechanism, count, rng)
    else:
        wmap = edge_weights(g, mechanism)
        if wmap.pairs.shape[0] < count:
            # candidate set (shared-neighbour pairs) smaller than the batch:
            # widen to every non-edge, keeping candidate weights.  Both pair
            # arrays are lexicographically sorted, so their codes lo*n+hi are
            # ascending and each candidate is found by binary search.
            full = _all_non_edges(g)
            pos = np.searchsorted(full[:, 0] * np.int64(g.n) + full[:, 1],
                                  wmap.pairs[:, 0] * np.int64(g.n) + wmap.pairs[:, 1])
            weights = np.zeros(len(full), dtype=np.float64)
            weights[pos] = wmap.weights
            wmap = NonEdgeWeights(full, weights)
        new_pairs = _weighted_sample_without_replacement(wmap.pairs, wmap.weights, count, rng)
    old_codes = g.edge_array()
    old = old_codes[:, 0] * np.int64(g.n) + old_codes[:, 1]
    new = new_pairs[:, 0] * np.int64(g.n) + new_pairs[:, 1]
    codes = np.unique(np.concatenate((old, new)))
    if codes.size != g.m + count:
        raise AssertionError("attachment produced an overlapping edge")
    return from_unique_pairs(g.n, codes // g.n, codes % g.n)


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
