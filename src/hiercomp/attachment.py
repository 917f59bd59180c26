"""Edge-attachment mechanisms and density-growth sweeps.

Four rules weigh the currently absent pairs:

* ``random``        -- every non-edge weight 1.
* ``hierarchical``  -- degree sum k_i + k_j.
* ``similarity``    -- Jaccard overlap |g_i & g_j| / |g_i | g_j|.
* ``combined``      -- raw common-neighbour count |g_i & g_j|.

A batch step picks its edges by successive sampling (one at a time, each with
probability weight over the weight still open) on the weights frozen at the
start of the step; sweeps recompute weights between steps.  A batch that
needs every positive-weight non-edge takes them all and draws the rest
uniformly; a map with no positive weight falls back to uniform attachment
with a logged notice.  Each weighting has one draw, used at every n:

* uniform (random, top-ups, fallbacks): distinct ranks among the open pairs,
  mapped to pair codes in O(m + count) without listing them;
* degree sum: one end with probability k_i / 2m, the other uniformly among
  the other nodes, rejecting edges and repeats;
* shared neighbours: keys Exp(1)/w over the sparse block of pairs with a
  common neighbour, the smallest win (Efraimidis & Spirakis, IPL 97(5), 2006).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .complexity import nhc_global
from .graph import (Graph, _non_edge_blocks, _nth_non_edges, complement_codes, from_codes,
                    sorted_unique)

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

# edge_weights lists at most as many pairs as a graph on this many nodes has
_ENUM_LIMIT = 8192


@dataclass(frozen=True)
class NonEdgeWeights:
    """Positive weights of non-edges; a non-edge that is not listed weighs 0.
    Under the uniform fallback every non-edge is listed with weight 1."""

    codes: np.ndarray  # ascending pair codes u * n + v, u < v
    weights: np.ndarray  # > 0
    uniform_fallback: bool = False


def non_edge_count(g: Graph) -> int:
    return g.n * (g.n - 1) // 2 - g.m


def _weighted_pair_count(g: Graph) -> int:
    """Number of non-edges with a positive degree sum (a non-isolated end)."""
    iso = int(np.count_nonzero(g.degrees == 0))
    return non_edge_count(g) - iso * (iso - 1) // 2


def _degree_sums(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Ascending codes of the non-edges with a non-isolated end, and their
    degree sums, filtered one row block of the complement at a time."""
    n, deg = g.n, g.degrees
    codes = np.concatenate([np.empty(0, np.int64)] + [
        c[(deg[c // n] > 0) | (deg[c % n] > 0)] for c in _non_edge_blocks(n, g.codes())])
    return codes, (deg[codes // n] + deg[codes % n]).astype(np.float64)


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


def _falls_back(g: Graph, mechanism: str, positive: int) -> bool:
    """Whether no non-edge weighs anything while some remain; logs it."""
    if positive or non_edge_count(g) == 0:
        return False
    log.warning("all %s weights zero; falling back to uniform attachment", mechanism)
    return True


def edge_weights(g: Graph, mechanism: str) -> NonEdgeWeights:
    """Positive attachment weights over the non-edges of g, in one map.

    Listing more complement pairs than a graph on 8192 nodes has (random,
    hierarchical, the uniform fallback) raises ``ValueError``.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if mechanism in ("similarity", "combined"):
        codes, weights = _shared_neighbour_weights(g, mechanism)
        if not _falls_back(g, mechanism, codes.size):
            return NonEdgeWeights(codes, weights)
    weighted = _weighted_pair_count(g)
    by_degree = mechanism == "hierarchical" and not _falls_back(g, mechanism, weighted)
    if (weighted if by_degree else non_edge_count(g)) > _ENUM_LIMIT * (_ENUM_LIMIT - 1) // 2:
        raise ValueError(f"non-edge enumeration capped at n={_ENUM_LIMIT}")
    if by_degree:
        return NonEdgeWeights(*_degree_sums(g))
    codes = complement_codes(g.n, g.codes())
    return NonEdgeWeights(codes, np.ones(codes.size), uniform_fallback=mechanism != "random")


def _uniform(g: Graph, taken: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Codes of ``count`` distinct non-edges of g outside ``taken`` (ascending),
    uniformly: distinct ranks among those pairs, mapped to codes by rank."""
    nth = rng.choice(non_edge_count(g) - taken.size, size=count, replace=False)
    return _nth_non_edges(g.n, np.sort(np.concatenate((g.codes(), taken))), nth)


def _take_all(g: Graph, codes: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Every positive-weight non-edge (``codes``, ascending), topped up with
    uniform picks among the other non-edges to ``count``."""
    if count == codes.size:
        return codes
    log.warning("only %d positive-weight candidates for %d requested edges; "
                "topping up uniformly", codes.size, count)
    return np.concatenate((codes, _uniform(g, codes, count - codes.size, rng)))


def _by_degree(g: Graph, count: int, rng: np.random.Generator) -> np.ndarray:
    """Codes of ``count`` distinct non-edges by successive sampling on the
    degree sum, drawn in batches of max(1024, 4 * count) pairs; earlier draws
    win.  No draw cap: a request below the weighted pairs always ends."""
    weighted = _weighted_pair_count(g)
    if _falls_back(g, "hierarchical", weighted):
        return _uniform(g, np.empty(0, np.int64), count, rng)
    if count >= weighted:
        return _take_all(g, _degree_sums(g)[0], count, rng)
    n, edges = g.n, g.codes()
    node_p = g.degrees / g.degrees.sum()
    batch = max(1024, 4 * count)
    out = np.empty(0, np.int64)
    while out.size < count:
        ii = rng.choice(n, size=batch, p=node_p)
        jj = rng.integers(0, n - 1, size=batch)
        jj += jj >= ii
        new = np.minimum(ii, jj) * n + np.maximum(ii, jj)
        new = new[edges[np.searchsorted(edges, new).clip(max=edges.size - 1)] != new]
        new = new[np.sort(np.unique(new, return_index=True)[1])]
        new = new[~np.isin(new, out, kind="sort")]
        out = np.concatenate((out, new[: count - out.size]))
    return out


def _by_keys(g: Graph, mechanism: str, count: int, rng: np.random.Generator) -> np.ndarray:
    """Codes of ``count`` distinct non-edges by successive sampling on the
    shared-neighbour weights: the smallest keys Exp(1)/w win."""
    codes, weights = _shared_neighbour_weights(g, mechanism)
    if _falls_back(g, mechanism, codes.size):
        return _uniform(g, codes, count, rng)
    keys = rng.exponential(size=codes.size) / weights
    if count <= codes.size:
        return codes[np.argpartition(keys, count - 1)[:count]]
    return _take_all(g, codes, count, rng)


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
    if mechanism == "random":
        new = _uniform(g, np.empty(0, np.int64), count, rng)
    elif mechanism == "hierarchical":
        new = _by_degree(g, count, rng)
    else:
        new = _by_keys(g, mechanism, count, rng)
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
