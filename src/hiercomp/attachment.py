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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .complexity import nhc_global
from .graph import Graph, complement_codes, from_codes, sorted_unique

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

# Listing every non-edge is O(n^2) memory: edge_weights lists at most as many
# pairs as a graph on this many nodes has, and above it add_edges draws random
# and hierarchical pairs by rejection instead.
_ENUM_LIMIT = 8192


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


def _all_non_edges(g: Graph) -> np.ndarray:
    _check_cap(g.n * (g.n - 1) // 2)
    return complement_codes(g.n, g.codes())


def _hierarchical_weights(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Ascending codes of the non-edges with a non-isolated end, weighted by
    degree sum.  Above n = 8192 they are built from the non-isolated nodes."""
    if g.n <= _ENUM_LIMIT:
        codes = _all_non_edges(g)
    else:
        active, isolated = np.flatnonzero(g.degrees), np.flatnonzero(g.degrees == 0)
        _check_cap(active.size * (active.size - 1) // 2 + active.size * isolated.size)
        iu, ju = np.triu_indices(active.size, k=1)
        a, b = np.repeat(active, isolated.size), np.tile(isolated, active.size)
        pairs = (active[iu] * g.n + active[ju], np.minimum(a, b) * g.n + np.maximum(a, b))
        codes = np.sort(np.concatenate(pairs))
        codes = codes[np.isin(codes, g.codes(), assume_unique=True, invert=True)]
    weights = (g.degrees[codes // g.n] + g.degrees[codes % g.n]).astype(np.float64)
    keep = weights > 0
    return codes[keep], weights[keep]


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


def edge_weights(g: Graph, mechanism: str) -> NonEdgeWeights:
    """Positive attachment weights over the non-edges of g.

    random lists every non-edge and hierarchical every non-edge with a
    non-isolated end; similarity/combined list the pairs with shared
    neighbours.  A map that lists none degrades to uniform over every
    non-edge, with a logged notice.  Listing more candidate pairs than a
    graph on 8192 nodes has raises ``ValueError``.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if mechanism == "random":
        codes = _all_non_edges(g)
        weights = np.ones(codes.size, dtype=np.float64)
    elif mechanism == "hierarchical":
        codes, weights = _hierarchical_weights(g)
    else:
        codes, weights = _shared_neighbour_weights(g, mechanism)
    if codes.size or non_edge_count(g) == 0:
        return NonEdgeWeights(codes, weights)
    log.warning("all %s weights zero; falling back to uniform attachment", mechanism)
    if g.n > _ENUM_LIMIT:
        return NonEdgeWeights(codes, weights, uniform_fallback=True)
    codes = _all_non_edges(g)
    return NonEdgeWeights(codes, np.ones(codes.size, dtype=np.float64), uniform_fallback=True)


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


def _draw(
    g: Graph, codes: np.ndarray, weights: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Codes of ``count`` distinct non-edges, by successive sampling on ``weights``.

    The smallest ``count`` keys Exp(1)/w win (Efraimidis & Spirakis, IPL
    97(5), 2006).  When fewer pairs are listed, all are taken and the rest
    are drawn uniformly among the other non-edges.
    """
    keys = rng.exponential(size=codes.size) / weights
    if count <= codes.size:
        return codes[np.argpartition(keys, count - 1)[:count]]
    if codes.size:
        log.warning("only %d positive-weight candidates for %d requested edges; "
                    "topping up uniformly", codes.size, count)
    if g.n <= _ENUM_LIMIT:
        others = np.setdiff1d(_all_non_edges(g), codes, assume_unique=True)
        extra = rng.choice(others, size=count - codes.size, replace=False)
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
        wmap = edge_weights(g, mechanism)
        new = _draw(g, wmap.codes, wmap.weights, count, rng)
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
