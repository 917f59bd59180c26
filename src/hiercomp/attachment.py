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
from .graph import Graph, complement_codes, from_codes

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

# Dense non-edge enumeration is O(n^2) memory; beyond this add_edges samples
# by rejection instead.
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


def _all_non_edges(g: Graph) -> np.ndarray:
    if g.n > _ENUM_LIMIT:
        raise ValueError(f"non-edge enumeration capped at n={_ENUM_LIMIT}")
    return complement_codes(g.n, g.codes())


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
    """Attachment weights over the non-edges of g.

    similarity/combined enumerate only pairs with shared neighbours (all
    other non-edges weigh 0); if no candidate has positive weight the whole
    map degrades to uniform over every non-edge, with a logged notice.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if mechanism in ("random", "hierarchical"):
        codes = _all_non_edges(g)
        if mechanism == "random":
            weights = np.ones(codes.size, dtype=np.float64)
        else:
            weights = (g.degrees[codes // g.n] + g.degrees[codes % g.n]).astype(np.float64)
    else:
        codes, weights = _shared_neighbour_weights(g, mechanism)
    uniform = bool(weights.sum() <= 0.0) and non_edge_count(g) > 0
    if uniform:
        log.warning("all %s weights zero; falling back to uniform attachment", mechanism)
        codes = _all_non_edges(g)
        weights = np.ones(codes.size, dtype=np.float64)
    return NonEdgeWeights(np.column_stack(np.divmod(codes, g.n)), weights, uniform)


def _warn_top_up(mechanism: str, n_pos: int, count: int) -> None:
    if n_pos == 0:
        log.warning("all %s weights zero; falling back to uniform attachment", mechanism)
    else:
        log.warning("only %d positive-weight candidates for %d requested edges; "
                    "topping up uniformly", n_pos, count)


def _weighted_sample_without_replacement(
    codes: np.ndarray, weights: np.ndarray, count: int, rng: np.random.Generator, mechanism: str
) -> np.ndarray:
    """Exponential-key trick: smallest count keys of Exp(1)/w."""
    positive = weights > 0
    n_pos = int(positive.sum())
    keys = np.full(weights.size, np.inf)
    keys[positive] = rng.exponential(size=n_pos) / weights[positive]
    if count <= n_pos:
        sel = np.argpartition(keys, count - 1)[:count]
        return codes[sel]
    _warn_top_up(mechanism, n_pos, count)
    zero_idx = np.flatnonzero(~positive)
    extra = rng.choice(zero_idx, size=count - n_pos, replace=False)
    return codes[np.concatenate((np.flatnonzero(positive), extra))]


def _rejection_sample(
    g: Graph, count: int, rng: np.random.Generator, node_p: np.ndarray | None = None,
    nodes: np.ndarray | None = None, taken: np.ndarray | None = None,
) -> np.ndarray:
    """Codes of ``count`` distinct non-edges, drawn without O(n^2) enumeration.

    With ``node_p`` one end is drawn from it and the other uniformly among
    the remaining nodes (degree-sum weighting); otherwise both ends are
    uniform over ``nodes`` (default: every node).  Pairs in ``taken`` are
    rejected like edges and earlier picks.
    """
    n = g.n
    pool = np.arange(n) if nodes is None else nodes
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
            ii = pool[rng.integers(0, pool.size, size=batch)]
            jj = pool[rng.integers(0, pool.size, size=batch)]
        for i, j in zip(ii.tolist(), jj.tolist()):
            code = i * n + j if i < j else j * n + i
            if i == j or code in seen or g.has_edge(i, j):
                continue
            seen.add(code)
            out.append(code)
            if len(out) == count:
                break
    return np.array(out, dtype=np.int64)


def _sample_large(g: Graph, mechanism: str, count: int, rng: np.random.Generator) -> np.ndarray:
    """``add_edges``' draw above ``_ENUM_LIMIT``, where non-edges are not enumerated.

    As on the enumerated path, when fewer non-edges have positive weight
    than requested, all of them are taken and the rest are drawn uniformly
    among the zero-weight ones.
    """
    if mechanism == "random":
        return _rejection_sample(g, count, rng)
    if mechanism == "hierarchical":
        active = np.flatnonzero(g.degrees)
        isolated = np.flatnonzero(g.degrees == 0)
        if count <= non_edge_count(g) - isolated.size * (isolated.size - 1) // 2:
            return _rejection_sample(g, count, rng, node_p=g.degrees / g.degrees.sum())
        # every non-edge touching an active node, then pairs of isolated nodes
        iu, ju = np.triu_indices(active.size, k=1)
        inner = np.setdiff1d(active[iu] * g.n + active[ju], g.codes(), assume_unique=True)
        a, b = np.repeat(active, isolated.size), np.tile(isolated, active.size)
        chosen = np.concatenate((inner, np.minimum(a, b) * g.n + np.maximum(a, b)))
        nodes, taken = isolated, None
    else:
        chosen, weights = _shared_neighbour_weights(g, mechanism)
        if chosen.size >= count:
            return _weighted_sample_without_replacement(chosen, weights, count, rng, mechanism)
        nodes, taken = None, chosen
    _warn_top_up(mechanism, chosen.size, count)
    extra = _rejection_sample(g, count - chosen.size, rng, nodes=nodes, taken=taken)
    return np.concatenate((chosen, extra))


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
    if g.n > _ENUM_LIMIT:
        new = _sample_large(g, mechanism, count, rng)
    else:
        wmap = edge_weights(g, mechanism)
        codes, weights = wmap.pairs[:, 0] * g.n + wmap.pairs[:, 1], wmap.weights
        if codes.size < count:
            # candidate set (shared-neighbour pairs) smaller than the batch:
            # widen to every non-edge, keeping candidate weights.
            full = _all_non_edges(g)
            weights = np.zeros(full.size, dtype=np.float64)
            weights[np.searchsorted(full, codes)] = wmap.weights
            codes = full
        new = _weighted_sample_without_replacement(codes, weights, count, rng, mechanism)
    codes = np.unique(np.concatenate((g.codes(), new)))
    if codes.size != g.m + count:
        raise AssertionError("attachment produced an overlapping edge")
    return from_codes(g.n, codes)


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
