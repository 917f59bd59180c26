"""Edge-attachment mechanisms and density-growth sweeps.

Four rules weigh the currently absent pairs:

* ``random``        -- every non-edge weight 1.
* ``hierarchical``  -- degree sum k_i + k_j.
* ``similarity``    -- Jaccard overlap |g_i & g_j| / |g_i | g_j|.
* ``combined``      -- raw common-neighbour count |g_i & g_j|.

A batch step picks its edges by successive sampling (one at a time, each with
probability weight over the weight still open) on the weights frozen at the
start of the step.  A batch that needs every positive-weight non-edge takes
them all and draws the rest uniformly; a map with no positive weight falls
back to uniform attachment with a logged notice.  A sweep returns one
``SweepStep`` (fraction, edge count, R-hat) per fraction.  ``add_edges``
splices the codes D it drew into the graph it grows (``graph._splice``),
so a step costs a search per new edge and one copy of the arrays, not a
sort of every edge, and the grown graph keeps its codes.  A sweep carries
the shared-neighbour pairs and counts from step to step: ``add_edges``
updates them from D, by (A + D)^2 = A^2 + DA + AD + D^2, and they start
from one ``A @ A`` per base graph, kept read-only so that the similarity
and combined sweeps of one base share it.  The counts are exact integers,
so each step sees the weights a rebuild would give.  Each weighting has
one draw, used at every n:

* uniform (random, top-ups, fallbacks): distinct ranks among the open pairs,
  mapped to pair codes in O(m + count) without listing them;
* degree sum: one end with probability k_i / 2m, the other uniformly among
  the other nodes, rejecting edges and repeats;
* shared neighbours: keys Exp(1)/w over the sparse block of pairs with a
  common neighbour, the smallest win (Efraimidis & Spirakis, IPL 97(5), 2006).
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .complexity import nhc_global
from .graph import Graph, _non_edge_blocks, _nth_non_edges, _ranges, _splice, complement_codes

__all__ = [
    "MECHANISMS",
    "NonEdgeWeights",
    "edge_weights",
    "add_edges",
    "density_sweep",
    "SweepStep",
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


def _find(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Insertion points of ``x`` in the ascending array ``a``, and a mask of
    the values of ``x`` found there."""
    pos = np.searchsorted(a, x)
    if a.size == 0:
        return pos, np.zeros(x.size, dtype=bool)
    return pos, a[pos.clip(max=a.size - 1)] == x


# graph -> the codes and counts of its shared-neighbour pairs, read-only, so
# that the similarity and combined sweeps of one base build them once; the
# one entry goes with its graph or at the next graph's build, so a driver
# that holds all its bases holds one base's pairs
_BUILT: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class _SharedPairs:
    """The non-adjacent pairs of a graph with >= 1 shared neighbour: their
    ascending ``codes`` and shared ``counts`` (exact integers in float64).
    They start from one ``A @ A`` per graph, kept read-only in a memo;
    ``add_edges`` grows them into new arrays."""

    def __init__(self, g: Graph) -> None:
        built = _BUILT.get(g)
        if built is None:
            _BUILT.clear()
            built = _BUILT[g] = self._build(g)
        self.codes, self.counts = built

    @staticmethod
    def _build(g: Graph) -> tuple[np.ndarray, np.ndarray]:
        from scipy import sparse

        a = sparse.csr_matrix(
            (np.ones(g.indices.size, dtype=np.float64), g.indices, g.indptr),
            shape=(g.n, g.n),
        )
        c = a @ a
        # the pairs u < v of the product, by a mask on its CSR rows
        rows = np.repeat(np.arange(g.n, dtype=c.indices.dtype), np.diff(c.indptr))
        upper = c.indices > rows
        codes = rows[upper].astype(np.int64)
        del rows
        codes *= g.n
        codes += c.indices[upper]
        counts = c.data[upper]
        del c, upper
        order = np.argsort(codes)
        codes, counts = codes[order], counts[order]
        del order
        pos, edge = _find(codes, g.codes())  # drop the pairs that are edges
        codes, counts = np.delete(codes, pos[edge]), np.delete(counts, pos[edge])
        codes.setflags(write=False)
        counts.setflags(write=False)
        return codes, counts

    def weights(self, g: Graph, mechanism: str) -> np.ndarray:
        """The Jaccard overlap (similarity) or the shared count (combined)
        of each pair, in g."""
        codes, counts = self.codes, self.counts
        if mechanism == "combined":
            return counts
        # codes ascend, so each pair's lower end u comes in runs: deg[u] and
        # u * n by np.repeat, with no division; at most two pair-sized
        # temporaries are alive at once
        runs = np.diff(np.searchsorted(codes, np.arange(g.n + 1) * g.n))
        hi = np.repeat(np.arange(g.n) * g.n, runs)
        np.subtract(codes, hi, out=hi)
        deg_sum = g.degrees[hi]
        del hi
        deg_sum += np.repeat(g.degrees, runs)
        union = np.subtract(deg_sum, counts)
        del deg_sum
        return np.divide(counts, union, out=union)

    def grow(self, g: Graph, new: np.ndarray, codes: np.ndarray) -> None:
        """Update the pairs of g to those of h, g plus the new edges D with
        codes ``new`` (u < v, any order), where ``codes`` are h's ascending
        edge codes: (A + D)^2 = A^2 + DA + AD + D^2, so a pair gains one
        count per two-hop path through a new edge.  Each array is replaced
        as soon as its update is ready, so the old one can go; only fresh
        copies are written in place, so the memoised arrays stay as built."""
        n = g.n
        # each new edge from both ends, ascending
        centre, outer = np.divmod(np.sort(np.concatenate((new, new % n * n + new // n))), n)
        # paths outer - centre - x through a new edge and an old one
        a = np.repeat(outer, g.degrees[centre])
        b = g.indices[_ranges(g.indptr[centre], g.degrees[centre])]
        # paths outer - centre - later through two new edges
        later = np.searchsorted(centre, centre, side="right") - np.arange(centre.size) - 1
        a = np.concatenate((a, np.repeat(outer, later)))
        b = np.concatenate((b, outer[_ranges(np.arange(centre.size) + 1, later)]))
        paths = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
        starts = np.flatnonzero(np.diff(paths, prepend=-1))
        gained, gain = paths[starts], np.diff(np.r_[starts, paths.size]).astype(np.float64)
        # drop the pairs that became edges, then merge in the gains
        pos, found = _find(self.codes, new)
        self.codes = np.delete(self.codes, pos[found])
        self.counts = np.delete(self.counts, pos[found])
        pos, hit = _find(self.codes, gained)
        self.counts[pos[hit]] += gain[hit]
        # a gained pair not carried is an edge of h or has its first shared neighbour
        fresh = ~hit
        fresh[fresh] = ~_find(codes, gained[fresh])[1]
        self.codes = np.insert(self.codes, pos[fresh], gained[fresh])
        self.counts = np.insert(self.counts, pos[fresh], gain[fresh])


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
        pairs = _SharedPairs(g)
        if not _falls_back(g, mechanism, pairs.codes.size):
            return NonEdgeWeights(pairs.codes, pairs.weights(g, mechanism))
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
    closed = np.sort(np.concatenate((g.codes(), taken))) if taken.size else g.codes()
    return _nth_non_edges(g.n, closed, nth)


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
        new = new[~_find(edges, new)[1]]
        new = new[np.sort(np.unique(new, return_index=True)[1])]
        new = new[~np.isin(new, out, kind="sort")]
        out = np.concatenate((out, new[: count - out.size]))
    return out


def _by_keys(g: Graph, mechanism: str, count: int, rng: np.random.Generator,
             pairs: _SharedPairs) -> np.ndarray:
    """Codes of ``count`` distinct non-edges by successive sampling on the
    shared-neighbour weights of g's ``pairs``: the smallest keys Exp(1)/w
    win."""
    codes = pairs.codes
    if _falls_back(g, mechanism, codes.size):
        return _uniform(g, codes, count, rng)
    keys = rng.exponential(size=codes.size)
    keys /= pairs.weights(g, mechanism)
    if count <= codes.size:
        return codes[np.argpartition(keys, count - 1)[:count]]
    return _take_all(g, codes, count, rng)


def add_edges(g: Graph, mechanism: str, count: int, seed: int, *,
              pairs: _SharedPairs | None = None) -> Graph:
    """New graph with ``count`` extra edges drawn by the given mechanism,
    spliced into g.

    ``pairs`` holds g's shared-neighbour pairs and counts, as a sweep
    carries them, and is grown to those of the new graph from the edges
    drawn; similarity and combined start them from g's ``A @ A`` when it is
    omitted.
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
    if mechanism == "random":
        new = _uniform(g, np.empty(0, np.int64), count, rng)
    elif mechanism == "hierarchical":
        new = _by_degree(g, count, rng)
    else:
        new = _by_keys(g, mechanism, count, rng, _SharedPairs(g) if pairs is None else pairs)
    new = np.sort(new)
    if (new[1:] == new[:-1]).any() or _find(g.codes(), new)[1].any():
        raise AssertionError("attachment produced an overlapping edge")
    h = _splice(g, new)
    if pairs is not None:
        pairs.grow(g, new, h.codes())
    return h


class SweepStep(NamedTuple):
    fraction: float
    edge_count: int
    value: float


DEFAULT_FRACTIONS = tuple(i / 1000 for i in range(21))  # 0, 0.001, ..., 0.020


def density_sweep(
    g: Graph,
    mechanism: str,
    fractions=DEFAULT_FRACTIONS,
    seed: int = 0,
) -> tuple[SweepStep, ...]:
    """Grow g towards round(m0 * (1 + f)) edges for each fraction f, and
    return one step per fraction.

    Each step draws on the weights of the graph it starts from; the measure
    is recorded after each step, including the f=0 baseline.  Similarity
    and combined start the shared-neighbour pairs and counts from g's
    ``A @ A`` before the first step, and ``add_edges`` grows them from each
    step's new edges.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    fr = [float(f) for f in fractions]
    if not fr:
        raise ValueError("fractions must be non-empty")
    if any(f < 0 for f in fr) or any(b < a for a, b in zip(fr, fr[1:])):
        raise ValueError("fractions must be non-negative and non-decreasing")
    m0 = g.m
    master = np.random.default_rng(seed)
    step_seeds = master.integers(0, 2**63, size=len(fr))
    pairs = _SharedPairs(g) if mechanism in ("similarity", "combined") else None
    cur = g
    steps: list[SweepStep] = []
    for i, f in enumerate(fr):
        need = int(round(m0 * (1.0 + f))) - cur.m
        if need > 0:
            cur = add_edges(cur, mechanism, need, int(step_seeds[i]), pairs=pairs)
        steps.append(SweepStep(f, cur.m, nhc_global(cur)))
    return tuple(steps)
