"""Undirected simple graphs in CSR form, tuned for neighbourhood-degree scans.

The central object of the package is the sorted list of neighbour degrees of
a node (its neighbourhood degree sequence, NDS).  Adjacency is therefore kept
as a CSR pair (indptr, indices) with neighbour ids sorted inside each row so
that NDS extraction is a single gather plus sort over a contiguous slice;
:func:`hiercomp.complexity.class_sigmas` does it for a whole degree class at
once.

Edge sets travel between modules in one format: ascending unique int64 pair
codes ``u * n + v`` with u < v.  :func:`from_codes` builds a :class:`Graph`
from codes by one sort of both directions of every edge, and
:meth:`Graph.codes` gives them back.  A graph that grows by a few edges,
as attachment grows it, is spliced from its parent instead (``_splice``):
the new entries go in at their ranks within their rows, with no sort of
the old ones, and the grown graph keeps its codes so that
:meth:`Graph.codes` need not recompute them.  The absent pairs are listed
here too, in ascending row blocks, or reached by rank without listing them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

# The complement is listed in ascending row blocks of about this many pairs,
# so a caller can hold one block, not every absent pair, at a time.
_BLOCK = 1 << 15

# spliced graph -> its ascending edge codes, read-only; an entry dies with
# its graph (Graph hashes by identity and is immutable)
_CODES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

__all__ = [
    "Graph",
    "build_graph",
    "from_codes",
    "sorted_unique",
    "complement_codes",
    "degree_support_d2",
    "component_count",
]


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph.

    Node ids are dense 0..n-1.  ``indices[indptr[i]:indptr[i+1]]`` holds the
    ascending neighbour ids of node ``i``.  ``labels`` optionally remembers
    the original labels of ingested files (index = dense id).
    """

    n: int
    m: int
    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray
    labels: tuple[str, ...] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        for arr in (self.indptr, self.indices, self.degrees):
            arr.setflags(write=False)

    @property
    def density(self) -> float:
        if self.n < 2:
            return 0.0
        return 2.0 * self.m / (self.n * (self.n - 1))

    def neighbors(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n:
            raise ValueError(f"node id {i} out of range for graph on {self.n} nodes")
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def has_edge(self, i: int, j: int) -> bool:
        row = self.neighbors(i)
        pos = np.searchsorted(row, j)
        return pos < row.size and row[pos] == j

    def codes(self) -> np.ndarray:
        """Ascending pair codes u * n + v (u < v) of the edges; read-only when
        the graph was spliced from a parent, which kept them."""
        kept = _CODES.get(self)
        if kept is not None:
            return kept
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        keep = self.indices > rows
        return rows[keep] * self.n + self.indices[keep]

    def edge_array(self) -> np.ndarray:
        """Canonical (m, 2) edge array: u < v, lexicographically ascending."""
        return np.column_stack(np.divmod(self.codes(), self.n))


def build_graph(edges, n_hint: int | None = None) -> Graph:
    """Validate and canonicalise an edge collection into a :class:`Graph`.

    Self-loops are dropped, duplicate/reversed pairs collapse to one edge.
    ``n_hint`` fixes the node count (retaining trailing isolated nodes);
    otherwise n = max id + 1.
    """
    uv = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    del edges  # the del uv below then frees an array the caller no longer holds
    if uv.size == 0:
        if n_hint is None:
            raise ValueError("empty graph: no edges and no n_hint")
        uv = uv.reshape(0, 2)
    if uv.ndim != 2 or uv.shape[1] != 2:
        raise ValueError("edges must be pairs")
    if uv.size and uv.min() < 0:
        raise ValueError("node ids must be non-negative")
    max_id = int(uv.max()) if uv.size else -1
    if n_hint is not None:
        if n_hint < 1:
            raise ValueError("empty graph: n_hint must be positive")
        if max_id >= n_hint:
            raise ValueError(f"node id {max_id} out of range for n_hint={n_hint}")
        n = int(n_hint)
    else:
        n = max_id + 1
    # codes lo * n + hi built in place; each array goes as soon as it is used
    codes = np.minimum(uv[:, 0], uv[:, 1])
    hi = np.maximum(uv[:, 0], uv[:, 1])
    del uv
    loop = codes == hi
    codes *= n
    codes += hi
    del hi
    if loop.any():
        codes = codes[~loop]
    del loop
    codes = sorted_unique(codes)
    return from_codes(n, codes)


def sorted_unique(codes: np.ndarray) -> np.ndarray:
    """Ascending distinct values of an int64 array, which it sorts in place,
    by a sort and an adjacent-equal mask (numpy's ``np.unique`` hashes int64,
    far slower)."""
    codes.sort()
    keep = np.ones(codes.size, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def from_codes(n: int, codes: np.ndarray, labels=None) -> Graph:
    """Graph on n nodes from ascending unique pair codes u * n + v, u < v.

    Each edge is written from both ends, u * n + v and v * n + u; one sort
    of both lines up every row, its neighbours ascending.
    """
    n = int(n)
    codes = np.asarray(codes, dtype=np.int64)
    lo, hi = np.divmod(codes, n)
    degrees = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.empty(2 * codes.size, dtype=np.int64)
    indices[:codes.size] = codes
    reverse = indices[codes.size:]  # v * n + u, written in place
    np.multiply(hi, n, out=reverse)
    reverse += lo
    del lo, hi, reverse
    indices.sort()
    indices %= n
    return Graph(n=n, m=int(codes.size), indptr=indptr, indices=indices,
                 degrees=degrees, labels=labels)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + l)`` over ``zip(starts, lengths)``."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))


def _splice(g: Graph, new: np.ndarray) -> Graph:
    """g plus the edges of ``new``, ascending unique codes of non-edges of g:
    the graph ``from_codes(g.n, union, labels=g.labels)`` would build, with
    no sort of g's entries.  Each new entry goes in at its rank within its
    row, found by a search of the old entries of the rows it joins; the
    union codes are kept for :meth:`Graph.codes`."""
    n = g.n
    lo, hi = np.divmod(new, n)
    # each new edge from both ends, as row * n + col, ascending
    rows, cols = np.divmod(np.sort(np.concatenate((new, hi * n + lo))), n)
    # the old entries of the rows that gain one, as row * n + col, ascending
    joined = rows[np.flatnonzero(np.diff(rows, prepend=-1))]
    old = np.repeat(joined * n, g.degrees[joined])
    old += g.indices[_ranges(g.indptr[joined], g.degrees[joined])]
    # old entries of the row before the new one, from the row's start
    rank = np.searchsorted(old, rows * n + cols) - np.searchsorted(old, rows * n)
    indices = np.insert(g.indices, g.indptr[rows] + rank, cols)
    degrees = g.degrees + np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    parent = g.codes()
    codes = np.insert(parent, np.searchsorted(parent, new), new)
    codes.setflags(write=False)
    h = Graph(n=n, m=g.m + int(new.size), indptr=indptr, indices=indices,
              degrees=degrees, labels=g.labels)
    _CODES[h] = codes
    return h


def _row_starts(n: int) -> np.ndarray:
    """Rank of pair (u, u + 1) among the pairs u < v in ascending code order."""
    u = np.arange(n, dtype=np.int64)
    return u * (2 * n - u - 1) // 2


def _non_edge_blocks(n: int, codes: np.ndarray):
    """Ascending codes of the pairs on n nodes that are not in ``codes``
    (ascending), one block of rows of about ``_BLOCK`` pairs at a time."""
    starts = _row_starts(n)
    u0 = 0
    while u0 < n - 1:
        u1 = min(n - 1, max(u0 + 1, int(np.searchsorted(starts, starts[u0] + _BLOCK))))
        absent = np.arange(n) > np.arange(u0, u1)[:, None]
        lo, hi = np.searchsorted(codes, (u0 * n, u1 * n))
        absent.ravel()[codes[lo:hi] - u0 * n] = False
        yield np.flatnonzero(absent) + u0 * n
        u0 = u1


def complement_codes(n: int, codes: np.ndarray) -> np.ndarray:
    """Ascending codes of the pairs on n nodes that are not in ``codes``
    (ascending)."""
    return np.concatenate([np.empty(0, np.int64), *_non_edge_blocks(n, codes)])


def _nth_non_edges(n: int, codes: np.ndarray, nth: np.ndarray) -> np.ndarray:
    """Codes of the nth (0-based) pairs, in ascending code order, among the
    pairs on n nodes that are not in ``codes`` (ascending), without listing
    them."""
    starts = _row_starts(n)
    u, v = np.divmod(codes, n)
    # pairs that are not in codes and rank before each code
    before = starts[u] + (v - u - 1) - np.arange(codes.size)
    rank = nth + np.searchsorted(before, nth, side="right")
    u = np.searchsorted(starts, rank, side="right") - 1
    return u * n + (rank - starts[u] + u + 1)


def degree_support_d2(g: Graph) -> np.ndarray:
    """Ascending degrees k >= 1 held by at least two nodes."""
    counts = np.bincount(g.degrees)
    ks = np.flatnonzero(counts >= 2)
    return ks[ks >= 1]


def component_count(g: Graph) -> int:
    """Number of connected components (isolated nodes count individually).

    The adjacency is symmetric, so its strong components are its
    components: scipy counts them on the CSR as given, with no transpose.
    Below 2**31 entries the CSR is handed over as int32 with float64
    weights, the types scipy would otherwise convert it to.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    if g.n == 0:
        return 0
    ids = np.int32 if g.indices.size < 2**31 else np.int64
    a = csr_matrix((np.ones(g.indices.size), g.indices.astype(ids), g.indptr.astype(ids)),
                   shape=(g.n, g.n))
    count, _ = connected_components(a, directed=True, connection="strong")
    return int(count)
