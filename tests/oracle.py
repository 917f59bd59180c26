"""Naive reference implementations used as independent oracles.

Everything here is written directly from the definitions, in plain Python
(dicts, sets, math.fsum), on purpose: the production package is numpy-based
and these routines must not share code with it.  Slow is fine; these only
run on small graphs inside the test suite.  The exceptions are earlier
versions of production paths, kept in numpy as references for their
replacements (the row-wise er draw of one uniform per pair, the all-pairs
geometric scan, the per-pair rejection loop of degree-sum attachment, the
stub-pairing repair that makes one numpy draw per attempt).
"""

from __future__ import annotations

import math
import re
from collections import Counter, deque
from fractions import Fraction
from pathlib import Path

import numpy as np


def adjacency(n: int, edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for u, v in edges:
        if u == v:
            continue
        adj[u].add(v)
        adj[v].add(u)
    return adj


def component_count_naive(adj) -> int:
    """Connected components of an adjacency dict, by breadth-first search."""
    seen: set[int] = set()
    count = 0
    for root in adj:
        if root in seen:
            continue
        count += 1
        seen.add(root)
        queue = deque([root])
        while queue:
            for v in adj[queue.popleft()]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return count


def edge_count(adj) -> int:
    return sum(len(s) for s in adj.values()) // 2


def density(adj) -> float:
    n = len(adj)
    if n < 2:
        return 0.0
    return 2.0 * edge_count(adj) / (n * (n - 1))


def nds(adj, i) -> list[int]:
    """Ascending degrees of i's neighbours."""
    return sorted(len(adj[j]) for j in adj[i])


def degree_classes(adj) -> dict[int, list[int]]:
    """k -> ascending node ids of degree k, for k >= 1 held by >= 2 nodes."""
    by_k: dict[int, list[int]] = {}
    for i in sorted(adj):
        k = len(adj[i])
        by_k.setdefault(k, []).append(i)
    return {k: v for k, v in by_k.items() if k >= 1 and len(v) >= 2}


def column_variances(rows: list[list[int]], sample: bool = False) -> list[float]:
    ell = len(rows)
    out = []
    for j in range(len(rows[0])):
        col = [r[j] for r in rows]
        mu = math.fsum(col) / ell
        ss = math.fsum((x - mu) ** 2 for x in col)
        out.append(ss / (ell - 1) if sample else ss / ell)
    return out


def r_k(adj, k, sample: bool = False) -> float:
    nodes = degree_classes(adj)[k]
    rows = [nds(adj, i) for i in nodes]
    return math.fsum(column_variances(rows, sample)) / k


def r_global(adj, sample: bool = False) -> float:
    ks = degree_classes(adj)
    if not ks:
        return 0.0
    return math.fsum(r_k(adj, k, sample) for k in ks) / len(ks)


def r_hat_k(adj, k, sample: bool = False) -> float:
    nodes = degree_classes(adj)[k]
    rows = [nds(adj, i) for i in nodes]
    sig = math.fsum(math.sqrt(v) for v in column_variances(rows, sample))
    return sig / ((1.0 - density(adj)) * edge_count(adj))


def r_hat_global(adj, sample: bool = False) -> float:
    if density(adj) == 1.0:
        return 0.0
    ks = degree_classes(adj)
    if not ks:
        return 0.0
    return math.fsum(r_hat_k(adj, k, sample) for k in ks) / len(ks)


def r_hat_sqrtk_global(adj, sqrt_m: bool = False) -> float:
    """Comparison variants that divide per-class sigma sums by sqrt(k)."""
    if density(adj) == 1.0:
        return 0.0
    ks = degree_classes(adj)
    if not ks:
        return 0.0
    m = edge_count(adj)
    denom = (1.0 - density(adj)) * (math.sqrt(m) if sqrt_m else m)
    vals = []
    for k, nodes in ks.items():
        rows = [nds(adj, i) for i in nodes]
        sig = math.fsum(math.sqrt(v) for v in column_variances(rows))
        vals.append(sig / (math.sqrt(k) * denom))
    return math.fsum(vals) / len(ks)


def class_sigmas_naive(n: int, edges, ddof: int = 0) -> dict[int, np.ndarray]:
    """k -> the column sds of the degree-k NDS matrix, by ``ndarray.std``."""
    adj = adjacency(n, edges)
    return {k: np.array([nds(adj, i) for i in nodes], dtype=np.float64).std(axis=0, ddof=ddof)
            for k, nodes in sorted(degree_classes(adj).items())}


def class_table_naive(n: int, edges, ddof: int = 0) -> dict[int, tuple[int, float, float]]:
    """k -> (class size, sum of sds, sum of squared sds), the sums as
    ``sigma.sum()`` and ``np.square(sigma).sum()`` give them."""
    classes = degree_classes(adjacency(n, edges))
    return {k: (len(classes[k]), float(sig.sum()), float(np.square(sig).sum()))
            for k, sig in class_sigmas_naive(n, edges, ddof).items()}


# ---------------------------------------------------------------------------
# attachment weights, straight from the definitions


def nonedge_weights(adj, mechanism: str) -> dict[tuple[int, int], float]:
    n = len(adj)
    out: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            if j in adj[i]:
                continue
            gi, gj = adj[i], adj[j]
            if mechanism == "random":
                w = 1.0
            elif mechanism == "hierarchical":
                w = float(len(gi) + len(gj))
            elif mechanism == "similarity":
                un = len(gi | gj)
                w = len(gi & gj) / un if un else 0.0
            elif mechanism == "combined":
                w = float(len(gi & gj))
            else:
                raise ValueError(mechanism)
            out[(i, j)] = w
    return out


# ---------------------------------------------------------------------------
# graphicality by the Erdos-Gallai inequalities, one k at a time


def erdos_gallai_violation(degrees) -> int | None:
    """First k (degrees sorted descending) with sum(d[:k]) > k(k-1) +
    sum(min(d_i, k) for i >= k), or None when every inequality holds."""
    d = sorted(degrees, reverse=True)
    for k in range(1, len(d) + 1):
        if sum(d[:k]) > k * (k - 1) + sum(min(x, k) for x in d[k:]):
            return k
    return None


# ---------------------------------------------------------------------------
# edge-list reader, one line at a time

_NODES_HINT = re.compile(r"nodes\s*:?\s*(\d+)", re.IGNORECASE)


def read_edgelist_naive(path) -> tuple[tuple[str, ...], int, set]:
    """(labels, n, edges) of an edge-list file, or the reader's ValueError.

    Labels come in first-appearance order; edges are (u, v) id pairs, u < v.
    """
    lines = Path(path).read_text().splitlines()
    mm = bool(lines) and lines[0].lstrip().startswith("%%MatrixMarket")
    hint = None
    labels: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    saw_size_line = False
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#") or line.startswith("%"):
            m = _NODES_HINT.search(line)
            if m:
                hint = int(m.group(1))
            continue
        tokens = line.split()
        if mm and not saw_size_line:
            saw_size_line = True
            if len(tokens) == 3:
                continue  # rows cols nnz
        if len(tokens) == 2 or (mm and len(tokens) == 3):
            a, b = tokens[0], tokens[1]
        else:
            raise ValueError(f"{path}: malformed line {lineno}: {raw!r}")
        for lab in (a, b):
            if lab not in labels:
                labels[lab] = len(labels)
        pairs.append((labels[a], labels[b]))
    if not pairs and hint is None:
        raise ValueError(f"{path}: empty file")
    n = max(len(labels), hint or 0) if (pairs or hint) else 0
    if n < 1:
        raise ValueError("empty graph: n_hint must be positive")
    edges = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    return tuple(labels), n, edges


# ---------------------------------------------------------------------------
# rank correlation by definition: average ranks, then Pearson


def ranks_naive(xs) -> list[float]:
    out = []
    for x in xs:
        less = sum(1 for y in xs if y < x)
        equal = sum(1 for y in xs if y == x)
        out.append(less + (equal + 1) / 2.0)
    return out


def pearson_naive(xs, ys) -> float:
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    cov = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = math.fsum((x - mx) ** 2 for x in xs)
    vy = math.fsum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


def spearman_naive(xs, ys) -> float:
    return pearson_naive(ranks_naive(xs), ranks_naive(ys))


# ---------------------------------------------------------------------------
# exact rational variants for freezing fixture constants

def r_hat_global_exact(adj) -> Fraction:
    """Exact R-hat when every column sd is rational (fixture use only)."""
    ks = degree_classes(adj)
    m = edge_count(adj)
    n = len(adj)
    d = Fraction(2 * m, n * (n - 1))
    total = Fraction(0)
    for k, nodes in ks.items():
        rows = [nds(adj, i) for i in nodes]
        sig = Fraction(0)
        for j in range(k):
            col = [r[j] for r in rows]
            ell = len(col)
            mu = Fraction(sum(col), ell)
            var = sum((Fraction(x) - mu) ** 2 for x in col) / ell
            root = _sqrt_fraction(var)
            if root is None:
                raise ValueError("irrational sd; use float oracle")
            sig += root
        total += sig / ((1 - d) * m)
    return total / len(ks)


def _sqrt_fraction(q: Fraction) -> Fraction | None:
    if q == 0:
        return Fraction(0)
    pn, pd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if pn * pn == q.numerator and pd * pd == q.denominator:
        return Fraction(pn, pd)
    return None


# ---------------------------------------------------------------------------
# er, one uniform per pair


def er_rowwise(n: int, p: float, seed: int) -> np.ndarray:
    """Ascending pair codes of an er graph drawn one uniform per pair, row by
    row: pair (u, v) is an edge when its uniform is below p.  O(n^2) draws;
    the distribution reference for ``generators.gen_er``."""
    rng = np.random.default_rng(seed)
    rows = [np.flatnonzero(rng.random(n - 1 - i) < p) + (i * n + i + 1) for i in range(n - 1)]
    return np.concatenate(rows) if rows else np.empty(0, np.int64)


# ---------------------------------------------------------------------------
# geometric top-m selection by an all-pairs scan


def _keep_top_naive(w, c, m):
    if w.size <= m:
        return w, c
    part = np.partition(w, w.size - m)
    thresh = part[w.size - m]
    sel = np.flatnonzero(w > thresh)
    need = m - sel.size
    if need > 0:
        ties = np.flatnonzero(w == thresh)
        ties = ties[np.argsort(c[ties], kind="stable")[:need]]
        sel = np.concatenate((sel, ties))
    return w[sel], c[sel]


def geometric_top_m_naive(pts, m: int, strengths=None):
    """Ascending pair codes of the m heaviest pairs: every pair's weight
    1/dist (times s_i + s_j) in row blocks, ties cut by ascending code."""
    n = pts.shape[0]
    if m == 0:
        return np.empty(0, np.int64)
    best_w = np.empty(0, dtype=np.float64)
    best_c = np.empty(0, dtype=np.int64)
    block = max(1, 2_000_000 // max(n, 1))
    for i0 in range(0, n - 1, block):
        i1 = min(i0 + block, n - 1)
        diff = pts[i0:i1, None, :] - pts[None, :, :]
        d2 = np.einsum("rjq,rjq->rj", diff, diff)
        rows, cols = np.nonzero(np.arange(n)[None, :] > (i0 + np.arange(i1 - i0))[:, None])
        ii = rows + i0
        jj = cols
        inv = 1.0 / np.sqrt(d2[rows, cols])
        w = inv if strengths is None else inv * (strengths[ii] + strengths[jj])
        c = ii * np.int64(n) + jj
        best_w, best_c = _keep_top_naive(
            np.concatenate((best_w, w)), np.concatenate((best_c, c)), m)
    return np.sort(best_c)


# ---------------------------------------------------------------------------
# attachment draws, one non-edge at a time or from the listed complement


def rejection_sample(g, count: int, rng, node_p=None, taken=None):
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


def uniform_naive(g, taken, count: int, rng):
    """Codes of ``count`` distinct non-edges of g outside ``taken``: the
    ascending complement, indexed by ``rng.choice`` draws."""
    n = g.n
    closed = set(g.codes().tolist()) | set(np.asarray(taken).tolist())
    others = [u * n + v for u in range(n) for v in range(u + 1, n) if u * n + v not in closed]
    picks = rng.choice(len(others), size=count, replace=False)
    return np.array(others, dtype=np.int64)[picks]


def draw_naive(g, mechanism: str, count: int, seed: int):
    """Ascending edge codes of g plus ``count`` new similarity or combined
    edges: keys Exp(1)/w over the positive weights of :func:`nonedge_weights`
    in ascending code order, the smallest ``count`` keys win, and a shortfall
    (or a map with no positive weight) is drawn by :func:`uniform_naive`."""
    n = g.n
    weights = nonedge_weights(adjacency(n, g.edge_array().tolist()), mechanism)
    positive = sorted((u * n + v, w) for (u, v), w in weights.items() if w > 0)
    codes = np.array([c for c, _ in positive], dtype=np.int64)
    rng = np.random.default_rng(seed)
    if codes.size == 0:
        new = uniform_naive(g, codes, count, rng)
    else:
        keys = rng.exponential(size=codes.size) / np.array([w for _, w in positive])
        if count <= codes.size:
            new = codes[np.argsort(keys)[:count]]
        else:
            new = np.concatenate((codes, uniform_naive(g, codes, count - codes.size, rng)))
    return np.sort(np.concatenate((g.codes(), new)))


# ---------------------------------------------------------------------------
# configuration-model repair, one numpy draw per random number


def pair_and_repair_naive(deg: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Ascending pair codes of a simple graph with degree sequence deg: the
    stub pairing and double-edge-swap repair that ``generators`` draws in key
    blocks, drawing each attempt's key 2j + flip through ``rng.integers(2m)``
    alone."""
    n = deg.size
    stubs = np.repeat(np.arange(n, dtype=np.int64), deg)
    rng.shuffle(stubs)
    half = stubs.reshape(-1, 2)
    edges: list[int] = (half.min(axis=1) * n + half.max(axis=1)).tolist()
    m = len(edges)
    if m == 0:
        return np.empty(0, np.int64)
    count: Counter[int] = Counter(edges)

    def is_bad(code: int) -> bool:
        return code % (n + 1) == 0 or count[code] > 1  # u*n + u = u*(n+1)

    max_attempts = 100 * m
    attempts = 0
    while True:
        bad = [idx for idx, code in enumerate(edges) if is_bad(code)]
        if not bad:
            return np.sort(np.array(edges, dtype=np.int64))
        for idx in bad:
            if not is_bad(edges[idx]):
                continue
            while True:
                if attempts >= max_attempts:
                    raise ValueError(
                        f"degree sequence is graphical, but the double-edge-swap repair gave "
                        f"up after {100 * m} attempts (cap: 100 per edge); another seed may "
                        f"realise it")
                attempts += 1
                key = int(rng.integers(2 * m))
                j = key >> 1
                if j == idx:
                    continue
                a, b = divmod(edges[idx], n)
                c, d = divmod(edges[j], n)
                if key & 1:
                    c, d = d, c
                if a == c or b == d:
                    continue
                q1 = a * n + c if a < c else c * n + a
                q2 = b * n + d if b < d else d * n + b
                if q1 == q2 or count[q1] >= 1 or count[q2] >= 1:
                    continue
                count[edges[idx]] -= 1
                count[edges[j]] -= 1
                count[q1] += 1
                count[q2] += 1
                edges[idx] = q1
                edges[j] = q2
                break
