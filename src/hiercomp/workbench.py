"""Edge-list ingestion, canonical output, and rank statistics.

The reader accepts the common plain-text conventions: one whitespace-
separated pair per line, '#'/'%' comment lines, an optional MatrixMarket
banner (in which case the size line is skipped and a value column is
tolerated).  Arbitrary node labels are remapped to dense ids in first-
appearance order and kept on the graph.  A comment like ``# nodes: 123``
fixes the node count, retaining isolated nodes.  Reading and writing are
bulk string and numpy operations, not a Python loop per edge.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .complexity import complexity_report
from .graph import Graph, build_graph

__all__ = [
    "read_edgelist",
    "write_edgelist",
    "spearman",
    "residual_correlation",
    "NetworkRecord",
    "record_for",
]

_NODES_HINT = re.compile(r"nodes\s*:?\s*(\d+)", re.IGNORECASE)


def read_edgelist(path, format_hint: str | None = None) -> Graph:
    """Parse an edge-list file into a :class:`Graph`."""
    uv, labels, n = _read_id_pairs(path, format_hint)
    return replace(build_graph(uv, n_hint=n), labels=labels)


def _read_id_pairs(path, format_hint: str | None) -> tuple[np.ndarray, tuple[str, ...], int]:
    """(k, 2) id pairs, labels in first-appearance order, and the node count.

    The body is tokenised once, in bulk; each body line's token count only
    locates the first malformed line and the MatrixMarket size line.  The
    lines and tokens are freed on return, before the graph is built.
    """
    lines = Path(path).read_text().splitlines()
    mm = format_hint == "matrixmarket" or (
        bool(lines) and lines[0].lstrip().startswith("%%MatrixMarket"))
    stripped = [line.strip() for line in lines]
    hint: int | None = None
    for line in [s for s in stripped if s and s[0] in "#%"]:
        found = _NODES_HINT.search(line)
        if found:
            hint = int(found.group(1))
    body = [s for s in stripped if s and s[0] not in "#%"]
    width = np.array([len(s.split()) for s in body], dtype=np.int64)
    skip = int(mm and width.size > 0 and width[0] == 3)  # rows cols nnz
    body, width = body[skip:], width[skip:]
    bad = np.flatnonzero((width != 2) & ~(mm & (width == 3)))
    if bad.size:
        lineno = [i for i, s in enumerate(stripped, 1) if s and s[0] not in "#%"][skip + bad[0]]
        raise ValueError(f"{path}: malformed line {lineno}: {lines[lineno - 1]!r}")
    if mm and (width == 3).any():  # value column: keep the first two tokens
        tokens = [t for s in body for t in s.split()[:2]]
    else:
        tokens = " ".join(body).split()
    if not tokens and hint is None:
        raise ValueError(f"{path}: empty file")
    ids = dict(zip(dict.fromkeys(tokens), itertools.count()))  # first appearance
    uv = np.fromiter(map(ids.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    n = max(len(ids), hint or 0) if (tokens or hint) else 0
    return uv.reshape(-1, 2), tuple(ids), n


def write_edgelist(g: Graph, path) -> None:
    """Canonical text form: node-count header then ascending 'u v' lines."""
    body = ("%d %d\n" * g.m) % tuple(g.edge_array().ravel().tolist())
    Path(path).write_text(f"# nodes: {g.n} edges: {g.m}\n" + body)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    order = np.argsort(v, kind="stable")
    sv = v[order]
    new = np.empty(v.size, dtype=bool)
    new[0] = True
    np.not_equal(sv[1:], sv[:-1], out=new[1:])
    group = np.cumsum(new) - 1
    firsts = np.flatnonzero(new)
    counts = np.diff(np.append(firsts, v.size))
    avg = firsts + (counts + 1) / 2.0  # 1-based average rank of each tie group
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = avg[group]
    return ranks


def spearman(x, y, method: str = "t") -> tuple[float, float]:
    """Rank correlation with average ranks for ties.

    ``method='t'`` returns the two-sided p from the t transform on n-2
    degrees of freedom; ``method='exact'`` enumerates all permutations
    (only for n < 10).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("inputs must be equal-length 1-d vectors")
    n = x.size
    if n < 3:
        raise ValueError("need at least 3 observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("constant input")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rho = _pearson(rx, ry)
    if method == "t":
        if abs(rho) >= 1.0:
            return (max(-1.0, min(1.0, rho)), 0.0)
        from scipy.stats import t as student_t  # slow to import, and only needed here

        tval = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        p = 2.0 * float(student_t.sf(abs(tval), n - 2))
        return rho, p
    if method == "exact":
        if n >= 10:
            raise ValueError("exact permutation p only available for n < 10")
        hits = 0
        total = 0
        target = abs(rho) - 1e-12
        for perm in itertools.permutations(ry):
            total += 1
            if abs(_pearson(rx, np.asarray(perm))) >= target:
                hits += 1
        return rho, hits / total
    raise ValueError("method must be 't' or 'exact'")


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    da = a - a.mean()
    db = b - b.mean()
    return float(da @ db / math.sqrt((da @ da) * (db @ db)))


def residual_correlation(hc, density, n_nodes) -> tuple[float, float]:
    """Rank correlation of hc against density after removing its n trend.

    Fits density ~ n by least squares and correlates the residuals with hc,
    so a density-flat measure should come out near zero here only if it
    also ignores the structure the residuals retain.
    """
    hc = np.asarray(hc, dtype=np.float64)
    density = np.asarray(density, dtype=np.float64)
    n_nodes = np.asarray(n_nodes, dtype=np.float64)
    if not (hc.shape == density.shape == n_nodes.shape) or hc.ndim != 1:
        raise ValueError("inputs must be equal-length 1-d vectors")
    if hc.size < 4:
        raise ValueError("need at least 4 observations")
    dx = n_nodes - n_nodes.mean()
    if np.all(dx == 0.0):
        raise ValueError("degenerate design: node counts constant")
    dy = density - density.mean()
    slope = float(dx @ dy / (dx @ dx))
    resid = dy - slope * dx
    spread = max(1.0, float(np.abs(dy).max()))
    if float(np.abs(resid).max()) <= 1e-12 * spread:
        raise ValueError("constant input: density is linear in n, residuals carry no variation")
    return spearman(resid, hc)


@dataclass(frozen=True)
class NetworkRecord:
    """One analysed network, as a row of the comparison tables."""

    name: str
    n: int
    m: int
    d: float
    R: float
    R_hat: float
    source_path: str

    def to_dict(self) -> dict:
        return {
            "name": self.name, "n": self.n, "m": self.m, "d": self.d,
            "R": self.R, "R_hat": self.R_hat, "source_path": self.source_path,
        }


def record_for(g: Graph, name: str, source_path: str = "") -> NetworkRecord:
    rep = complexity_report(g)
    return NetworkRecord(
        name=name, n=g.n, m=g.m, d=g.density,
        R=rep.global_unnormalised, R_hat=rep.global_normalised,
        source_path=source_path,
    )
