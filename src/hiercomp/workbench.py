"""Edge-list ingestion, canonical output, and rank statistics.

The reader accepts the common plain-text conventions: one whitespace-
separated pair per line, '#'/'%' comment lines, an optional MatrixMarket
banner (in which case the size line is skipped and a value column is
tolerated).  Arbitrary node labels are remapped to dense ids in first-
appearance order and kept on the graph.  A comment like ``# nodes: 123``
fixes the node count, retaining isolated nodes.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import t as student_t

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
    lines = Path(path).read_text().splitlines()
    mm = format_hint == "matrixmarket"
    if lines and lines[0].lstrip().startswith("%%MatrixMarket"):
        mm = True
    hint: int | None = None
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
    g = build_graph(np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2), n_hint=n)
    return Graph(
        n=g.n, m=g.m, indptr=g.indptr, indices=g.indices,
        degrees=g.degrees, labels=tuple(labels),
    )


def write_edgelist(g: Graph, path) -> None:
    """Canonical text form: node-count header then ascending 'u v' lines."""
    out = [f"# nodes: {g.n} edges: {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edge_array().tolist())
    Path(path).write_text("\n".join(out) + "\n")


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
