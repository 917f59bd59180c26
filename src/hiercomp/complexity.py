"""Degree-class neighbourhood-variability measures.

For each degree k held by at least two nodes, the ascending neighbourhood
degree sequences of those nodes form an (ell x k) matrix.  One kernel
computes the column standard deviations of every such matrix into one array,
class after class in ascending k, with numpy's own ``std`` steps, so the
bits are those of ``rows.std(axis=0)``.  Every measure reads one table that
reduces that array to (ell, sum of sds, sum of variances) per class by two
reduceats; the table is built once per graph and kept while the graph
lives, so fig2's measures and a report on one graph run the kernel once.
The unnormalised measure averages the column variances over k; the
normalised variant sums column standard deviations and divides by
(1 - density) * edge_count, which removes most of the size/density
dependence.  Every standard deviation is the population one, as in numpy's
``std(axis=0)``.
"""

from __future__ import annotations

import logging
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .graph import Graph, component_count, degree_support_d2

__all__ = [
    "nhc_global",
    "nhc_alt_sqrtk",
    "ComplexityReport",
    "complexity_report",
]

log = logging.getLogger(__name__)


def _class_columns(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The kernel: each class's k, size ell and k column sds, the sds of all
    classes in one array ``cols``, where class i's follow a 0.0 at
    ``starts[i]`` (so that a reduceat over a class sums as ``sigma.sum()``).

    Per class, one row gather from the float neighbour degrees, a row sort,
    and :func:`_centred_squares` into the class's slice of ``cols``; then one
    division by ell and one sqrt over every column.  These are the ufunc
    steps of numpy's ``std(axis=0)``, in its order, so the bits are the same.
    """
    ks = degree_support_d2(g)
    order = np.argsort(g.degrees, kind="stable")  # stable: ids ascend inside a class
    sorted_deg = g.degrees[order]
    firsts = np.searchsorted(sorted_deg, ks)
    ells = np.searchsorted(sorted_deg, ks, side="right") - firsts
    starts = np.cumsum(ks + 1) - (ks + 1)
    cols = np.zeros(int(ks.sum()) + ks.size)
    nbr_deg = g.degrees.astype(np.float64)[g.indices]
    row_starts = g.indptr[order]
    for k, first, ell, at in zip(ks.tolist(), firsts.tolist(), ells.tolist(), starts.tolist()):
        rows = nbr_deg[row_starts[first:first + ell, None] + np.arange(k)]
        rows.sort(axis=1)
        _centred_squares(rows, cols[at + 1:at + 1 + k])
    denom = np.repeat(ells.astype(np.float64), ks + 1)
    denom[starts] = 1.0  # keeps each leading 0.0
    np.true_divide(cols, denom, out=cols)
    np.sqrt(cols, out=cols)
    return ks, ells, cols, starts


def _centred_squares(rows: np.ndarray, out: np.ndarray) -> None:
    """Sum each column's squared deviations from its mean into ``out``, the
    steps of numpy's ``_var`` before its division; ``rows`` is overwritten."""
    mean = np.add.reduce(rows, axis=0, keepdims=True)
    np.true_divide(mean, rows.shape[0], out=mean)
    np.subtract(rows, mean, out=rows)
    np.square(rows, out=rows)
    np.add.reduce(rows, axis=0, out=out)


# graph -> class table; an entry dies with its graph (Graph hashes by
# identity and is immutable)
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _class_table(g: Graph) -> dict[int, tuple[int, float, float]]:
    """``{k: (ell, sum of sigma, sum of sigma**2)}`` in ascending k, from one
    pass of the kernel, memoised per graph.  The sums are reduceats over
    ``cols``; each class's leading 0.0 makes them the bits of
    ``sigma.sum()`` and ``np.square(sigma).sum()``."""
    table = _TABLES.get(g)
    if table is None:
        ks, ells, cols, starts = _class_columns(g)
        if ks.size:
            sums = np.add.reduceat(cols, starts).tolist()
            squares = np.add.reduceat(np.square(cols), starts).tolist()
        else:
            sums = squares = []
        table = _TABLES[g] = dict(zip(ks.tolist(), zip(ells.tolist(), sums, squares)))
    return table


def _mean(terms: list[float]) -> float:
    return math.fsum(terms) / len(terms) if terms else 0.0


def _warn_above_one(value: float, g: Graph) -> None:
    if value > 1.0:
        log.warning("normalised complexity %.6f exceeds 1 (n=%d, m=%d)", value, g.n, g.m)


def nhc_global(g: Graph) -> float:
    """R_hat: the mean over the degree classes of R_hat_k, a class's sum of
    column sds over (1 - density) * edge_count.

    Complete graphs short-circuit to 0 before the singular normalisation.
    """
    if g.density == 1.0:
        return 0.0
    norm = (1.0 - g.density) * g.m
    value = _mean([s / norm for _, s, _ in _class_table(g).values()])
    _warn_above_one(value, g)
    return value


def nhc_alt_sqrtk(g: Graph, sqrt_m: bool = False) -> float:
    """Comparison variants whose per-class term divides by sqrt(k).

    With ``sqrt_m`` the edge-count factor in the denominator is sqrt(m)
    instead of m.  Kept only to demonstrate their residual size dependence;
    the k-based measure is the recommended one.
    """
    if g.density == 1.0:
        return 0.0
    denom = (1.0 - g.density) * (math.sqrt(g.m) if sqrt_m else g.m)
    terms = [s / (math.sqrt(k) * denom) for k, (_, s, _) in _class_table(g).items()]
    return _mean(terms)


@dataclass(frozen=True)
class ComplexityReport:
    """All per-degree and global measures from one pass over a graph."""

    node_count: int
    edge_count: int
    density: float
    component_count: int
    d2_size: int
    global_unnormalised: float
    global_normalised: float
    # k -> (R_k, R_hat_k, ell): the class's mean column variance, its sum of
    # column sds over (1 - density) * edge_count, and its size
    per_degree: dict[int, tuple[float, float, int]]

    def to_dict(self) -> dict:
        return {
            "n": self.node_count,
            "m": self.edge_count,
            "d": self.density,
            "components": self.component_count,
            "d2_size": self.d2_size,
            "R": self.global_unnormalised,
            "R_hat": self.global_normalised,
            "per_degree": {
                str(k): {"R_k": rk, "R_hat_k": nk, "count": ell}
                for k, (rk, nk, ell) in self.per_degree.items()
            },
        }


def complexity_report(g: Graph) -> ComplexityReport:
    """Compute every measure in one pass over the degree classes.

    For complete graphs the normalised columns are reported as 0 (the
    short-circuit value); the unnormalised ones stay well defined.
    """
    complete = g.density == 1.0
    norm = (1.0 - g.density) * g.m
    per: dict[int, tuple[float, float, int]] = {}
    for k, (ell, s, sq) in _class_table(g).items():
        per[k] = (sq / k, 0.0 if complete else s / norm, ell)
    nhc = 0.0 if complete else _mean([nk for _, nk, _ in per.values()])
    _warn_above_one(nhc, g)
    return ComplexityReport(
        node_count=g.n,
        edge_count=g.m,
        density=g.density,
        component_count=component_count(g),
        d2_size=len(per),
        global_unnormalised=_mean([rk for rk, _, _ in per.values()]),
        global_normalised=nhc,
        per_degree=per,
    )
