"""Hierarchical complexity measures for undirected networks."""

from .attachment import (
    MECHANISMS,
    SweepStep,
    add_edges,
    density_sweep,
    edge_weights,
)
from .complexity import (
    ComplexityReport,
    complexity_report,
    nhc_alt_sqrtk,
    nhc_global,
)
from .generators import ModelSpec, gen_config, gen_er, gen_rgg, gen_rhgg, generate
from .graph import Graph, build_graph, component_count, degree_support_d2
from .theory import (
    BinomialDistribution,
    TheoryApprox,
    UniformDistribution,
    corollary_bound,
    nhc_global_approx,
    order_stat_sigma,
)
from .workbench import read_edgelist, residual_correlation, spearman, write_edgelist

__version__ = "0.1.0"

__all__ = [
    "Graph", "build_graph", "degree_support_d2", "component_count",
    "nhc_global", "nhc_alt_sqrtk", "ComplexityReport", "complexity_report",
    "ModelSpec", "gen_er", "gen_rgg", "gen_rhgg", "gen_config", "generate",
    "BinomialDistribution", "UniformDistribution", "order_stat_sigma",
    "nhc_global_approx", "corollary_bound", "TheoryApprox",
    "MECHANISMS", "edge_weights", "add_edges", "density_sweep",
    "SweepStep",
    "read_edgelist", "write_edgelist", "spearman", "residual_correlation",
]
