"""The public surface, pinned: the package's names, the parameter names of
every public function, and the fields of the two settings records.

A new setting (a parameter, a manifest key, a spec field) needs a caller
outside the tests, an experiment, a CLI command or a script that sets it to
more than one value; otherwise it is a constant.  Adding one changes a list
below in a one-line diff that a review can see and question.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import hiercomp
from hiercomp import experiments

PUBLIC_NAMES = [
    "Graph", "build_graph", "degree_support_d2", "component_count",
    "class_sigmas", "nhc_global", "nhc_alt_sqrtk", "ComplexityReport",
    "complexity_report",
    "ModelSpec", "gen_er", "gen_rgg", "gen_rhgg", "gen_config", "generate",
    "BinomialDistribution", "UniformDistribution", "order_stat_sigma",
    "nhc_global_approx", "corollary_bound", "TheoryApprox",
    "MECHANISMS", "edge_weights", "add_edges", "density_sweep", "SweepStep",
    "read_edgelist", "write_edgelist", "spearman", "residual_correlation",
]

EXPERIMENT_NAMES = ["RunManifest", "run_experiment", "rank_directory", "EXPERIMENTS"]

PARAMETERS = {
    "build_graph": ["edges", "n_hint"],
    "degree_support_d2": ["g"],
    "component_count": ["g"],
    "class_sigmas": ["g"],
    "nhc_global": ["g"],
    "nhc_alt_sqrtk": ["g", "sqrt_m"],
    "complexity_report": ["g"],
    "gen_er": ["n", "p", "seed"],
    "gen_rgg": ["n", "density", "seed", "dims"],
    "gen_rhgg": ["n", "density", "seed", "dims", "lognormal_mu", "lognormal_sigma"],
    "gen_config": ["degree_sequence", "seed"],
    "generate": ["spec"],
    "order_stat_sigma": ["i", "k", "dist"],
    "nhc_global_approx": ["n", "p", "minmax_quantile"],
    "corollary_bound": ["n", "p", "minmax_quantile"],
    "edge_weights": ["g", "mechanism"],
    "add_edges": ["g", "mechanism", "count", "seed", "pairs"],
    "density_sweep": ["g", "mechanism", "fractions", "seed"],
    "read_edgelist": ["path"],
    "write_edgelist": ["g", "path"],
    "spearman": ["x", "y"],
    "residual_correlation": ["hc", "density", "n_nodes"],
    "run_experiment": ["manifest", "out_dir"],
    "rank_directory": ["directory"],
}

RUN_MANIFEST_FIELDS = [
    "experiment", "seed", "realisations", "families", "n_range", "density_range", "n",
    "sigma_range", "dims", "lognormal_mu", "lognormal_sigma", "grid", "seeds_per_point",
    "base_count", "base_density", "fractions", "mechanisms", "inputs", "workers",
]

MODEL_SPEC_FIELDS = [
    "family", "n", "target", "dims", "lognormal_mu", "lognormal_sigma", "seed",
    "degree_sequence",
]


def _parameters(obj) -> list[str]:
    return list(inspect.signature(obj).parameters)


def test_public_names_are_pinned():
    assert hiercomp.__all__ == PUBLIC_NAMES
    assert experiments.__all__ == EXPERIMENT_NAMES


def test_public_function_parameters_are_pinned():
    found = {}
    for module in (hiercomp, experiments):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                found[name] = _parameters(obj)
    assert found == PARAMETERS


def test_settings_records_are_pinned():
    assert _parameters(experiments.RunManifest) == RUN_MANIFEST_FIELDS
    assert _parameters(hiercomp.ModelSpec) == MODEL_SPEC_FIELDS


def test_every_listed_name_resolves():
    """A name deleted from a module but left in its ``__all__`` would break
    ``from hiercomp.<module> import *``."""
    modules = [hiercomp] + [importlib.import_module(f"hiercomp.{info.name}")
                            for info in pkgutil.iter_modules(hiercomp.__path__)]
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert missing == []
