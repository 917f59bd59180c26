"""The public surface, pinned: the package's names, the parameter names of
every public function, and the fields of the two settings records.

A new setting (a parameter, a manifest key, a spec field) needs a caller
outside the tests, an experiment, a CLI command or a script that sets it to
more than one value; otherwise it is a constant.  Adding one changes a list
below in a one-line diff that a review can see and question.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import hiercomp
from hiercomp import experiments

PUBLIC_NAMES = [
    "Graph", "build_graph", "degree_support_d2", "component_count",
    "nhc_global", "nhc_alt_sqrtk", "ComplexityReport",
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

# public names with no caller outside the tests yet, each with the reason it stays
UNCALLED = {
    "order_stat_sigma": "criterion 9 checks the theory's order statistics",
    "UniformDistribution": "criterion 9 checks the theory's order statistics",
    "corollary_bound": "ROADMAP item 7 puts it to use",
    "residual_correlation": "ROADMAP item 3's rank-partial keeps its checks",
    "edge_weights": "bench/tracing.py wraps it by its name as a string",
}

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


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each public name, and each public attribute of Graph, is read by
    code under src/, scripts/ or bench/ (a Name or an Attribute, not an
    import or a definition), or is listed in UNCALLED with its reason."""
    root = Path(__file__).resolve().parents[1]
    used = set()
    for directory in ("src", "scripts", "bench"):
        for path in (root / directory).rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    graph_attrs = {f.name for f in dataclasses.fields(hiercomp.Graph)}
    graph_attrs |= {name for name in vars(hiercomp.Graph) if not name.startswith("_")}
    public = set(hiercomp.__all__) | set(experiments.__all__) | graph_attrs
    uncalled = public - used
    assert sorted(uncalled - UNCALLED.keys()) == []  # no caller: delete it, or list why
    assert sorted(UNCALLED.keys() - uncalled) == []  # called now: drop it from UNCALLED
