"""The benchmark tracer's hooks: every function that bench/tracing.py wraps
must be a callable attribute where the tracer looks it up, calls must pass
through it, and uninstalling must put the originals back."""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

import pytest

from hiercomp.experiments import RunManifest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
# executed from its source so that no bytecode is written under bench/
tracing = types.ModuleType("bench_tracing")
tracing.__file__ = str(TRACING)
sys.modules[tracing.__name__] = tracing  # dataclasses look their module up
exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)


def _current(module_name: str, attr: str):
    return getattr(importlib.import_module(module_name), attr, None)


@pytest.mark.parametrize("module_name, attr", [w[:2] for w in tracing.WRAPS],
                         ids=[".".join(w[:2]) for w in tracing.WRAPS])
def test_wrapped_attribute_is_callable(module_name, attr):
    assert callable(_current(module_name, attr))


def test_tracer_sees_a_fig5_run_and_uninstall_restores_the_originals(tmp_path):
    originals = [(mod, attr, _current(mod, attr)) for mod, attr, *_ in tracing.WRAPS]
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        assert all(_current(mod, attr) is not fn for mod, attr, fn in originals)
        manifest = RunManifest(experiment="fig5", n=60, base_count=1, base_density=0.1,
                               fractions=(0.0, 0.05), mechanisms=("random",))
        importlib.import_module("hiercomp.experiments").run_experiment(manifest, tmp_path)
    finally:
        tracer.uninstall()
    assert all(_current(mod, attr) is fn for mod, attr, fn in originals)
    sites = {(s.site, s.name) for s in tracer.passes[0]}
    assert {
        ("hiercomp.experiments", "experiments.run_experiment"),
        ("hiercomp.experiments", "generators.rhgg"),
        ("hiercomp.attachment", "complexity.nhc_global"),
        ("hiercomp.attachment", "attachment.add_edges.random"),
    } <= sites
