"""Spans around the benchmark's calls into hiercomp, and the per-layer metrics.

The tracer replaces a function at the module attribute its callers look up
(``hiercomp.generators.gen_config`` is looked up by ``generate``,
``hiercomp.attachment.add_edges`` by ``density_sweep``, and so on), records
one span per call in memory, and puts the original back on ``uninstall``.
Nothing under ``src/`` is modified; untraced passes run the original
functions.
"""

from __future__ import annotations

import importlib
import os
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

MECHANISMS = ("random", "hierarchical", "similarity", "combined")


def _family(args, kwargs) -> str:
    spec = args[0] if args else kwargs["spec"]
    return f"generators.{spec.family}"


def _by_mechanism(prefix: str):
    def name(args, kwargs) -> str:
        mech = args[1] if len(args) > 1 else kwargs["mechanism"]
        return f"{prefix}.{mech}"
    return name


def _edges(args, kwargs, result) -> int:
    return result.m


def _bytes_written(args, kwargs, result) -> int:
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _edges_added(args, kwargs, result) -> int:
    return result.m - (args[0] if args else kwargs["g"]).m


# (module whose attribute the caller looks up, attribute, span name or a
# function of the call's arguments giving it, optional work count)
WRAPS = (
    ("hiercomp.generators", "generate", _family, _edges),  # benchmark's own calls
    ("hiercomp.experiments", "generate", _family, _edges),  # fig5 base graphs
    ("hiercomp.generators", "gen_rhgg", "generators.gen_rhgg", None),  # inside generate
    ("hiercomp.generators", "gen_config", "generators.gen_config", None),
    ("hiercomp.workbench", "write_edgelist", "workbench.write_edgelist", _bytes_written),
    ("hiercomp.workbench", "read_edgelist", "workbench.read_edgelist", None),
    ("hiercomp.workbench", "build_graph", "graph.build_graph", None),  # inside read_edgelist
    ("hiercomp.complexity", "nhc_global", "complexity.nhc_global", None),
    ("hiercomp.attachment", "nhc_global", "complexity.nhc_global", None),  # inside density_sweep
    ("hiercomp.complexity", "nhc_alt_sqrtk", "complexity.nhc_alt_sqrtk", None),
    ("hiercomp.complexity", "complexity_report", "complexity.report", None),
    ("hiercomp.theory", "nhc_global_approx", "theory.nhc_global_approx", None),
    ("hiercomp.attachment", "add_edges", _by_mechanism("attachment.add_edges"), _edges_added),
    ("hiercomp.attachment", "edge_weights", _by_mechanism("attachment.edge_weights"), None),
    ("hiercomp.experiments", "run_experiment", "experiments.run_experiment", None),
)


@dataclass
class Span:
    name: str
    site: str  # module whose attribute was called through
    start: float
    end: float
    parent: int  # index of the enclosing span in the same pass, -1 at top level
    op: int
    count: int
    rss_rise_kb: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records spans per pass while installed; one instance per process."""

    def __init__(self) -> None:
        self.passes: dict[int, list[Span]] = {}
        self.op = -1
        self._spans: list[Span | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, pass_index: int) -> None:
        self._spans = self.passes.setdefault(pass_index, [])
        for module_name, attr, name, count in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, module_name, name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, site, name, count):
        spans, stack = self._spans, self._stack

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            rss0 = _maxrss_kb()
            t0 = time.perf_counter()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = time.perf_counter()
                rise = _maxrss_kb() - rss0
                stack.pop()
                work = count(args, kwargs, result) if count and returned else 0
                spans[index] = Span(label, site, t0, t1, parent, self.op, work, rise)

        return traced


# --------------------------------------------------------------------------
# per-layer metrics: name -> unit; every traced run reports all of them.

PER_LAYER_UNITS = {
    "generators.rhg_s": "s",
    "generators.gen_config_s": "s",
    "generators.gen_rhgg_s": "s",
    "generators.er_s": "s",
    "generators.rgg_s": "s",
    "generators.rhgg_s": "s",
    "generators.edges": "count",
    "workbench.read_edgelist_s": "s",
    "graph.build_graph_s": "s",
    "workbench.read_parse_self_s": "s",
    "workbench.write_edgelist_s": "s",
    "workbench.bytes_written": "bytes",
    "workbench.rss_rise_mb": "MB",
    "complexity.nhc_global_s": "s",
    "complexity.nhc_alt_sqrtk_s": "s",
    "complexity.report_s": "s",
    "complexity.calls": "count",
    "theory.nhc_global_approx_s": "s",
    **{f"attachment.add_edges_s.{m}": "s" for m in MECHANISMS},
    **{f"attachment.edge_weights_s.{m}": "s" for m in MECHANISMS},
    **{f"attachment.sample_self_s.{m}": "s" for m in MECHANISMS},
    "attachment.nhc_global_s": "s",
    "attachment.edges_added": "count",
    "attachment.rss_rise_mb": "MB",
    "experiments.run_experiment_self_s": "s",
    "trace.top_span_share": "%",
    "trace.overhead_s": "s",
}

# span name -> metric fed by its (duration, self time, work count, rss rise)
_FEEDS = {
    "generators.er": ("generators.er_s", None, "generators.edges", None),
    "generators.rgg": ("generators.rgg_s", None, "generators.edges", None),
    "generators.rhgg": ("generators.rhgg_s", None, "generators.edges", None),
    "generators.rhg": ("generators.rhg_s", None, "generators.edges", None),
    "generators.gen_rhgg": ("generators.gen_rhgg_s", None, None, None),
    "generators.gen_config": ("generators.gen_config_s", None, None, None),
    "workbench.read_edgelist": (
        "workbench.read_edgelist_s", "workbench.read_parse_self_s", None, "workbench.rss_rise_mb"),
    "workbench.write_edgelist": (
        "workbench.write_edgelist_s", None, "workbench.bytes_written", "workbench.rss_rise_mb"),
    "graph.build_graph": ("graph.build_graph_s", None, None, None),
    "complexity.nhc_global": ("complexity.nhc_global_s", None, None, None),
    "complexity.nhc_alt_sqrtk": ("complexity.nhc_alt_sqrtk_s", None, None, None),
    "complexity.report": ("complexity.report_s", None, None, None),
    "theory.nhc_global_approx": ("theory.nhc_global_approx_s", None, None, None),
    "experiments.run_experiment": (None, "experiments.run_experiment_self_s", None, None),
    **{f"attachment.add_edges.{m}": (
        f"attachment.add_edges_s.{m}", f"attachment.sample_self_s.{m}",
        "attachment.edges_added", "attachment.rss_rise_mb") for m in MECHANISMS},
    **{f"attachment.edge_weights.{m}": (f"attachment.edge_weights_s.{m}", None, None, None)
       for m in MECHANISMS},
}


def pass_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer totals of one traced pass (everything but trace.overhead_s)."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for i, s in enumerate(spans):
        dur_key, self_key, count_key, rss_key = _FEEDS[s.name]
        if dur_key:
            out[dur_key] += s.duration
        if self_key:
            out[self_key] += s.duration - child_time[i]
        if count_key:
            out[count_key] += s.count
        if rss_key:
            out[rss_key] += s.rss_rise_kb / 1024.0
        if s.name.startswith("complexity."):
            out["complexity.calls"] += 1
            if s.site == "hiercomp.attachment":
                out["attachment.nhc_global_s"] += s.duration
    top = sum(s.duration for s in spans if s.parent < 0)
    out["trace.top_span_share"] = 100.0 * top / wall
    return out


def layer_metrics(tracer: Tracer, walls: list[float]) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Pass 0 is the warm-up and is traced only for the memory rises: the
    high-water mark rises in the first pass and later passes cannot raise it
    again.  Times are medians over the later traced passes; the untraced
    passes between them give the tracing overhead.
    """
    timed = [i for i in tracer.passes if i > 0]
    untraced = [w for i, w in enumerate(walls) if i > 0 and i not in tracer.passes]
    per_pass = [pass_metrics(tracer.passes[i], walls[i]) for i in timed]
    warmup = pass_metrics(tracer.passes[0], walls[0])
    out = {}
    for key in PER_LAYER_UNITS:
        if key.endswith("rss_rise_mb"):
            out[key] = warmup[key]
        elif key != "trace.overhead_s":
            out[key] = statistics.median(p[key] for p in per_pass)
    out["trace.overhead_s"] = (
        statistics.median(walls[i] for i in timed) - statistics.median(untraced))
    return out


def spans_as_rows(tracer: Tracer) -> list[dict]:
    rows = []
    for pass_index, spans in sorted(tracer.passes.items()):
        for i, s in enumerate(spans):
            rows.append({
                "pass": pass_index, "id": i, "name": s.name, "site": s.site,
                "start": s.start, "end": s.end, "parent": s.parent, "op": s.op,
                "count": s.count, "rss_rise_kb": s.rss_rise_kb,
            })
    return rows
