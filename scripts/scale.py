"""Wall time and memory of each layer at scale, from one table of points.

``python3 scripts/scale.py [POINT ...]`` runs each side of a point (the code
measured, "new", and the reference it replaced, "ref"; io's write and read)
in a fresh child process, so its peak RSS is its own.  It prints one JSON
record per side and one verdict per point, exits 1 unless every compared
point's sides give the same output, and, when it runs every point, writes
all of it with the environment to ``BENCH_<short-sha>.json`` at the root.
"""

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
import oracle  # noqa: E402
# the package imports these on first use: load them before any timer starts
import scipy.sparse.csgraph, scipy.spatial, scipy.special  # noqa: E401, E402, F401
from hiercomp import attachment, complexity, experiments, generators, graph, theory  # noqa: E402
from hiercomp.workbench import read_edgelist, write_edgelist  # noqa: E402


@dataclass(frozen=True)
class Point:
    """One row of the table: a layer at one size, and the sides it runs."""

    name: str
    layer: object  # layer(point, side, work_dir, patch, timed) -> (edges, output)
    n: int = 0
    density: float = 0.0
    sigma: float = 0.3
    kind: str = ""  # the generator family or the attachment mechanism
    sides: tuple[str, ...] = ("new",)
    compare: bool = True  # every side must give the same output


def _io(p: Point, side: str, work: Path, patch, timed):
    """write_edgelist of er(n, p, seed 1), then read_edgelist of that file;
    the graph read back, mapped through its labels, must be the same."""
    path = work / "er.txt"
    if side == "write":
        g = generators.gen_er(p.n, p.density, 1)
        timed(lambda: write_edgelist(g, path))
    else:
        g = timed(lambda: read_edgelist(path))
        g = graph.build_graph(np.asarray(g.labels, dtype=np.int64)[g.edge_array()], n_hint=g.n)
    return g.m, g.codes()


def _report(p: Point, side: str, work: Path, patch, timed):
    """complexity_report on io's graph."""
    g = generators.gen_er(p.n, p.density, 1)
    return g.m, timed(lambda: complexity.complexity_report(g))


class _NoMemo(dict):
    """Stands in for complexity's table memo and keeps nothing."""

    def __setitem__(self, key, value):
        pass


def _measures(p: Point, side: str, work: Path, patch, timed):
    """fig2's three measures on er(n, p, seed 1), which share one class
    table; the reference keeps no table, so each measure runs the kernel."""
    if side == "ref":
        patch(complexity, "_TABLES", _NoMemo())
    g = generators.gen_er(p.n, p.density, 1)
    return g.m, timed(lambda: (complexity.nhc_global(g),
                               complexity.nhc_alt_sqrtk(g, sqrt_m=False),
                               complexity.nhc_alt_sqrtk(g, sqrt_m=True)))


def _tables(p: Point, side: str, work: Path, patch, timed):
    """The class tables of 20 rhgg(n, d) graphs, fig5's base size, against
    the per-class ``rows.std`` of the naive oracle."""
    graphs = [generators.gen_rhgg(p.n, p.density, seed=s) for s in range(20)]
    if side == "ref":
        edges = [g.edge_array().tolist() for g in graphs]
        tables = timed(lambda: [oracle.class_table_naive(p.n, e) for e in edges])
    else:
        tables = timed(lambda: [complexity._class_table(g) for g in graphs])
    return sum(g.m for g in graphs), tables


def _theory(p: Point, side: str, work: Path, patch, timed):
    """nhc_global_approx at every point of fig3's default grid."""
    grid = experiments.RunManifest(experiment="fig3").grid
    return None, timed(lambda: [theory.nhc_global_approx(n, d) for n, d in grid])


def _repair(p: Point, side: str, work: Path, patch, timed):
    """gen_config's pairing and swap repair on an rhgg degree sequence; the
    reference draws each attempt's key through numpy alone, not in blocks."""
    if side == "ref":
        patch(generators, "_pair_and_repair", oracle.pair_and_repair_naive)
    degrees = generators.gen_rhgg(p.n, p.density, seed=1).degrees
    g = timed(lambda: generators.gen_config(degrees, seed=2))
    return g.m, g.codes()


def _generate(p: Point, side: str, work: Path, patch, timed):
    """gen_er by geometric skipping against one uniform per pair (another
    stream, so not compared); gen_rgg/gen_rhgg by k-d tree against ranking
    every pair."""
    if side == "ref" and p.kind != "er":
        patch(generators, "_geometric_top_m", oracle.geometric_top_m_naive)
    g = timed({
        "er": lambda: (generators.gen_er(p.n, p.density, seed=1) if side == "new"
                       else graph.from_codes(p.n, oracle.er_rowwise(p.n, p.density, 1))),
        "rgg": lambda: generators.gen_rgg(p.n, p.density, seed=1),
        "rhgg": lambda: generators.gen_rhgg(p.n, p.density, seed=1, lognormal_sigma=p.sigma),
    }[p.kind])
    return g.m, g.codes()


def _attach(p: Point, side: str, work: Path, patch, timed):
    """Random attachment of 1% more edges, against listing every non-edge and
    indexing the list with the same rank draws."""
    base = generators.gen_rhgg(p.n, p.density, seed=3, lognormal_sigma=p.sigma)
    count = base.m // 100

    def listed():
        non_edges = graph.complement_codes(p.n, base.codes())
        picks = np.random.default_rng(5).choice(non_edges.size, size=count, replace=False)
        return np.sort(np.concatenate((base.codes(), non_edges[picks])))

    codes = timed(listed if side == "ref" else
                  lambda: attachment.add_edges(base, "random", count, 5).codes())
    return codes.size, codes


def _rebuilt(g, new):
    """What attachment's splice returns, by the full rebuild: one sort of
    both directions of every edge, and no kept codes."""
    return graph.from_codes(g.n, np.sort(np.concatenate((g.codes(), new))), labels=g.labels)


def _fig5(p: Point, side: str, work: Path, patch, timed):
    """A fig5 sweep that splices each step's new edges into its graph,
    against the same sweep rebuilding each step's graph by from_codes."""
    if side == "ref":
        patch(attachment, "_splice", _rebuilt)
    g = generators.gen_rhgg(p.n, p.density, seed=100)
    steps = timed(lambda: [tuple(s) for s in attachment.density_sweep(
        g, p.kind, attachment.DEFAULT_FRACTIONS, _FIG5_SEEDS[p.kind])])
    return steps[-1][1], steps


def _gen(kind: str, n: int, density: float, sigma: float = 0.3, ref: bool = True) -> Point:
    return Point(f"{kind}-{n}-{density:g}", _generate, n, density, sigma, kind,
                 ("new", "ref") if ref else ("new",), compare=kind != "er")


_FIG5_SEEDS = {"random": 3, "hierarchical": 4, "similarity": 1, "combined": 2}
# ref=False: ranking every pair would take 5e9 pairs; repair-10000 has no
# ref side: the numpy draw loop would take about 4 minutes and over 4 GB
POINTS = {p.name: p for p in [
    Point("io-er-2500", _io, 2500, 0.5, sides=("write", "read")),
    Point("report-er-2500", _report, 2500, 0.5),
    Point("measures-er-4000", _measures, 4000, 0.5, sides=("new", "ref")),
    Point("measures-rhgg-1000", _tables, 1000, 0.01, sides=("new", "ref")),
    Point("theory-fig3", _theory),
    *[Point(f"repair-{n}", _repair, n, 0.45, sides=("new", "ref")) for n in (600, 2000, 3000)],
    Point("repair-10000", _repair, 10_000, 0.45),
    *[_gen("er", n, p) for n, p in ((20_000, 5e-4), (100_000, 1e-4), (6000, 0.5), (6000, 0.9))],
    _gen("rgg", 100_000, 1e-4, ref=False),
    _gen("rhgg", 100_000, 1e-4, ref=False),
    _gen("rhgg", 20_000, 1e-3, sigma=1.0),
    _gen("rgg", 10_000, 0.3),
    *[_gen(kind, 2500, d) for d in (0.5, 0.9, 0.99) for kind in ("rgg", "rhgg")],
    Point("add_edges-8000", _attach, 8000, 0.002, sides=("new", "ref")),
    *[Point(f"fig5-{m}-8000", _fig5, 8000, 0.01, kind=m, sides=("new", "ref"))
      for m in _FIG5_SEEDS],
]}


def measure(p: Point, side: str, work: Path, patch=setattr) -> dict:
    """Run one side: its layer sets up, times one call through ``timed``,
    and returns its edge count and output, which is hashed here."""
    rec = {"point": p.name, "side": side}

    def timed(call):
        before, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, time.perf_counter()
        out = call()
        wall, peak = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rec.update(wall_s=round(wall, 3), peak_rss_mb=round(peak / 1024, 1),
                   rss_rise_mb=round((peak - before) / 1024, 1))  # ru_maxrss is in KiB
        return out

    rec["edges"], out = p.layer(p, side, work, patch, timed)
    data = out.tobytes() if isinstance(out, np.ndarray) else repr(out).encode()
    rec["sha"] = hashlib.sha256(data).hexdigest()[:16]
    return rec


def verdict(p: Point, records: list[dict]) -> str:
    if not p.compare or len(records) < 2:
        return "not compared"
    return "agree" if len({r["sha"] for r in records}) == 1 else "differ"


def run_point(p: Point) -> list[dict]:
    """Each side of p in its own fresh child, in order, sharing one work dir."""
    records = []
    with tempfile.TemporaryDirectory() as work:
        for side in p.sides:
            with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as ex:
                records.append(ex.submit(measure, p, side, Path(work)).result())
            print(json.dumps(records[-1]), flush=True)
    return records


def _git(*args: str) -> str:  # "" outside a git checkout
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()


def environment() -> dict:
    with open("/proc/cpuinfo") as fh:  # Linux only, like ru_maxrss in KiB
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                   platform.processor())
    sha = _git("rev-parse", "--short", "HEAD")
    return {"git_sha": sha, "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else list(argv)
    unknown = [n for n in names if n not in POINTS]
    if unknown:
        print(f"unknown points {unknown}; known: {' '.join(POINTS)}", file=sys.stderr)
        return 2
    env = environment()  # before any point runs, so that "dirty" is the measured tree's
    records, verdicts = [], {}
    for name in names or POINTS:
        recs = run_point(POINTS[name])
        records += recs
        verdicts[name] = verdict(POINTS[name], recs)
        print(f"{name}: {verdicts[name]}", flush=True)
    if not names:
        path = ROOT / f"BENCH_{env['git_sha'] or 'nogit'}.json"
        path.write_text(json.dumps(
            {"environment": env, "records": records, "verdicts": verdicts}, indent=1) + "\n")
        print(f"wrote {path}")
    return 1 if "differ" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main())
