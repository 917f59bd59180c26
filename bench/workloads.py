"""Benchmark child process: one workload, timed passes, output checks.

Run by ``bench/run.py`` (never by hand) as

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
        --work-dir DIR [--tiny] [--setup-only]

It imports hiercomp, prepares the workload's inputs from the seed, and
reports the monotonic clock at that point (``ready``).  It then repeats
identical passes until ``--seconds`` have elapsed, checks every op of the
first pass and compares every later op's output digest with the first
pass's, and prints one JSON line.  With ``--trace 1`` the passes alternate
traced and untraced, the traced ones starting with the first.

Every call into hiercomp goes through a module attribute
(``generators.generate``, not a name imported from it) so that the
tracer's wrappers see it.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from hiercomp import complexity, experiments, generators, theory, workbench

from tracing import Tracer, layer_metrics, spans_as_rows


def _rel_close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _pair_target(n: int, d: float) -> int:
    return int(round(d * n * (n - 1) / 2))


def _sha(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.digest()


class ModelSweep:
    """fig2's per-realisation work: generate, then R-hat and both sqrt-k
    variants, on a pinned (family, n, d) grid.

    Why: fig2's own (n, d) draws change the work with the seed by ~4x, so
    the grid is pinned and the seed only re-keys the graphs.  The d=0.45
    point is rhg's repair-heavy regime and d=0.7 its complement path, so
    rhg generation (gen_config) dominates; the three measures run on every
    graph.  Bypasses workbench IO, theory and attachment.
    """

    GRID = {
        "full": ((2000, 0.01), (1000, 0.1), (600, 0.45), (600, 0.7)),
        "tiny": ((200, 0.02), (100, 0.1), (60, 0.45), (60, 0.7)),
    }
    FAMILIES = ("er", "rgg", "rhgg", "rhg")

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        self.specs = [
            generators.ModelSpec(family=fam, n=n, target=d,
                                 seed=generators.child_seed(seed, f, p))
            for f, fam in enumerate(self.FAMILIES)
            for p, (n, d) in enumerate(self.GRID[size])
        ]

    def ops(self):
        return [lambda spec=spec: self._realisation(spec) for spec in self.specs]

    @staticmethod
    def _realisation(spec):
        g = generators.generate(spec)
        return g, (
            complexity.nhc_global(g),
            complexity.nhc_alt_sqrtk(g, sqrt_m=False),
            complexity.nhc_alt_sqrtk(g, sqrt_m=True),
        )

    def check(self, i: int, out) -> int:
        spec = self.specs[i]
        g, values = out
        ok = all(math.isfinite(v) for v in values)
        if spec.family in ("rgg", "rhgg"):
            ok &= g.m == _pair_target(spec.n, spec.target)
        if spec.family == "rhg":
            base = generators.gen_rhgg(
                spec.n, spec.target, generators.child_seed(spec.seed, 0), dims=spec.dims,
                lognormal_mu=spec.lognormal_mu, lognormal_sigma=spec.lognormal_sigma)
            ok &= np.array_equal(g.degrees, base.degrees)
        ok &= _rel_close(values[0], complexity.complexity_report(g).global_normalised)
        return 0 if ok else 1

    def units(self, i: int) -> int:
        return 1

    def digest(self, i: int, out) -> bytes:
        g, values = out
        return _sha(g.edge_array().tobytes(), repr(values).encode())

    def size(self) -> dict:
        return {"graphs": len(self.specs),
                "points": [[s.family, s.n, s.target] for s in self.specs]}


class GenerateAnalyze:
    """The CLI path `hiercomp generate` -> write_edgelist -> read_edgelist ->
    `hiercomp analyze` (complexity_report), plus the closed-form estimate for
    each er graph.

    Why: text IO and the sparse-regime generators (the per-row er loop, the
    all-pairs geometric scan) are the measured bottlenecks of large inputs.
    The dense er(1600, 0.5) file of ~640k edges makes reading and writing
    more than half of the pass.  It comes first, so that the memory rise of
    its read is measured from the bare process; the geometric scans then
    set the peak RSS.  Bypasses rhg and attachment; the measures are a few
    percent of the pass.
    """

    FILES = {
        "full": (("er", 1600, 0.5), ("er", 12000, 8e-4), ("rgg", 3000, 0.005),
                 ("rhgg", 3000, 0.005)),
        "tiny": (("er", 100, 0.5), ("er", 400, 0.01), ("rgg", 200, 0.02), ("rhgg", 200, 0.02)),
    }
    SIGMA = 0.3  # rhgg node-fitness spread

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        self.specs = [
            generators.ModelSpec(family=fam, n=n, target=d, lognormal_sigma=self.SIGMA,
                                 seed=generators.child_seed(seed, i))
            for i, (fam, n, d) in enumerate(self.FILES[size])
        ]
        self.paths = [work_dir / f"{i}-{s.family}.txt" for i, s in enumerate(self.specs)]

    def ops(self):
        return [lambda spec=spec, path=path: self._file(spec, path)
                for spec, path in zip(self.specs, self.paths)]

    @staticmethod
    def _file(spec, path):
        g = generators.generate(spec)
        workbench.write_edgelist(g, path)
        h = workbench.read_edgelist(path)
        report = complexity.complexity_report(h)
        approx = theory.nhc_global_approx(spec.n, spec.target) if spec.family == "er" else None
        return g, h, report, approx

    def check(self, i: int, out) -> int:
        spec = self.specs[i]
        g, h, report, approx = out
        ok = True
        if spec.family in ("rgg", "rhgg"):
            ok &= g.m == _pair_target(spec.n, spec.target)
        # read_edgelist relabels nodes by first appearance; map back
        labels = np.asarray(h.labels, dtype=np.int64)
        back = np.sort(labels[h.edge_array()], axis=1)
        back = back[np.lexsort((back[:, 1], back[:, 0]))]
        ok &= h.n == g.n and np.array_equal(back, g.edge_array())
        ok &= _rel_close(complexity.nhc_global(h), report.global_normalised)
        if approx is not None:
            ok &= math.isfinite(approx.global_value)
        return 0 if ok else 1

    def units(self, i: int) -> int:
        return 1

    def digest(self, i: int, out) -> bytes:
        _, _, report, approx = out
        return _sha(self.paths[i].read_bytes(),
                    json.dumps(report.to_dict(), sort_keys=True).encode(),
                    repr(approx.global_value if approx else None).encode())

    def size(self) -> dict:
        return {"files": len(self.specs),
                "points": [[s.family, s.n, s.target] for s in self.specs]}


class DensityGrowth:
    """fig5 through run_experiment: rhgg bases grown under the four
    attachment mechanisms, R-hat after every step.

    Why: attachment weights and sampling (add_edges) are nearly all of the
    pass, with many small nhc_global calls; base generation is a few
    percent and there is no IO beyond the CSV.  Criterion 8's manifest
    (n=1000, 21 fractions, 4 mechanisms) with 3 instead of 5 bases, so that
    several passes fit in one run.
    """

    MANIFEST = {
        "full": dict(base_count=3, n=1000),
        "tiny": dict(base_count=1, n=150, base_density=0.05),
    }

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        self.manifest = experiments.RunManifest(
            experiment="fig5", seed=seed, workers=1, **self.MANIFEST[size])
        self.out_dir = work_dir / "fig5"

    def ops(self):
        return [lambda: experiments.run_experiment(self.manifest, self.out_dir)[0]]

    def units(self, i: int) -> int:
        return self.manifest.base_count * len(self.manifest.mechanisms)

    def check(self, i: int, out) -> int:
        """Failed sweeps: one per (base, mechanism) with a step off target."""
        mf = self.manifest
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.units(i) * len(mf.fractions):
            return self.units(i)
        sweeps: dict[tuple[str, str], list[dict]] = {}
        for r in rows:
            sweeps.setdefault((r["base"], r["mechanism"]), []).append(r)
        failed = self.units(i) - len(sweeps)
        for steps in sweeps.values():
            m0 = int(steps[0]["edges"])
            ok = [float(r["fraction"]) for r in steps] == list(mf.fractions)
            ok &= m0 == _pair_target(mf.n, mf.base_density)
            ok &= all(int(r["edges"]) == int(round(m0 * (1.0 + float(r["fraction"]))))
                      and math.isfinite(float(r["value"])) for r in steps)
            failed += 0 if ok else 1
        return failed

    def digest(self, i: int, out) -> bytes:
        return _sha(Path(out).read_bytes())

    def size(self) -> dict:
        mf = self.manifest
        return {"bases": mf.base_count, "n": mf.n, "mechanisms": len(mf.mechanisms),
                "fractions": len(mf.fractions)}


WORKLOADS = {
    "model_sweep": ModelSweep,
    "generate_analyze": GenerateAnalyze,
    "density_growth": DensityGrowth,
}


def run_passes(workload, seconds: float, tracer: Tracer | None) -> dict:
    """Pass 0 warms up and is fully checked; the timed passes follow it for
    ``seconds`` and must reproduce its outputs byte for byte.  A tracer
    traces the even passes, so timed traced and untraced passes alternate."""
    ops = workload.ops()
    reference: dict[int, bytes] = {}  # op -> digest of its first-pass output
    bad_ops: set[int] = set()
    walls: list[float] = []
    attempted = failed = 0
    deadline = math.inf
    while len(walls) < (3 if tracer else 2) or time.monotonic() < deadline:
        traced = tracer is not None and len(walls) % 2 == 0
        gc.collect()
        if traced:
            tracer.install(len(walls))
        outputs = []
        t0 = time.perf_counter()
        try:
            for op_id, op in enumerate(ops):
                if tracer:
                    tracer.op = op_id
                try:
                    outputs.append(op())
                except Exception as exc:  # a failed op is counted, not fatal
                    outputs.append(exc)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        # outside the timed region
        for i, out in enumerate(outputs):
            units = workload.units(i)
            attempted += units
            if isinstance(out, Exception):
                print(f"op {i} raised {out!r}", file=sys.stderr)
                failed += units
                bad_ops.add(i)
                continue
            digest = workload.digest(i, out)
            if not walls:
                reference[i] = digest
                try:
                    bad = workload.check(i, out)
                except Exception as exc:
                    print(f"check of op {i} raised {exc!r}", file=sys.stderr)
                    bad = units
                if bad:
                    bad_ops.add(i)
                failed += bad
            elif i in bad_ops or digest != reference[i]:
                failed += units
        del outputs
        if not walls:
            deadline = time.monotonic() + seconds
        walls.append(wall)
    untraced = [w for i, w in enumerate(walls) if i > 0 and not (tracer and i % 2 == 0)]
    return {
        "walls": walls,
        "traced_passes": sorted(tracer.passes) if tracer else [],
        "wall_s": statistics.median(untraced),
        "attempted": attempted,
        "failed": failed,
        "digest": hashlib.sha256(b"".join(reference[i] for i in sorted(reference))).hexdigest(),
        "layers": layer_metrics(tracer, walls) if tracer else None,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", type=Path, required=True)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    args.work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, "tiny" if args.tiny else "full", args.work_dir)
    ready = time.monotonic()
    result = {"ready": ready}
    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        result.update(run_passes(workload, args.seconds, tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["size"] = workload.size()
        result["versions"] = {"python": platform.python_version(),
                              "numpy": np.__version__, "scipy": scipy.__version__}
        if tracer:
            spans_path = args.work_dir / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(spans_as_rows(tracer)) + "\n")
            result["spans_file"] = str(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
