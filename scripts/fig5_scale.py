"""Wall time and peak RSS of fig5's similarity and combined sweeps on one
large rhgg base: the sweep that carries the shared-neighbour counts from step
to step, against the same steps through plain ``add_edges``, which rebuilds
them from ``A @ A`` at every step.

Each side runs in a fresh child process on rhgg(8000, 0.01, seed 100), the
size of a fig5 base at n = 8000 (about 320k edges), with fig5's default
fractions, so its peak RSS (``ru_maxrss``) belongs to that side alone.  Run
from a checkout:

    python3 scripts/fig5_scale.py            # both sides
    python3 scripts/fig5_scale.py --n 2000   # a smaller base

Prints one JSON line per side and fails unless both sides give the same
trace (edge counts and measure values) for each mechanism.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DENSITY, BASE_SEED = 0.01, 100
MECHANISMS = ("similarity", "combined")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_sweep(g, mechanism: str, fractions, seed: int) -> list[tuple]:
    """density_sweep's steps and seeds, each step through plain add_edges."""
    import numpy as np
    from hiercomp.attachment import add_edges
    from hiercomp.complexity import nhc_global

    step_seeds = np.random.default_rng(seed).integers(0, 2**63, size=len(fractions))
    cur, steps = g, []
    for f, step_seed in zip(fractions, step_seeds):
        need = int(round(g.m * (1.0 + f))) - cur.m
        if need > 0:
            cur = add_edges(cur, mechanism, need, int(step_seed))
        steps.append((f, cur.m, nhc_global(cur)))
    return steps


def child(n: int, impl: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from hiercomp.attachment import DEFAULT_FRACTIONS, density_sweep
    from hiercomp.generators import gen_rhgg

    g = gen_rhgg(n, DENSITY, seed=BASE_SEED)
    before = _maxrss_mb()
    t0 = time.perf_counter()
    traces = {}
    for seed, mechanism in enumerate(MECHANISMS, start=1):
        if impl == "carried":
            steps = [tuple(s) for s in density_sweep(g, mechanism, DEFAULT_FRACTIONS, seed).steps]
        else:
            steps = reference_sweep(g, mechanism, DEFAULT_FRACTIONS, seed)
        traces[mechanism] = hashlib.sha256(repr(steps).encode()).hexdigest()[:16]
    return {
        "n": n, "m0": g.m, "impl": impl,
        "wall_s": round(time.perf_counter() - t0, 3),
        "rss_before_mb": round(before, 1),
        "peak_rss_mb": round(_maxrss_mb(), 1),
        "traces": traces,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--n", type=int, default=8000, help="base size (default 8000)")
    p.add_argument("--child", metavar="IMPL", choices=("carried", "reference"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.n, args.child)))
        return 0
    runs = []
    for impl in ("carried", "reference"):
        cmd = [sys.executable, __file__, "--n", str(args.n), "--child", impl]
        line = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip()
        print(line, flush=True)
        runs.append(json.loads(line))
    assert runs[0]["traces"] == runs[1]["traces"], "carried and reference traces differ"
    print(f"speed-up {runs[1]['wall_s'] / runs[0]['wall_s']:.1f}x, peak RSS "
          f"{runs[0]['peak_rss_mb']} MB carried vs {runs[1]['peak_rss_mb']} MB reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
