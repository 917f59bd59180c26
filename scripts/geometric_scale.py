"""Wall time and peak RSS of geometric generation, of er generation and of
random attachment, the k-d tree selection and geometric skipping against the
all-pairs scans they replaced.

Each point runs in a fresh child process, so its peak RSS (``ru_maxrss``)
belongs to that point alone.  Run from a checkout:

    python3 scripts/geometric_scale.py            # every point, both sides
    python3 scripts/geometric_scale.py --no-scan  # skip the scan side

The scan side generates the same points and strengths and then ranks every
pair (``tests/oracle.py::geometric_top_m_naive``); for ``add_edges`` it lists
every non-edge at once and indexes the list with the same rank draws; for er
it draws one uniform per pair (``tests/oracle.py::er_rowwise``), a graph from
the same distribution but another stream.
Prints one JSON line per run.
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

# (family, n, density or p, sigma, scan finishes in minutes on a 2-core box)
POINTS = [
    ("er", 20_000, 5e-4, 0.0, True),
    ("er", 100_000, 1e-4, 0.0, True),
    ("er", 6000, 0.5, 0.0, True),
    ("er", 6000, 0.9, 0.0, True),
    ("rgg", 100_000, 1e-4, 0.3, False),
    ("rhgg", 100_000, 1e-4, 0.3, False),
    ("rhgg", 20_000, 1e-3, 1.0, True),
    ("rgg", 10_000, 0.3, 0.3, True),
    *[(fam, 2500, d, 0.3, True) for d in (0.5, 0.9, 0.99) for fam in ("rgg", "rhgg")],
    ("add_edges", 8000, 0.002, 0.3, True),
]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child(family: str, n: int, density: float, sigma: float, impl: str) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np
    import oracle
    from hiercomp import generators
    from hiercomp.attachment import add_edges
    from hiercomp.graph import complement_codes, from_codes

    if impl == "scan":
        generators._geometric_top_m = lambda pts, m, s: from_codes(
            pts.shape[0], oracle.geometric_top_m_naive(pts, m, s))
    out = {"family": family, "n": n, "density": density, "sigma": sigma, "impl": impl}
    if family == "add_edges":
        base = generators.gen_rhgg(n, density, seed=3, lognormal_sigma=sigma)
        count = base.m // 100
        before = _maxrss_mb()
        t0 = time.perf_counter()
        if impl == "scan":
            non_edges = complement_codes(n, base.codes())
            picks = np.random.default_rng(5).choice(non_edges.size, size=count, replace=False)
            codes = np.sort(np.concatenate((base.codes(), non_edges[picks])))
        else:
            codes = add_edges(base, "random", count, 5).codes()
        out["wall_s"] = time.perf_counter() - t0
        out["rss_rise_mb"] = _maxrss_mb() - before
        out["edges"] = int(codes.size)
        out["sha"] = hashlib.sha256(codes.tobytes()).hexdigest()[:16]
        out["peak_rss_mb"] = _maxrss_mb()
        return out
    t0 = time.perf_counter()
    if family == "er" and impl == "scan":
        g = from_codes(n, oracle.er_rowwise(n, density, 1))
    elif family == "er":
        g = generators.gen_er(n, density, seed=1)
    elif family == "rgg":
        g = generators.gen_rgg(n, density, seed=1)
    else:
        g = generators.gen_rhgg(n, density, seed=1, lognormal_sigma=sigma)
    out["wall_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = _maxrss_mb()
    out["edges"] = g.m
    out["sha"] = hashlib.sha256(g.codes().tobytes()).hexdigest()[:16]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--no-scan", action="store_true", help="run the new selection only")
    p.add_argument("--child", nargs=5, metavar=("FAMILY", "N", "DENSITY", "SIGMA", "IMPL"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        fam, n, d, s, impl = args.child
        print(json.dumps(child(fam, int(n), float(d), float(s), impl)))
        return 0
    for fam, n, d, s, scan_ok in POINTS:
        for impl in ("new", "scan") if scan_ok and not args.no_scan else ("new",):
            cmd = [sys.executable, __file__, "--child", fam, str(n), str(d), str(s), impl]
            print(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip(),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
