"""Wall time and peak RSS of ``gen_config``'s stub pairing and swap repair,
the replayed draws against the loop that draws each number through numpy.

Each point pairs the degree sequence of an rhgg sample (sigma 0.2, the rhg
default) in a fresh child process, so its peak RSS (``ru_maxrss``) belongs
to that point alone.  Run from a checkout:

    python3 scripts/repair_scale.py              # every point, both sides
    python3 scripts/repair_scale.py --no-oracle  # skip the numpy-draw loop

The oracle side patches ``generators._pair_and_repair`` with
``tests/oracle.py::pair_and_repair_naive``.  Prints one JSON line per run and
fails unless both sides of a point return the same edge set.
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

POINTS = [(600, 0.45), (2000, 0.45), (3000, 0.45)]  # (n, rhgg density)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child(n: int, density: float, impl: str) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import oracle
    from hiercomp import generators

    if impl == "oracle":
        generators._pair_and_repair = oracle.pair_and_repair_naive
    degrees = generators.gen_rhgg(n, density, seed=1).degrees
    before = _maxrss_mb()
    t0 = time.perf_counter()
    g = generators.gen_config(degrees, seed=2)
    return {
        "n": n, "density": density, "impl": impl,
        "wall_s": round(time.perf_counter() - t0, 3),
        "rss_rise_mb": round(_maxrss_mb() - before, 1),
        "peak_rss_mb": round(_maxrss_mb(), 1),
        "edges": g.m,
        "sha": hashlib.sha256(g.codes().tobytes()).hexdigest()[:16],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--no-oracle", action="store_true", help="run the replayed repair only")
    p.add_argument("--child", nargs=3, metavar=("N", "DENSITY", "IMPL"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        n, d, impl = args.child
        print(json.dumps(child(int(n), float(d), impl)))
        return 0
    for n, d in POINTS:
        shas = set()
        for impl in ("new",) if args.no_oracle else ("new", "oracle"):
            cmd = [sys.executable, __file__, "--child", str(n), str(d), impl]
            line = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.strip()
            print(line, flush=True)
            shas.add(json.loads(line)["sha"])
        assert len(shas) == 1, f"edge sets differ at n={n}, density={d}"
    return 0


if __name__ == "__main__":
    sys.exit(main())
