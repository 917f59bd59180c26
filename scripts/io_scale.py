"""Wall time and peak-RSS rise of ``write_edgelist`` and then ``read_edgelist``
on one large dense graph, er(2500, 0.5) (about 1.56M edges, a 14 MB file).

Each step runs in a fresh child process, so its ``ru_maxrss`` rise belongs to
that step alone: the write child draws the graph and writes it, the read child
reads the file back.  Run from a checkout:

    python3 scripts/io_scale.py            # er(2500, 0.5)
    python3 scripts/io_scale.py --n 1000   # a smaller graph

Prints one JSON line and fails unless the graph read back, mapped through its
labels, has the same CSR as the graph written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

P, SEED = 0.5, 1


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _csr_sha(g) -> str:
    h = hashlib.sha256(f"{g.n} {g.m}".encode())
    for a in (g.indptr, g.indices):
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def child(step: str, n: int, path: Path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from hiercomp.generators import gen_er
    from hiercomp.graph import build_graph
    from hiercomp.workbench import read_edgelist, write_edgelist

    g = gen_er(n, P, SEED) if step == "write" else None
    before = _maxrss_mb()
    t0 = time.perf_counter()
    if step == "write":
        write_edgelist(g, path)
    else:
        g = read_edgelist(path)
    wall = time.perf_counter() - t0
    rise = _maxrss_mb() - before
    if step == "read":  # back to the written ids, after the measurement
        g = build_graph(np.asarray(g.labels, dtype=np.int64)[g.edge_array()], n_hint=g.n)
    return {"wall_s": round(wall, 3), "rss_rise_mb": round(rise, 1), "m": g.m, "csr": _csr_sha(g)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--n", type=int, default=2500, help="node count (default 2500)")
    p.add_argument("--child", metavar="STEP", choices=("write", "read"), help=argparse.SUPPRESS)
    p.add_argument("--path", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.n, args.path)))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "er.txt"
        steps = {}
        for step in ("write", "read"):
            cmd = [sys.executable, __file__, "--n", str(args.n), "--child", step, "--path", str(path)]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            steps[step] = json.loads(out)
        size = path.stat().st_size
    w, r = steps["write"], steps["read"]
    print(json.dumps({
        "n": args.n, "p": P, "m": w["m"], "bytes": size,
        "write_s": w["wall_s"], "write_rss_rise_mb": w["rss_rise_mb"],
        "read_s": r["wall_s"], "read_rss_rise_mb": r["rss_rise_mb"],
    }))
    if (w["m"], w["csr"]) != (r["m"], r["csr"]):
        print(f"round trip changed the graph: wrote {w}, read {r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
