"""hiercomp benchmark: one workload per invocation, run from a checkout's root.

    python3 bench/run.py --workload {model_sweep,generate_analyze,density_growth}
        --seed N --seconds S --trace 0|1 [--tiny]

The workload runs in a fresh single-process child (bench/workloads.py) that
imports the package from ``src/`` with HIERCOMP_WORKERS removed and the BLAS
thread pools held at one thread.  With ``--trace 0`` two further children
only set up, so ``setup_s`` is a median of three; the main child repeats
identical passes for ``--seconds`` and reports their median wall time, its
peak RSS and the ops attempted and failed.  With ``--trace 1`` the child
alternates traced and untraced passes and reports the per-layer metrics
(see bench/tracing.py), writing its spans under ``.bench_work/``.

The last stdout line is the result object; the line before it holds the
details: environment, output digest, error rate, per-pass walls.  Without
``src/hiercomp`` beside this directory the run fails with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_UNITS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("model_sweep", "generate_analyze", "density_growth")
SETUP_PROBES = 2  # set-up-only children besides the measured one
DEADLINE_S = 170.0  # whole invocation, children included


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HIERCOMP_WORKERS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _run_child(args, extra: list[str], deadline: float) -> tuple[float, dict]:
    """Start one child; returns (monotonic start time, its JSON result)."""
    cmd = [sys.executable, str(BENCH / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(WORK / args.workload)]
    if args.tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    proc = subprocess.run(cmd + extra, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with code {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "hiercomp" / "__init__.py").is_file():
        print(f"error: no hiercomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {"nproc": os.cpu_count(), "cpu": _cpu_model(), "git_sha": _git_sha(),
           "loadavg_1m": os.getloadavg()[0]}
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                started, probe = _run_child(args, ["--setup-only"], deadline)
                setups.append(probe["ready"] - started)
        started, res = _run_child(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["ready"] - started)
    env["versions"] = res["versions"]
    if args.trace:
        metrics = {k: {"value": res["layers"][k], "unit": unit}
                   for k, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "size": res["size"], "digest": res["digest"],
        "error_rate": res["failed"] / res["attempted"],
        "passes": len(res["walls"]), "walls_s": res["walls"],
        "traced_passes": res["traced_passes"], "setup_samples_s": setups,
        "spans_file": res.get("spans_file"),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
