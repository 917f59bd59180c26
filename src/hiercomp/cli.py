"""Command-line interface.

Subcommands:

* ``analyze``  -- complexity report of an edge-list file (JSON).
* ``generate`` -- draw a model graph and write its edge list.
* ``theory``   -- per-degree closed-form estimates for er(n, p) (CSV).
* ``sweep``    -- run a named batch experiment from a manifest file.
* ``rank``     -- analyse a directory of edge lists into a ranking CSV.

``--log-level`` (before the subcommand; default WARNING) sets which records
of the ``hiercomp`` loggers reach stderr, such as attachment's uniform
fallbacks and top-ups (WARNING) or the rhg repair's statistics (DEBUG).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .complexity import complexity_report
from .experiments import EXPERIMENTS, RunManifest, _csv_text, rank_directory, run_experiment
from .generators import FAMILIES, ModelSpec, generate
from .theory import nhc_global_approx
from .workbench import read_edgelist, write_edgelist


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hiercomp")
    parser.add_argument("--log-level", default="WARNING", type=str.upper,
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="least severe package log record shown on stderr (default WARNING)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="complexity report for an edge-list file")
    p.add_argument("path")
    p.add_argument("--name", default=None, help="record name (default: file stem)")
    p.add_argument("--output", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("generate", help="draw a model graph, write its edge list")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    target = p.add_mutually_exclusive_group()
    target.add_argument("--p", type=float, default=None, help="edge probability (er)")
    target.add_argument("--density", type=float, default=None, help="target density")
    p.add_argument("--dims", type=int, default=3)
    p.add_argument("--mu", type=float, default=0.0, help="lognormal location")
    p.add_argument("--sigma", type=float, default=0.2, help="lognormal scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degrees", default=None, help="degree-sequence file (rhg; no target needed)")
    p.add_argument("--output", required=True)

    p = sub.add_parser("theory", help="closed-form per-degree estimates for er(n, p)")
    p.add_argument("n", type=int)
    p.add_argument("p", type=float)
    p.add_argument("--minmax-quantile", choices=("1/n", "1/(n+1)"), default="1/n")
    p.add_argument("--output", default=None, help="write CSV here instead of stdout")

    p = sub.add_parser("sweep", help="run a named experiment from a manifest")
    p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p.add_argument("--manifest", required=True)
    p.add_argument("--output-dir", default="out")

    p = sub.add_parser("rank", help="rank every edge list in a directory")
    p.add_argument("directory")
    p.add_argument("--output", default=None, help="write CSV here instead of stdout")
    return parser


def _emit(text: str, output: str | None) -> None:
    """Write text to the ``--output`` file, or to stdout without one."""
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    g = read_edgelist(args.path)
    rep = complexity_report(g)
    payload = rep.to_dict()
    payload["name"] = args.name or Path(args.path).stem
    payload["source_path"] = str(args.path)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(text, args.output)
    return 0


def _cmd_generate(args) -> int:
    target = args.p if args.p is not None else args.density
    if target is None:
        if args.degrees is None:
            raise ValueError("one of --p / --density is required")
        target = 0.0  # rhg ignores the target when given its degrees
    degree_sequence = None
    if args.degrees:
        degree_sequence = tuple(
            int(tok) for tok in Path(args.degrees).read_text().split()
        )
    spec = ModelSpec(
        family=args.family, n=args.n, target=float(target), dims=args.dims,
        lognormal_mu=args.mu, lognormal_sigma=args.sigma, seed=args.seed,
        degree_sequence=degree_sequence,
    )
    g = generate(spec)
    write_edgelist(g, args.output)
    if g.m == 0:
        logging.getLogger("hiercomp.cli").warning("generated graph has no edges (target=%s)",
                                                  target)
    print(f"wrote {args.output}: n={g.n} m={g.m}")
    return 0


def _cmd_theory(args) -> int:
    approx = nhc_global_approx(args.n, args.p, minmax_quantile=args.minmax_quantile)
    _emit(_csv_text(["degree", "value"], approx.to_rows()), args.output)
    print(
        f"global={approx.global_value!r} degree_range=[{approx.degree_low},{approx.degree_high}]"
        f" dropped_terms={approx.dropped_terms}",
        file=sys.stderr,
    )
    return 0


def _cmd_sweep(args) -> int:
    manifest = RunManifest.from_json(args.manifest)
    if manifest.experiment != args.experiment:
        raise ValueError(
            f"manifest is for {manifest.experiment!r}, not {args.experiment!r}"
        )
    written = run_experiment(manifest, args.output_dir)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_rank(args) -> int:
    rows = [(path.stem, rep.node_count, rep.edge_count, rep.density, rep.global_unnormalised,
             rep.global_normalised, rank_r, rank_rhat)
            for path, rep, rank_r, rank_rhat in rank_directory(args.directory)]
    header = ["name", "n", "m", "density", "R", "R_hat", "rank_R", "rank_R_hat"]
    _emit(_csv_text(header, rows), args.output)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "generate": _cmd_generate,
    "theory": _cmd_theory,
    "sweep": _cmd_sweep,
    "rank": _cmd_rank,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    log = logging.getLogger("hiercomp")
    handler = logging.StreamHandler()  # the sys.stderr of this call
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(args.log_level)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    raise SystemExit(main())
