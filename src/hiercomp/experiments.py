"""Batch experiment drivers: tidy CSV out, JSON sidecar with manifest hash.

Experiments are named presets selected by a :class:`RunManifest`:

* ``fig2`` -- model sweep: per family, draw (n, d) at random, generate,
  record the normalised measure and both sqrt-k comparison variants.
* ``fig3`` -- theory vs simulation on er graphs over an (n, p) grid.
* ``fig4`` -- heterogeneity sweep: rhgg at fixed n with random (d, sigma),
  recording the global measure and the per-degree profile.
* ``fig5`` -- attachment sweep: density growth under each mechanism over a
  set of base graphs.

Realisations fan out over processes when ``workers`` > 1 (or the
HIERCOMP_WORKERS env var); per-realisation seeds are derived from
(seed, family, index) so serial and parallel runs emit identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .attachment import DEFAULT_FRACTIONS, MECHANISMS, density_sweep
from .complexity import complexity_report, nhc_alt_sqrtk, nhc_global
from .generators import ModelSpec, child_seed, gen_er, generate
from .graph import Graph
from .theory import nhc_global_approx
from .workbench import NetworkRecord, read_edgelist, record_for

__all__ = ["RunManifest", "run_experiment", "rank_directory", "EXPERIMENTS"]

_FAMILY_INDEX = {"er": 0, "rgg": 1, "rhgg": 2, "rhg": 3}


@dataclass(frozen=True)
class RunManifest:
    """Everything that determines an experiment run (hashable to its id)."""

    experiment: str
    seed: int = 0
    realisations: int = 100
    families: tuple[str, ...] = ("er", "rgg", "rhgg", "rhg")
    n_range: tuple[int, int] = (50, 5000)
    density_range: tuple[float, float] = (0.0, 1.0)
    n: int = 1000
    sigma_range: tuple[float, float] = (0.0, 1.0)
    dims: int = 3
    lognormal_mu: float = 0.0
    lognormal_sigma: float = 0.2
    grid: tuple[tuple[int, float], ...] = ((500, 0.002), (2000, 0.005), (5000, 0.002))
    seeds_per_point: int = 20
    base_count: int = 5
    base_density: float = 0.01
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    mechanisms: tuple[str, ...] = MECHANISMS
    inputs: tuple[str, ...] = ()
    workers: int = 0

    def __post_init__(self) -> None:
        for key, known in (("families", _FAMILY_INDEX), ("mechanisms", MECHANISMS)):
            bad = [v for v in getattr(self, key) if v not in known]
            if bad:
                raise ValueError(f"{key}: unknown {bad}, expected some of {list(known)}")
        for key in ("n_range", "density_range", "sigma_range"):
            v = getattr(self, key)
            ok = (isinstance(v, (tuple, list)) and len(v) == 2
                  and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in v)
                  and v[0] <= v[1])
            if not ok:
                raise ValueError(f"{key}: expected two ordered numbers [lo, hi], got {v!r}")

    @classmethod
    def from_json(cls, path) -> "RunManifest":
        raw = json.loads(Path(path).read_text())
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown manifest keys: {sorted(unknown)}")
        manifest = cls(**{
            k: _freeze(v) for k, v in raw.items()
        })
        if manifest.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {manifest.experiment!r}")
        return manifest

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        """Hash of the settings that determine the outputs.

        ``workers`` is hashed as its default: serial and parallel runs emit
        the same bytes.
        """
        return hashlib.sha256(replace(self, workers=0).canonical_json().encode()).hexdigest()

    def resolved_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        env = os.environ.get("HIERCOMP_WORKERS", "")
        return max(1, int(env)) if env.isdigit() else 1


def _freeze(v):
    if isinstance(v, list):
        return tuple(_freeze(x) for x in v)
    return v


def _pmap(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        chunk = max(1, len(items) // (workers * 4))
        return list(ex.map(fn, items, chunksize=chunk))


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_sidecar(out_dir: Path, manifest: RunManifest, outputs: list[str]) -> Path:
    side = out_dir / f"{manifest.experiment}_run.json"
    side.write_text(json.dumps({
        "experiment": manifest.experiment,
        "manifest_sha256": manifest.sha256(),
        "manifest": json.loads(manifest.canonical_json()),
        "outputs": outputs,
    }, indent=2, sort_keys=True) + "\n")
    return side


# --------------------------------------------------------------------------
# fig2: model sweep


def _model_sweep_task(args):
    family, idx, seed, n_range, d_range, dims, mu, sig = args
    rng = np.random.default_rng(child_seed(seed, _FAMILY_INDEX[family], idx, 0))
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    d = float(rng.uniform(d_range[0], d_range[1]))
    spec = ModelSpec(
        family=family, n=n, target=d, dims=dims,
        lognormal_mu=mu, lognormal_sigma=sig,
        seed=child_seed(seed, _FAMILY_INDEX[family], idx, 1),
    )
    g = generate(spec)
    return (
        family, idx, n, d, g.density,
        nhc_global(g), nhc_alt_sqrtk(g, sqrt_m=False), nhc_alt_sqrtk(g, sqrt_m=True),
    )


def run_fig2(manifest: RunManifest, out_dir: Path) -> list[str]:
    tasks = [
        (family, idx, manifest.seed, manifest.n_range, manifest.density_range,
         manifest.dims, manifest.lognormal_mu, manifest.lognormal_sigma)
        for family in manifest.families
        for idx in range(manifest.realisations)
    ]
    results = _pmap(_model_sweep_task, tasks, manifest.resolved_workers())
    rows = []
    for family, idx, n, d_target, d, base, v1, v2 in results:
        rows.append((family, idx, n, d_target, d, "nhc", base))
        rows.append((family, idx, n, d_target, d, "nhc_sqrtk", v1))
        rows.append((family, idx, n, d_target, d, "nhc_sqrtk_sqrtm", v2))
    path = out_dir / "fig2.csv"
    _write_csv(path, ["family", "realisation", "n", "target_density", "density", "measure", "value"], rows)
    return [path.name]


# --------------------------------------------------------------------------
# fig3: theory vs simulation


def _theory_point_task(args):
    n, p, seed, point_idx, seeds_per_point = args
    sims = []
    for r in range(seeds_per_point):
        g = gen_er(n, p, child_seed(seed, 100 + point_idx, r))
        sims.append(nhc_global(g))
    theory = nhc_global_approx(n, p).global_value
    arr = np.asarray(sims)
    mean = float(arr.mean())
    rel = abs(theory - mean) / mean if mean else float("inf")
    return (n, p, theory, mean, float(arr.std(ddof=1)) if len(sims) > 1 else 0.0, len(sims), rel)


def run_fig3(manifest: RunManifest, out_dir: Path) -> list[str]:
    tasks = [
        (int(n), float(p), manifest.seed, i, manifest.seeds_per_point)
        for i, (n, p) in enumerate(manifest.grid)
    ]
    rows = _pmap(_theory_point_task, tasks, manifest.resolved_workers())
    path = out_dir / "fig3.csv"
    _write_csv(path, ["n", "p", "theory", "sim_mean", "sim_sd", "seeds", "rel_error"], rows)
    return [path.name]


# --------------------------------------------------------------------------
# fig4: heterogeneity sweep


def _heterogeneity_task(args):
    idx, seed, n, d_range, sigma_range, dims, mu = args
    rng = np.random.default_rng(child_seed(seed, 200, idx, 0))
    d = float(rng.uniform(d_range[0], d_range[1]))
    sig = float(rng.uniform(sigma_range[0], sigma_range[1]))
    spec = ModelSpec(
        family="rhgg", n=n, target=d, dims=dims, lognormal_mu=mu,
        lognormal_sigma=sig, seed=child_seed(seed, 200, idx, 1),
    )
    rep = complexity_report(generate(spec))
    profile = [(idx, k, ell, nk) for k, (_, nk, ell) in sorted(rep.per_degree.items())]
    return (idx, sig, d, rep.density, rep.global_normalised), profile


def run_fig4(manifest: RunManifest, out_dir: Path) -> list[str]:
    tasks = [
        (idx, manifest.seed, manifest.n, manifest.density_range,
         manifest.sigma_range, manifest.dims, manifest.lognormal_mu)
        for idx in range(manifest.realisations)
    ]
    results = _pmap(_heterogeneity_task, tasks, manifest.resolved_workers())
    main = [r[0] for r in results]
    profile = [row for r in results for row in r[1]]
    p1 = out_dir / "fig4.csv"
    p2 = out_dir / "fig4_profile.csv"
    _write_csv(p1, ["realisation", "sigma", "target_density", "density", "value"], main)
    _write_csv(p2, ["realisation", "degree", "class_size", "value"], profile)
    return [p1.name, p2.name]


# --------------------------------------------------------------------------
# fig5: attachment sweep


def _attachment_task(args):
    base_id, g, mechanism, fractions, seed = args
    trace = density_sweep(g, mechanism, fractions=fractions, seed=seed, base_id=base_id)
    return [(trace.base_id, trace.mechanism, s.fraction, s.edge_count, s.value) for s in trace.steps]


def _fig5_bases(manifest: RunManifest) -> list[tuple[str, Graph]]:
    if manifest.inputs:
        return [(Path(p).stem, read_edgelist(p)) for p in manifest.inputs]
    bases = []
    for b in range(manifest.base_count):
        spec = ModelSpec(
            family="rhgg", n=manifest.n, target=manifest.base_density,
            dims=manifest.dims, lognormal_mu=manifest.lognormal_mu,
            lognormal_sigma=manifest.lognormal_sigma,
            seed=child_seed(manifest.seed, 300, b),
        )
        bases.append((f"rhgg-{b}", generate(spec)))
    return bases


def run_fig5(manifest: RunManifest, out_dir: Path) -> list[str]:
    tasks = []
    for b, (base_id, g) in enumerate(_fig5_bases(manifest)):
        for mech_idx, mech in enumerate(manifest.mechanisms):
            tasks.append((
                base_id, g, mech, manifest.fractions,
                child_seed(manifest.seed, 400, b, mech_idx),
            ))
    results = _pmap(_attachment_task, tasks, manifest.resolved_workers())
    rows = [row for block in results for row in block]
    path = out_dir / "fig5.csv"
    _write_csv(path, ["base", "mechanism", "fraction", "edges", "value"], rows)
    return [path.name]


EXPERIMENTS = {"fig2": run_fig2, "fig3": run_fig3, "fig4": run_fig4, "fig5": run_fig5}


def run_experiment(manifest: RunManifest, out_dir) -> list[Path]:
    """Run one named experiment; returns the written files (sidecar last)."""
    if manifest.experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {manifest.experiment!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = EXPERIMENTS[manifest.experiment](manifest, out)
    side = _write_sidecar(out, manifest, outputs)
    return [out / name for name in outputs] + [side]


# --------------------------------------------------------------------------
# ranking


def rank_directory(directory) -> list[tuple[NetworkRecord, int, int]]:
    """Analyse every file in a directory; rows sorted by R_hat desc, name asc.

    Returns (record, rank_by_R, rank_by_R_hat) with both rankings computed
    independently (1 = largest).
    """
    files = sorted(p for p in Path(directory).iterdir() if p.is_file())
    if not files:
        raise ValueError(f"no edge-list files in {directory}")
    records = [record_for(read_edgelist(p), p.stem, str(p)) for p in files]
    by_r = sorted(records, key=lambda r: (-r.R, r.name))
    by_rhat = sorted(records, key=lambda r: (-r.R_hat, r.name))
    rank_r = {r.name: i + 1 for i, r in enumerate(by_r)}
    rank_rhat = {r.name: i + 1 for i, r in enumerate(by_rhat)}
    return [(r, rank_r[r.name], rank_rhat[r.name]) for r in by_rhat]
