"""Batch experiment drivers: tidy CSV out, JSON sidecar with manifest hash.

Experiments are named presets selected by a :class:`RunManifest`:

* ``fig2`` -- model sweep: per family, draw (n, d) at random, generate,
  record the normalised measure and both sqrt-k comparison variants.
* ``fig3`` -- theory vs simulation on er graphs over an (n, p) grid.
* ``fig4`` -- heterogeneity sweep: rhgg at fixed n with random (d, sigma),
  recording the global measure and the per-degree profile.
* ``fig5`` -- attachment sweep: density growth under each mechanism over a
  set of base graphs, each input named by its file stem, or ``stem#i``
  (i its index in ``inputs``) where inputs share a stem.

Each task is a tuple that leads with the manifest ``m`` and reads every
setting from it: ``(m, family, idx)`` for fig2, ``(m, i)`` for fig3's grid
point i, ``(m, idx)`` for fig4 and ``(m, b, mech_idx, base_id, g)`` for fig5.

Tasks fan out over processes when ``workers`` > 1 (or the
HIERCOMP_WORKERS env var); per-realisation seeds are derived from
(seed, family, index) so serial and parallel runs emit identical bytes.
Each driver returns its files' names and texts, and ``run_experiment``
makes the output directory only once they exist, so a run that fails
leaves nothing behind.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .attachment import DEFAULT_FRACTIONS, MECHANISMS, density_sweep
from .complexity import ComplexityReport, complexity_report, nhc_alt_sqrtk, nhc_global
from .generators import FAMILIES, ModelSpec, child_seed, gen_er, generate
from .graph import Graph
from .theory import nhc_global_approx
from .workbench import read_edgelist

__all__ = ["RunManifest", "run_experiment", "rank_directory", "EXPERIMENTS"]

# least value of each integer setting, and the closed range of each real one
_INT_FLOORS = {"seed": 0, "realisations": 0, "n": 1, "dims": 1, "seeds_per_point": 1,
               "base_count": 0, "workers": 0}
_REAL_RANGES = {"lognormal_mu": (-math.inf, math.inf), "lognormal_sigma": (0.0, math.inf),
                "base_density": (0.0, 1.0)}
# what each bound of a [lo, hi] range setting must be, and its test
_RANGE_BOUNDS = {
    "n_range": ("integers >= 1", lambda x: type(x) is int and x >= 1),
    "density_range": ("numbers in [0, 1]", lambda x: _is_number(x) and 0 <= x <= 1),
    "sigma_range": ("finite numbers >= 0", lambda x: _is_number(x) and 0 <= x < math.inf),
}


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _list_of(v, ok) -> bool:
    return isinstance(v, (tuple, list)) and all(ok(x) for x in v)


def _is_grid_point(v) -> bool:
    return (_list_of(v, _is_number) and len(v) == 2 and type(v[0]) is int and v[0] >= 2
            and 0 <= v[1] <= 1)


@dataclass(frozen=True)
class RunManifest:
    """Everything that determines an experiment run (hashable to its id)."""

    experiment: str
    seed: int = 0
    realisations: int = 100
    families: tuple[str, ...] = FAMILIES
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
        if not isinstance(self.experiment, str) or self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for key, lo in _INT_FLOORS.items():
            v = getattr(self, key)
            if type(v) is not int or v < lo:
                raise ValueError(f"{key}: expected an integer >= {lo}, got {v!r}")
        for key, (lo, hi) in _REAL_RANGES.items():
            v = getattr(self, key)
            if not (_is_number(v) and math.isfinite(v) and lo <= v <= hi):
                raise ValueError(f"{key}: expected a finite number in [{lo}, {hi}], got {v!r}")
        for key in ("families", "mechanisms", "inputs"):
            v = getattr(self, key)
            if not _list_of(v, lambda x: isinstance(x, str)):
                raise ValueError(f"{key}: expected a list of strings, got {v!r}")
        for key, known in (("families", FAMILIES), ("mechanisms", MECHANISMS)):
            bad = [v for v in getattr(self, key) if v not in known]
            if bad:
                raise ValueError(f"{key}: unknown {bad}, expected some of {list(known)}")
        if not _list_of(self.grid, _is_grid_point):
            raise ValueError("grid: expected [n, p] pairs with an integer n >= 2 and p in [0, 1], "
                             f"got {self.grid!r}")
        fr = self.fractions
        if not (_list_of(fr, lambda f: _is_number(f) and 0 <= f < math.inf) and len(fr) > 0
                and all(a <= b for a, b in zip(fr, fr[1:]))):
            raise ValueError("fractions: expected a non-empty, non-decreasing list of finite "
                             f"numbers >= 0, got {fr!r}")
        for key, (what, ok) in _RANGE_BOUNDS.items():
            v = getattr(self, key)
            if not (_list_of(v, ok) and len(v) == 2 and v[0] <= v[1]):
                raise ValueError(f"{key}: expected two ordered {what} [lo, hi], got {v!r}")

    @classmethod
    def from_json(cls, path) -> "RunManifest":
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict) or "experiment" not in raw:
            raise ValueError("manifest: expected a JSON object with an experiment key")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown manifest keys: {sorted(unknown)}")
        return cls(**{k: _freeze(v) for k, v in raw.items()})

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


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_field(v) -> str:
    text = repr(float(v)) if isinstance(v, float) else str(v)
    if _NEEDS_QUOTES.search(text):  # RFC 4180
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_text(header, rows) -> str:
    """CSV text, one line per row: floats by repr, the rest by str, quoted where needed."""
    return "".join(",".join(map(_csv_field, row)) + "\n" for row in [header, *rows])


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


def _model_sweep_task(task):
    m, family, idx = task
    f = FAMILIES.index(family)
    rng = np.random.default_rng(child_seed(m.seed, f, idx, 0))
    n = int(rng.integers(m.n_range[0], m.n_range[1] + 1))
    d = float(rng.uniform(m.density_range[0], m.density_range[1]))
    g = generate(ModelSpec(
        family=family, n=n, target=d, dims=m.dims, lognormal_mu=m.lognormal_mu,
        lognormal_sigma=m.lognormal_sigma, seed=child_seed(m.seed, f, idx, 1),
    ))
    head = (family, idx, n, d, g.density)
    return [
        (*head, "nhc", nhc_global(g)),
        (*head, "nhc_sqrtk", nhc_alt_sqrtk(g, sqrt_m=False)),
        (*head, "nhc_sqrtk_sqrtm", nhc_alt_sqrtk(g, sqrt_m=True)),
    ]


def run_fig2(m: RunManifest) -> dict[str, str]:
    tasks = [(m, family, idx) for family in m.families for idx in range(m.realisations)]
    rows = [row for rows in _pmap(_model_sweep_task, tasks, m.resolved_workers()) for row in rows]
    return {"fig2.csv": _csv_text(
        ["family", "realisation", "n", "target_density", "density", "measure", "value"], rows)}


# --------------------------------------------------------------------------
# fig3: theory vs simulation


def _theory_point_task(task):
    m, i = task
    n, p = int(m.grid[i][0]), float(m.grid[i][1])
    sims = np.asarray([
        nhc_global(gen_er(n, p, child_seed(m.seed, 100 + i, r))) for r in range(m.seeds_per_point)
    ])
    theory = nhc_global_approx(n, p).global_value
    mean = float(sims.mean())
    rel = abs(theory - mean) / mean if mean else float("inf")
    sd = float(sims.std(ddof=1)) if len(sims) > 1 else 0.0
    return (n, p, theory, mean, sd, len(sims), rel)


def run_fig3(m: RunManifest) -> dict[str, str]:
    rows = _pmap(_theory_point_task, [(m, i) for i in range(len(m.grid))], m.resolved_workers())
    return {"fig3.csv": _csv_text(
        ["n", "p", "theory", "sim_mean", "sim_sd", "seeds", "rel_error"], rows)}


# --------------------------------------------------------------------------
# fig4: heterogeneity sweep


def _heterogeneity_task(task):
    m, idx = task
    rng = np.random.default_rng(child_seed(m.seed, 200, idx, 0))
    d = float(rng.uniform(m.density_range[0], m.density_range[1]))
    sig = float(rng.uniform(m.sigma_range[0], m.sigma_range[1]))
    rep = complexity_report(generate(ModelSpec(
        family="rhgg", n=m.n, target=d, dims=m.dims, lognormal_mu=m.lognormal_mu,
        lognormal_sigma=sig, seed=child_seed(m.seed, 200, idx, 1),
    )))
    profile = [(idx, k, ell, nk) for k, (_, nk, ell) in sorted(rep.per_degree.items())]
    return (idx, sig, d, rep.density, rep.global_normalised), profile


def run_fig4(m: RunManifest) -> dict[str, str]:
    results = _pmap(_heterogeneity_task, [(m, idx) for idx in range(m.realisations)],
                    m.resolved_workers())
    return {
        "fig4.csv": _csv_text(["realisation", "sigma", "target_density", "density", "value"],
                              [main for main, _ in results]),
        "fig4_profile.csv": _csv_text(["realisation", "degree", "class_size", "value"],
                                      [row for _, profile in results for row in profile]),
    }


# --------------------------------------------------------------------------
# fig5: attachment sweep


def _attachment_task(task):
    m, b, mech_idx, base_id, g = task
    mechanism = m.mechanisms[mech_idx]
    steps = density_sweep(g, mechanism, fractions=m.fractions,
                          seed=child_seed(m.seed, 400, b, mech_idx))
    return [(base_id, mechanism, *step) for step in steps]


def _fig5_bases(m: RunManifest) -> list[tuple[str, Graph]]:
    """Each base's id and graph: an input is named by its file stem, or by
    ``stem#i`` (i its index in ``inputs``) when another input shares the stem."""
    if m.inputs:
        stems = [Path(p).stem for p in m.inputs]
        return [(stem if stems.count(stem) == 1 else f"{stem}#{i}", read_edgelist(p))
                for i, (stem, p) in enumerate(zip(stems, m.inputs))]
    return [(f"rhgg-{b}", generate(ModelSpec(
        family="rhgg", n=m.n, target=m.base_density, dims=m.dims, lognormal_mu=m.lognormal_mu,
        lognormal_sigma=m.lognormal_sigma, seed=child_seed(m.seed, 300, b),
    ))) for b in range(m.base_count)]


def run_fig5(m: RunManifest) -> dict[str, str]:
    tasks = [(m, b, mech_idx, base_id, g)
             for b, (base_id, g) in enumerate(_fig5_bases(m))
             for mech_idx in range(len(m.mechanisms))]
    rows = [row for rows in _pmap(_attachment_task, tasks, m.resolved_workers()) for row in rows]
    return {"fig5.csv": _csv_text(["base", "mechanism", "fraction", "edges", "value"], rows)}


EXPERIMENTS = {"fig2": run_fig2, "fig3": run_fig3, "fig4": run_fig4, "fig5": run_fig5}


def run_experiment(manifest: RunManifest, out_dir) -> list[Path]:
    """Run one named experiment; returns the written files (sidecar last).
    The output directory is made only after every output is computed."""
    texts = EXPERIMENTS[manifest.experiment](manifest)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text)
    side = _write_sidecar(out, manifest, list(texts))
    return [out / name for name in texts] + [side]


# --------------------------------------------------------------------------
# ranking


def rank_directory(directory) -> list[tuple[Path, ComplexityReport, int, int]]:
    """Analyse every file in a directory; rows sorted by R_hat desc, stem asc.

    Returns (path, report, rank_by_R, rank_by_R_hat) with both rankings
    computed independently (1 = largest).
    """
    files = sorted(p for p in Path(directory).iterdir() if p.is_file())
    if not files:
        raise ValueError(f"no edge-list files in {directory}")
    reports = [complexity_report(read_edgelist(p)) for p in files]
    # sorted() is stable: ties on (value, stem) keep path order
    by_r = sorted(range(len(files)), key=lambda i: (-reports[i].global_unnormalised, files[i].stem))
    by_rhat = sorted(range(len(files)), key=lambda i: (-reports[i].global_normalised, files[i].stem))
    rank_r = {i: pos + 1 for pos, i in enumerate(by_r)}
    return [(files[i], reports[i], rank_r[i], pos + 1) for pos, i in enumerate(by_rhat)]
