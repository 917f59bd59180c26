"""Experiment manifests, CSV drivers, determinism, and ranking."""

from __future__ import annotations

import json

import pytest

from hiercomp.experiments import EXPERIMENTS, RunManifest, rank_directory, run_experiment
from hiercomp.generators import child_seed, gen_er
from hiercomp.workbench import write_edgelist


def small_fig2() -> RunManifest:
    return RunManifest(
        experiment="fig2", seed=0, realisations=3,
        families=("er", "rgg"), n_range=(30, 80),
    )


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_manifest_json_round_trip(tmp_path):
    m = small_fig2()
    p = tmp_path / "manifest.json"
    p.write_text(m.canonical_json())
    again = RunManifest.from_json(p)
    assert again == m
    assert again.families == ("er", "rgg")  # lists frozen back to tuples
    assert again.sha256() == m.sha256()


def test_manifest_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"experiment": "fig2", "bogus": 1}')
    with pytest.raises(ValueError, match="unknown manifest keys"):
        RunManifest.from_json(p)


@pytest.mark.parametrize("settings, key", [
    ({"families": ("er", "ba")}, "families"),
    ({"mechanisms": ("preferential",)}, "mechanisms"),
    ({"n_range": (500, 50)}, "n_range"),
    ({"density_range": (0.1, "0.5")}, "density_range"),
    ({"sigma_range": (0.0, 0.5, 1.0)}, "sigma_range"),
])
def test_manifest_rejects_malformed_settings_when_built(settings, key):
    with pytest.raises(ValueError, match=f"^{key}:"):
        RunManifest(experiment="fig2", **settings)


def test_manifest_rejects_unknown_experiment(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"experiment": "fig9"}')
    with pytest.raises(ValueError, match="unknown experiment"):
        RunManifest.from_json(p)
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment(RunManifest(experiment="fig2", seed=0).__class__(
            experiment="nope"), tmp_path)


def test_canonical_json_is_stable():
    m = small_fig2()
    assert m.canonical_json() == m.canonical_json()
    assert '"experiment":"fig2"' in m.canonical_json()
    keys = list(json.loads(m.canonical_json()))
    assert keys == sorted(keys)


def test_resolved_workers_env_override(monkeypatch):
    m = small_fig2()
    monkeypatch.delenv("HIERCOMP_WORKERS", raising=False)
    assert m.resolved_workers() == 1
    monkeypatch.setenv("HIERCOMP_WORKERS", "3")
    assert m.resolved_workers() == 3
    monkeypatch.setenv("HIERCOMP_WORKERS", "junk")
    assert m.resolved_workers() == 1
    explicit = RunManifest(experiment="fig2", workers=2)
    assert explicit.resolved_workers() == 2


def test_experiment_registry_names():
    assert set(EXPERIMENTS) == {"fig2", "fig3", "fig4", "fig5"}


def test_fig2_rows_and_byte_determinism(tmp_path):
    m = small_fig2()
    out1 = run_experiment(m, tmp_path / "a")
    out2 = run_experiment(m, tmp_path / "b")
    csv1 = [p for p in out1 if p.suffix == ".csv"][0]
    csv2 = [p for p in out2 if p.suffix == ".csv"][0]
    assert csv1.read_bytes() == csv2.read_bytes()
    header, rows = read_rows(csv1)
    assert header == ["family", "realisation", "n", "target_density", "density", "measure", "value"]
    # families x realisations x 3 measure variants
    assert len(rows) == 2 * 3 * 3
    assert {r[5] for r in rows} == {"nhc", "nhc_sqrtk", "nhc_sqrtk_sqrtm"}


def test_fig2_parallel_serial_identical(tmp_path):
    serial = small_fig2()
    parallel = RunManifest(
        experiment="fig2", seed=0, realisations=3,
        families=("er", "rgg"), n_range=(30, 80), workers=2,
    )
    s = run_experiment(serial, tmp_path / "s")
    p = run_experiment(parallel, tmp_path / "p")
    assert s[0].read_bytes() == p[0].read_bytes()
    assert serial.sha256() == parallel.sha256()


def test_fig3_grid_rows(tmp_path):
    m = RunManifest(
        experiment="fig3", seed=0,
        grid=((100, 0.05), (200, 0.03)), seeds_per_point=3,
    )
    outputs = run_experiment(m, tmp_path)
    header, rows = read_rows(outputs[0])
    assert header == ["n", "p", "theory", "sim_mean", "sim_sd", "seeds", "rel_error"]
    assert len(rows) == 2
    for r in rows:
        theory, sim_mean, rel = float(r[2]), float(r[3]), float(r[6])
        assert rel == pytest.approx(abs(theory - sim_mean) / sim_mean, rel=1e-9)
        assert int(r[5]) == 3


def test_fig4_main_and_profile(tmp_path):
    m = RunManifest(experiment="fig4", seed=0, realisations=4, n=120)
    outputs = run_experiment(m, tmp_path)
    names = [p.name for p in outputs]
    assert names == ["fig4.csv", "fig4_profile.csv", "fig4_run.json"]
    header, rows = read_rows(outputs[0])
    assert header == ["realisation", "sigma", "target_density", "density", "value"]
    assert len(rows) == 4
    assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
    pheader, prows = read_rows(outputs[1])
    assert pheader == ["realisation", "degree", "class_size", "value"]
    assert {int(r[0]) for r in prows} <= {0, 1, 2, 3}
    # every profile row names a degree class of at least two nodes
    assert all(int(r[2]) >= 2 for r in prows)


def test_fig5_rows(tmp_path):
    m = RunManifest(
        experiment="fig5", seed=0, n=150, base_count=2,
        base_density=0.05, fractions=(0.0, 0.01, 0.02),
        mechanisms=("random", "combined"),
    )
    outputs = run_experiment(m, tmp_path)
    header, rows = read_rows(outputs[0])
    assert header == ["base", "mechanism", "fraction", "edges", "value"]
    assert len(rows) == 2 * 2 * 3
    assert {r[0] for r in rows} == {"rhgg-0", "rhgg-1"}
    assert {r[1] for r in rows} == {"random", "combined"}
    # within a (base, mechanism) block edge counts never decrease
    for base in ("rhgg-0", "rhgg-1"):
        for mech in ("random", "combined"):
            block = [int(r[3]) for r in rows if r[0] == base and r[1] == mech]
            assert block == sorted(block)


def test_fig5_explicit_inputs(tmp_path):
    g = gen_er(60, 0.1, child_seed(0, 1234))
    src = tmp_path / "base.txt"
    write_edgelist(g, src)
    m = RunManifest(
        experiment="fig5", seed=0, inputs=(str(src),),
        fractions=(0.0, 0.05), mechanisms=("random",),
    )
    outputs = run_experiment(m, tmp_path / "out")
    _, rows = read_rows(outputs[0])
    assert {r[0] for r in rows} == {"base"}
    assert len(rows) == 2


def test_sidecar_contents(tmp_path):
    m = small_fig2()
    outputs = run_experiment(m, tmp_path)
    side = outputs[-1]
    assert side.name == "fig2_run.json"
    blob = json.loads(side.read_text())
    assert blob["manifest_sha256"] == m.sha256()
    assert blob["outputs"] == ["fig2.csv"]
    assert blob["manifest"]["experiment"] == "fig2"
    assert blob["experiment"] == "fig2"


def test_rank_directory_orders_by_measure(tmp_path):
    rng_seed = 9000
    for i, p in enumerate((0.05, 0.2, 0.5)):
        g = gen_er(40, p, child_seed(0, rng_seed, i))
        write_edgelist(g, tmp_path / f"net{i}.txt")
    ranked = rank_directory(tmp_path)
    assert len(ranked) == 3
    values = [rec.R_hat for rec, _, _ in ranked]
    assert values == sorted(values, reverse=True)
    assert [rk for _, _, rk in ranked] == [1, 2, 3]
    r_values = {rec.name: rec.R for rec, _, _ in ranked}
    by_r = sorted(r_values, key=lambda nm: (-r_values[nm], nm))
    assert {rec.name: rank_r for rec, rank_r, _ in ranked} == {
        nm: i + 1 for i, nm in enumerate(by_r)
    }


def test_rank_directory_empty(tmp_path):
    with pytest.raises(ValueError, match="no edge-list files"):
        rank_directory(tmp_path)
