"""Experiment manifests, CSV drivers, determinism, and ranking."""

from __future__ import annotations

import csv
import io
import json
from unittest import mock

import pytest

from hiercomp import experiments
from hiercomp.experiments import (
    EXPERIMENTS, RunManifest, _attachment_task, _csv_text, _fig5_bases, rank_directory,
    run_experiment,
)
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
    ({"workers": "2"}, "workers"),
    ({"realisations": "3"}, "realisations"),
    ({"seed": True}, "seed"),
    ({"seed": -1}, "seed"),
    ({"base_count": 2.0}, "base_count"),
    ({"n": 0}, "n"),
    ({"dims": 0}, "dims"),
    ({"seeds_per_point": 0}, "seeds_per_point"),
    ({"lognormal_mu": "0"}, "lognormal_mu"),
    ({"lognormal_mu": float("nan")}, "lognormal_mu"),
    ({"lognormal_sigma": -0.1}, "lognormal_sigma"),
    ({"base_density": 1.5}, "base_density"),
    ({"base_density": False}, "base_density"),
    ({"families": 3}, "families"),
    ({"families": "er"}, "families"),
    ({"mechanisms": ("random", 1)}, "mechanisms"),
    ({"grid": ((100,),)}, "grid"),
    ({"grid": ((1, 0.1),)}, "grid"),
    ({"grid": ((100.0, 0.1),)}, "grid"),
    ({"grid": ((100, 1.5),)}, "grid"),
    ({"grid": ((100, "0.1"),)}, "grid"),
    ({"grid": (100, 0.1)}, "grid"),
    ({"fractions": "x"}, "fractions"),
    ({"fractions": ()}, "fractions"),
    ({"fractions": (0.0, -0.1)}, "fractions"),
    ({"fractions": (0.0, 0.02, 0.01)}, "fractions"),
    ({"fractions": (0.0, float("inf"))}, "fractions"),
    ({"fractions": (0.0, float("nan"))}, "fractions"),
    ({"fractions": (0.0, True)}, "fractions"),
    ({"inputs": "net.txt"}, "inputs"),
    ({"inputs": ("net.txt", 3)}, "inputs"),
    ({"n_range": (0, 0)}, "n_range"),
    ({"n_range": (50.5, 60.2)}, "n_range"),
    ({"n_range": (50, 60.0)}, "n_range"),
    ({"density_range": (0.5, 1.5)}, "density_range"),
    ({"density_range": (-0.1, 0.5)}, "density_range"),
    ({"sigma_range": (-1, -0.5)}, "sigma_range"),
    ({"sigma_range": (0.0, float("inf"))}, "sigma_range"),
    ({"sigma_range": (float("nan"), 1.0)}, "sigma_range"),
])
def test_manifest_rejects_malformed_settings_when_built(settings, key):
    with pytest.raises(ValueError, match=f"^{key}:"):
        RunManifest(experiment="fig2", **settings)


def test_manifest_accepts_scalar_settings_at_their_bounds():
    m = RunManifest(experiment="fig5", seed=0, realisations=0, n=1, dims=1,
                    seeds_per_point=1, base_count=0, workers=0, lognormal_mu=-2,
                    lognormal_sigma=0.0, base_density=1)
    assert m.base_density == 1 and m.lognormal_mu == -2


def test_manifest_accepts_tuple_settings_at_their_bounds():
    m = RunManifest(experiment="fig3", families=[], mechanisms=["random"], grid=[[2, 0], [3, 1.0]],
                    fractions=[0, 0, 0.5], inputs=["a.txt"], n_range=[1, 1],
                    density_range=[0, 1.0], sigma_range=[0, 0])
    assert m.grid == [[2, 0], [3, 1.0]] and m.fractions == [0, 0, 0.5]


def test_manifest_rejects_unknown_experiment(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"experiment": "fig9"}')
    with pytest.raises(ValueError, match="unknown experiment 'fig9'"):
        RunManifest.from_json(p)
    with pytest.raises(ValueError, match="unknown experiment 'fig9'"):
        RunManifest(experiment="fig9")
    with pytest.raises(ValueError, match="unknown experiment"):
        RunManifest(experiment=["fig2"])


@pytest.mark.parametrize("text", ["3", "[]", '"fig2"', "null", '{"seed": 1}'])
def test_manifest_json_must_be_an_object_with_an_experiment(tmp_path, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    with pytest.raises(ValueError, match="^manifest: expected a JSON object"):
        RunManifest.from_json(p)


def test_canonical_json_is_stable():
    m = small_fig2()
    assert m.canonical_json() == m.canonical_json()
    assert '"experiment":"fig2"' in m.canonical_json()
    keys = list(json.loads(m.canonical_json()))
    assert keys == sorted(keys)


def test_workers_environment_variable_is_ignored(monkeypatch, tmp_path):
    # the manifest's workers alone fans tasks out, whatever the environment holds
    monkeypatch.setenv("HIERCOMP_WORKERS", "3")
    with mock.patch.object(experiments, "ProcessPoolExecutor", side_effect=AssertionError):
        run_experiment(small_fig2(), tmp_path)


def test_experiment_registry_names():
    assert set(EXPERIMENTS) == {"fig2", "fig3", "fig4", "fig5"}


def test_csv_text_quotes_fields_that_need_it():
    names = ["a,b", 'q"x', "line\nbreak", "car\rriage", "plain"]
    rows = [(name, i, 0.1 * i) for i, name in enumerate(names)]
    text = _csv_text(["name", "i", "x"], rows)
    back = list(csv.reader(io.StringIO(text, newline="")))
    assert back[0] == ["name", "i", "x"]
    assert back[1:] == [[name, str(i), repr(0.1 * i)] for i, name in enumerate(names)]
    # a field without , " \r or \n keeps its bytes
    assert text.endswith("plain,4,0.4\n")
    assert _csv_text(["h"], []) == "h\n"


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


def test_fig5_combined_rows_alone_or_after_similarity():
    """No state passes between the sweeps of one base: its combined rows
    are the same on a fresh copy of the base as right after its similarity
    sweep in the same process."""
    m = RunManifest(experiment="fig5", seed=0, n=300, base_count=1, base_density=0.03,
                    fractions=(0.0, 0.05, 0.1), mechanisms=("similarity", "combined"))
    [(base_id, fresh)] = _fig5_bases(m)
    alone = _attachment_task((m, 0, 1, base_id, fresh))
    [(_, g)] = _fig5_bases(m)
    _attachment_task((m, 0, 0, base_id, g))
    assert _attachment_task((m, 0, 1, base_id, g)) == alone
    assert alone[0][3] < alone[-1][3]


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


def test_fig5_inputs_sharing_a_stem_get_distinct_base_ids(tmp_path):
    paths = []
    for i, name in enumerate(("a/net.txt", "b/net.txt", "c/other.txt", "d/net.edges")):
        path = tmp_path / name
        path.parent.mkdir()
        write_edgelist(gen_er(60, 0.1, child_seed(0, 1236, i)), path)
        paths.append(str(path))
    m = RunManifest(experiment="fig5", inputs=tuple(paths), fractions=(0.0,),
                    mechanisms=("random",))
    _, rows = read_rows(run_experiment(m, tmp_path / "out")[0])
    assert [r[0] for r in rows] == ["net#0", "net#1", "other", "net#3"]


def test_fig5_input_stem_with_a_comma_is_quoted(tmp_path):
    src = tmp_path / "karate,club.txt"
    write_edgelist(gen_er(60, 0.1, child_seed(0, 1235)), src)
    m = RunManifest(experiment="fig5", inputs=(str(src),), fractions=(0.0,),
                    mechanisms=("random",))
    text = run_experiment(m, tmp_path / "out")[0].read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[1][0] == "karate,club" and len(rows[1]) == len(rows[0]) == 5
    assert text.splitlines()[1].startswith('"karate,club",random,0.0,')


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
    values = [rep.global_normalised for _, rep, _, _ in ranked]
    assert values == sorted(values, reverse=True)
    assert [rk for _, _, _, rk in ranked] == [1, 2, 3]
    r_values = {path.stem: rep.global_unnormalised for path, rep, _, _ in ranked}
    by_r = sorted(r_values, key=lambda nm: (-r_values[nm], nm))
    assert {path.stem: rank_r for path, _, rank_r, _ in ranked} == {
        nm: i + 1 for i, nm in enumerate(by_r)
    }


def test_rank_directory_files_sharing_a_stem(tmp_path):
    for i, (name, p) in enumerate((("net.txt", 0.1), ("net.edges", 0.3), ("other.txt", 0.5))):
        write_edgelist(gen_er(40, p, child_seed(0, 9100, i)), tmp_path / name)
    ranked = rank_directory(tmp_path)
    assert sorted(path.stem for path, _, _, _ in ranked) == ["net", "net", "other"]
    assert [rk for _, _, _, rk in ranked] == [1, 2, 3]
    assert sorted(rank_r for _, _, rank_r, _ in ranked) == [1, 2, 3]
    by_r = sorted(ranked, key=lambda row: (-row[1].global_unnormalised, row[0].stem))
    assert [rank_r for _, _, rank_r, _ in by_r] == [1, 2, 3]


def test_rank_directory_ties_break_by_name_then_path(tmp_path):
    g = gen_er(40, 0.2, child_seed(0, 9200))
    for name in ("b.txt", "a.txt", "a.edges"):
        write_edgelist(g, tmp_path / name)
    ranked = rank_directory(tmp_path)
    assert [str(path).rsplit("/", 1)[1] for path, _, _, _ in ranked] == [
        "a.edges", "a.txt", "b.txt"]
    assert [(rank_r, rank_rhat) for _, _, rank_r, rank_rhat in ranked] == [(1, 1), (2, 2), (3, 3)]


def test_rank_directory_rows_hold_each_files_report(tmp_path, sixnode_path):
    (tmp_path / "sixnode.txt").write_bytes(sixnode_path.read_bytes())
    ((path, rep, rank_r, rank_rhat),) = rank_directory(tmp_path)
    assert path == tmp_path / "sixnode.txt"
    assert (rep.node_count, rep.edge_count, rank_r, rank_rhat) == (6, 6, 1, 1)
    assert rep.density == pytest.approx(6 / 15)
    assert rep.global_unnormalised == pytest.approx(5 / 18, abs=1e-12)
    assert rep.global_normalised == pytest.approx(5 / 27, abs=1e-12)


def test_rank_directory_empty(tmp_path):
    with pytest.raises(ValueError, match="no edge-list files"):
        rank_directory(tmp_path)
