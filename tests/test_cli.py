"""End-to-end checks of the hiercomp command-line interface."""

from __future__ import annotations

import argparse
import csv
import json
import logging

import pytest

from hiercomp.cli import _build_parser, main
from hiercomp.experiments import EXPERIMENTS, RunManifest
from hiercomp.generators import FAMILIES, child_seed, gen_er
from hiercomp.graph import build_graph
from hiercomp.workbench import read_edgelist, write_edgelist


def test_analyze_stdout(capsys, sixnode_path):
    assert main(["analyze", str(sixnode_path)]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["R_hat"] == pytest.approx(5 / 27, abs=1e-12)
    assert payload["R"] == pytest.approx(5 / 18, abs=1e-12)
    assert payload["name"] == "sixnode"
    assert payload["source_path"].endswith("sixnode.txt")
    assert payload["per_degree"]["2"]["count"] == 2


def test_analyze_output_file_and_name(tmp_path, capsys, sixnode_path):
    out = tmp_path / "report.json"
    assert main(["analyze", str(sixnode_path), "--name", "demo", "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["name"] == "demo"


def test_analyze_missing_file(capsys, tmp_path):
    assert main(["analyze", str(tmp_path / "nope.txt")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_generate_er(tmp_path, capsys):
    out = tmp_path / "er.txt"
    code = main([
        "generate", "--family", "er", "--n", "50", "--p", "0.2",
        "--seed", "3", "--output", str(out),
    ])
    assert code == 0
    g = read_edgelist(out)
    assert g.n == 50
    assert f"m={g.m}" in capsys.readouterr().out


def test_generate_empty_graph_warns(tmp_path, capsys):
    out = tmp_path / "empty.txt"
    assert main([
        "generate", "--family", "er", "--n", "20", "--p", "0.0",
        "--output", str(out),
    ]) == 0
    captured = capsys.readouterr()
    assert "warning: generated graph has no edges" in captured.err
    assert read_edgelist(out).m == 0


def test_generate_requires_target(tmp_path, capsys):
    assert main([
        "generate", "--family", "er", "--n", "20", "--output", str(tmp_path / "x.txt"),
    ]) == 2
    assert "one of --p / --density" in capsys.readouterr().err


def test_generate_rhg_with_degree_file(tmp_path, capsys):
    degs = tmp_path / "degrees.txt"
    degs.write_text("3 3 2 2 1 1\n")
    out = tmp_path / "rhg.txt"
    assert main([
        "generate", "--family", "rhg", "--n", "6",
        "--degrees", str(degs), "--output", str(out),
    ]) == 0
    g = read_edgelist(out)
    assert sorted(g.degrees.tolist(), reverse=True) == [3, 3, 2, 2, 1, 1]


def test_generate_rejects_mismatched_degree_file(tmp_path, capsys):
    degs = tmp_path / "degrees.txt"
    degs.write_text("1 1 2 2\n")
    out = tmp_path / "g.txt"
    for family, n, message in (("rhg", "10", "4 entries for n=10"), ("er", "4", "rhg only")):
        assert main([
            "generate", "--family", family, "--n", n, "--density", "0.4",
            "--degrees", str(degs), "--output", str(out),
        ]) == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_theory_stdout(capsys):
    assert main(["theory", "500", "0.002"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "degree,value"
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [1, 2, 3, 4, 5]
    assert "global=0.009336588674617811" in captured.err
    assert "degree_range=[1,5]" in captured.err
    assert "dropped_terms=0" in captured.err


def test_theory_output_file(tmp_path, capsys):
    out = tmp_path / "theory.csv"
    assert main(["theory", "500", "0.002", "--output", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "degree,value"
    assert capsys.readouterr().out == ""


def test_theory_quantile_convention_flag(capsys):
    assert main(["theory", "10", "0.3", "--minmax-quantile", "1/(n+1)"]) == 0
    err = capsys.readouterr().err
    assert "degree_range=[1,5]" in err
    assert main(["theory", "10", "0.3"]) == 0
    assert "degree_range=[1,4]" in capsys.readouterr().err


def test_theory_degenerate_p(capsys):
    assert main(["theory", "100", "0.0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "degree,value\n"
    assert "global=0.0" in captured.err


def test_sweep_runs_manifest(tmp_path, capsys):
    manifest = RunManifest(
        experiment="fig3", seed=0, grid=((80, 0.05),), seeds_per_point=2,
    )
    mpath = tmp_path / "m.json"
    mpath.write_text(manifest.canonical_json())
    outdir = tmp_path / "out"
    assert main(["sweep", "fig3", "--manifest", str(mpath), "--output-dir", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "fig3.csv" in out and "fig3_run.json" in out
    assert (outdir / "fig3.csv").exists()
    side = json.loads((outdir / "fig3_run.json").read_text())
    assert side["manifest_sha256"] == manifest.sha256()


def test_log_level_routes_package_records_to_stderr(tmp_path, capsys):
    # a perfect matching shares no neighbours: similarity falls back to uniform
    base = tmp_path / "matching.txt"
    write_edgelist(build_graph([(2 * i, 2 * i + 1) for i in range(10)]), base)
    manifest = RunManifest(experiment="fig5", inputs=(str(base),), fractions=(0.0, 0.5),
                           mechanisms=("similarity",))
    mpath = tmp_path / "m.json"
    mpath.write_text(manifest.canonical_json())
    sweep = ["sweep", "fig5", "--manifest", str(mpath), "--output-dir", str(tmp_path / "out")]
    notice = ("WARNING hiercomp.attachment: all similarity weights zero; "
              "falling back to uniform attachment")
    assert main(sweep) == 0
    assert notice in capsys.readouterr().err
    assert main(["--log-level", "error", *sweep]) == 0
    assert "hiercomp.attachment" not in capsys.readouterr().err
    degs = tmp_path / "degrees.txt"
    degs.write_text("3 3 2 2 1 1\n")
    rhg = ["generate", "--family", "rhg", "--n", "6", "--degrees", str(degs),
           "--output", str(tmp_path / "rhg.txt")]
    assert main(["--log-level", "DEBUG", *rhg]) == 0
    assert "DEBUG hiercomp.generators: repair n=6" in capsys.readouterr().err
    assert main(rhg) == 0
    assert "DEBUG" not in capsys.readouterr().err
    assert logging.getLogger("hiercomp").handlers == []


def test_sweep_experiment_mismatch(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    mpath.write_text(RunManifest(experiment="fig3").canonical_json())
    assert main(["sweep", "fig2", "--manifest", str(mpath)]) == 2
    assert "manifest is for 'fig3'" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, settings, key", [
    ("fig2", {"families": ["er", "bogus"]}, "families"),
    ("fig2", {"n_range": [50]}, "n_range"),
    ("fig5", {"mechanisms": ["random", "bogus"], "fractions": [0.0]}, "mechanisms"),
    ("fig2", {"workers": "2"}, "workers"),
    ("fig3", {"realisations": "3"}, "realisations"),
    ("fig4", {"n": 0}, "n"),
    ("fig5", {"base_density": 2.0}, "base_density"),
    ("fig2", 3, "manifest"),  # not an object
    ("fig2", ["fig2"], "manifest"),
])
def test_sweep_malformed_manifest_exits_2(tmp_path, capsys, experiment, settings, key):
    mpath = tmp_path / "m.json"
    if isinstance(settings, dict):
        settings = {"experiment": experiment, **settings}
    mpath.write_text(json.dumps(settings))
    out = tmp_path / "out"
    assert main(["sweep", experiment, "--manifest", str(mpath), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}:")
    assert not out.exists()


def test_choices_come_from_the_registries():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def choices(command, dest):
        return next(a for a in sub.choices[command]._actions if a.dest == dest).choices

    assert tuple(choices("generate", "family")) == FAMILIES
    assert list(choices("sweep", "experiment")) == sorted(EXPERIMENTS)


def test_rank_quotes_names_that_hold_commas(tmp_path, capsys):
    nets = tmp_path / "nets"
    nets.mkdir()
    for i, name in enumerate(("karate,club.txt", 'say "hi".txt', "plain.txt")):
        write_edgelist(gen_er(30, 0.2 + 0.1 * i, child_seed(0, 5100, i)), nets / name)
    assert main(["rank", str(nets)]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert all(len(r) == 8 for r in rows)
    assert sorted(r[0] for r in rows[1:]) == ["karate,club", "plain", 'say "hi"']


def test_rank_directory_csv(tmp_path, capsys):
    nets = tmp_path / "nets"
    nets.mkdir()
    for i, p in enumerate((0.1, 0.4)):
        write_edgelist(gen_er(30, p, child_seed(0, 5000, i)), nets / f"g{i}.txt")
    assert main(["rank", str(nets)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "name,n,m,density,R,R_hat,rank_R,rank_R_hat"
    assert len(lines) == 3
    rhats = [float(ln.split(",")[5]) for ln in lines[1:]]
    assert rhats == sorted(rhats, reverse=True)
    assert [ln.split(",")[7] for ln in lines[1:]] == ["1", "2"]


def test_rank_output_file(tmp_path, capsys):
    nets = tmp_path / "nets"
    nets.mkdir()
    write_edgelist(gen_er(30, 0.3, child_seed(0, 5001)), nets / "only.txt")
    out = tmp_path / "rank.csv"
    assert main(["rank", str(nets), "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().splitlines()[1].startswith("only,30,")


def test_rank_empty_directory(tmp_path, capsys):
    assert main(["rank", str(tmp_path)]) == 2
    assert "no edge-list files" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
