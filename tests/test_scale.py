"""scripts/scale.py: every row's sides, in process at small sizes, must
agree where the script requires it; one point through the child runner."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))  # also seen by the runner's spawned children
import scale  # noqa: E402
from hiercomp import complexity, graph  # noqa: E402

SMALL_N = 600


@pytest.mark.parametrize("point", scale.POINTS.values(), ids=list(scale.POINTS))
def test_point_sides_agree_at_small_size(point, tmp_path, monkeypatch):
    small = dataclasses.replace(point, n=min(point.n, SMALL_N))
    records = []
    for side in small.sides:
        with monkeypatch.context() as mp:  # undoes a reference side's patch
            records.append(scale.measure(small, side, tmp_path, mp.setattr))
    assert [r["side"] for r in records] == list(point.sides)
    assert all(r["wall_s"] >= 0 and r["peak_rss_mb"] > 0 for r in records)
    expected = "agree" if point.compare and len(point.sides) > 1 else "not compared"
    assert scale.verdict(small, records) == expected


def test_verdict_flags_a_difference():
    p = scale.POINTS["repair-600"]
    recs = [{"sha": "a"}, {"sha": "b"}]
    assert scale.verdict(p, recs) == "differ"
    assert scale.verdict(scale.POINTS["er-6000-0.5"], recs) == "not compared"


def test_partial_run_prints_records_and_writes_no_file(capsys):
    before = set(ROOT.glob("BENCH_*.json"))
    assert scale.main(["theory-fig3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    record = json.loads(lines[0])
    assert (record["point"], record["side"]) == ("theory-fig3", "new")
    assert lines[1] == "theory-fig3: not compared"
    assert set(ROOT.glob("BENCH_*.json")) == before
    assert scale.main(["no-such-point"]) == 2


def test_full_run_takes_the_environment_before_the_first_point(tmp_path, monkeypatch, capsys):
    """The dirty flag must describe the tree that the points measured, not
    the tree after the run."""
    events = []
    environment, run_point = scale.environment, scale.run_point
    monkeypatch.setattr(scale, "ROOT", tmp_path)
    monkeypatch.setattr(scale, "POINTS", {"theory-fig3": scale.POINTS["theory-fig3"]})
    monkeypatch.setattr(scale, "environment", lambda: events.append("environment") or environment())
    monkeypatch.setattr(scale, "run_point", lambda p: events.append(p.name) or run_point(p))
    assert scale.main([]) == 0
    assert events == ["environment", "theory-fig3"]
    (path,) = tmp_path.glob("BENCH_*.json")
    assert json.loads(path.read_text())["verdicts"] == {"theory-fig3": "not compared"}


def test_measures_reference_side_runs_the_kernel_per_measure(tmp_path, monkeypatch):
    small = dataclasses.replace(scale.POINTS["measures-er-4000"], n=300)
    passes = []
    kernel = complexity._class_columns
    monkeypatch.setattr(complexity, "_class_columns",
                        lambda g: passes.append(g) or kernel(g))
    for side, count in (("new", 1), ("ref", 3)):
        passes.clear()
        with monkeypatch.context() as mp:
            scale.measure(small, side, tmp_path, mp.setattr)
        assert len(passes) == count, side


@pytest.mark.parametrize("mechanism", ["random", "similarity"])
def test_fig5_reference_side_rebuilds_every_step(tmp_path, monkeypatch, mechanism):
    small = dataclasses.replace(scale.POINTS[f"fig5-{mechanism}-8000"], n=300)
    builds = []
    from_codes = graph.from_codes
    monkeypatch.setattr(graph, "from_codes", lambda *a, **k: builds.append(1) or from_codes(*a, **k))
    shas = []
    for side, rebuilds in (("new", False), ("ref", True)):
        builds.clear()
        with monkeypatch.context() as mp:
            shas.append(scale.measure(small, side, tmp_path, mp.setattr)["sha"])
        assert bool(builds) == rebuilds, side  # the generators' own builds are not counted
    assert shas[0] == shas[1]
