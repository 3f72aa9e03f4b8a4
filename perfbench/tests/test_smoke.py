"""Reduced-size runs of every workload through the real pass processes."""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import Workload, make_workloads

SMALL = make_workloads(small=True)
# layers that must be called on each workload, and the oracle only on verify
EXERCISED = {
    "scan": ["combinatorics.b_table.calls", "entanglement.entropy_grid.single_point_calls"],
    "grid": ["backend.schmidt_entropy_grid.calls"],
    "verify": ["oracle.propagate.calls", "evolution.amplitudes_at.calls"],
    "export": ["svgplot.line_plot.calls", "cli.bytes_written"],
}


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return run.Runner(tmp_path_factory.mktemp("bench"))


def _check_schema(summary: dict, expected_metrics) -> None:
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["attempted"] >= 1 and summary["failed"] == 0 and summary["correct"]
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == dict(expected_metrics)
    for metric in summary["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    json.loads(json.dumps(summary))


@pytest.mark.parametrize("name", list(SMALL))
def test_untraced_pass_reports_end_to_end_metrics(runner, name):
    result = run.run_workload(runner, SMALL[name], seed=3, seconds=0, trace=False)
    assert result["errors"] == []
    _check_schema(run.summarize([result]), run.END_TO_END)
    assert all(result["metrics"][n]["value"] > 0 for n, _ in run.END_TO_END)
    assert len(result["samples"]["setup_s"]) > run.SETUP_PROBES


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_pass_reports_layer_metrics(runner, name):
    result = run.run_workload(runner, SMALL[name], seed=3, seconds=0, trace=True)
    assert result["errors"] == [] and result["absent_layers"] == []
    _check_schema(run.summarize([result]), tracing.LAYER_METRICS)
    layers = result["layers"]
    for metric in EXERCISED[name]:
        assert layers[metric] > 0, metric
    if name != "verify":
        assert all(layers[f"oracle.{f}.calls"] == 0 for f in
                   ("verify_closed_form", "build_sector_hamiltonian", "propagate",
                    "schmidt_eigenvalues", "SectorHamiltonian.eigensystem"))


def test_summary_of_several_workloads_prefixes_metrics():
    results = [
        {"workload": w, "correct": True, "attempted": 2, "failed": 0,
         "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
        for w in ("scan", "grid")
    ]
    summary = run.summarize(results)
    assert summary["attempted"] == 4
    assert sorted(summary["metrics"]) == ["grid.wall_s", "scan.wall_s"]


def _evolve(out, steps):
    return [["cli", "evolve", "--n", "3", "--steps", str(steps), "--out", str(out / "e.csv")]]


def test_failed_check_fails_the_run(runner):
    broken = Workload("broken", lambda out, seed: _evolve(out, 10), lambda *args: ["wrong output"])
    result = run.run_workload(runner, broken, seed=0, seconds=0, trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1
    assert run.summarize([result])["metrics"]["pass_ratio"]["value"] == 0.0


def test_nonzero_exit_fails_the_run(runner):
    usage = Workload("usage", lambda out, seed: [["cli", "evolve", "--steps", "1"]], lambda *a: [])
    result = run.run_workload(runner, usage, seed=0, seconds=0, trace=False)
    assert not result["correct"] and "exited 2" in result["errors"][0]


def test_changing_output_fails_the_determinism_check(runner):
    steps = itertools.count(10)
    drifting = Workload("drifting", lambda out, seed: _evolve(out, next(steps)), lambda *a: [])
    result = run.run_workload(runner, drifting, seed=0, seconds=0, trace=True)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert "digests differ" in result["errors"][0]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
