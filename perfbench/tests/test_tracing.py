"""Self-time arithmetic and wrapper installation on synthetic spans."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import run
import tracing
from tracing import Recorder, Span, covered_length, layer_metrics, self_times
from workloads import make_workloads


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0),
        Span("child", 1.0, 4.0, parent=0),
        Span("grandchild", 2.0, 3.0, parent=1),
        Span("child", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_overlapping_and_overhanging_children_count_once():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 5.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a
        Span("c", 8.0, 12.0, parent=0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_covered_length_clips_and_merges():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(2, 4), (1, 3), (6, 7)], 0, 10) == pytest.approx(4.0)
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3.0)


def _ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_recorder_nests_and_layer_metrics_sum_per_layer():
    rec = Recorder(clock=_ticking_clock())
    root = rec.open("cli.main")  # t=0
    inner = rec.open("combinatorics.b_table")  # t=1
    rec.close(inner)  # t=2
    inner = rec.open("combinatorics.b_table")  # t=3
    rec.close(inner)  # t=4
    rec.close(root)  # t=5
    metrics = layer_metrics(rec, work_start=-1.0, work_end=7.0)
    assert [s.parent for s in rec.spans] == [None, 0, 0]
    assert metrics["cli.main.self_s"] == pytest.approx(3.0)
    assert metrics["combinatorics.b_table.calls"] == 2
    assert metrics["combinatorics.b_table.self_s"] == pytest.approx(2.0)
    assert metrics["trace.unattributed_s"] == pytest.approx(3.0)
    assert metrics["oracle.propagate.calls"] == 0
    assert metrics["combinatorics.b_table.useful_ratio"] == 0.0


def test_merge_sums_processes_and_rederives_ratios():
    first = {"combinatorics.b_table.calls": 4, "combinatorics.b_table.distinct_specs": 2,
             "oracle.build_sector_hamiltonian.max_dim": 10,
             "backend.schmidt_entropy_grid.points": 100, "backend.schmidt_entropy_grid.busy_s": 1.0}
    second = {"combinatorics.b_table.calls": 4, "combinatorics.b_table.distinct_specs": 2,
              "oracle.build_sector_hamiltonian.max_dim": 6,
              "backend.schmidt_entropy_grid.points": 300, "backend.schmidt_entropy_grid.busy_s": 1.0}
    merged = tracing.merge_layer_metrics([first, second])
    assert merged["combinatorics.b_table.calls"] == 8
    assert merged["combinatorics.b_table.useful_ratio"] == pytest.approx(0.5)
    assert merged["oracle.build_sector_hamiltonian.max_dim"] == 10
    assert merged["backend.schmidt_entropy_grid.points_per_s"] == pytest.approx(200.0)


def test_install_wraps_present_names_and_reports_absent(monkeypatch):
    module = types.ModuleType("fake_layer")

    class Holder:
        def method(self, x):
            return x + 1

    module.double = lambda x: 2 * x
    module.Holder = Holder
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    rec = Recorder()
    absent = tracing.install(rec, targets=(
        ("fake_layer", "double", "fake.double", None),
        ("fake_layer", "Holder.method", "fake.method", None),
        ("fake_layer", "gone", "fake.gone", None),
        ("no_such_module_here", "x", "fake.x", None),
    ))
    assert absent == ["fake_layer.gone", "no_such_module_here.x"]
    assert module.double(3) == 6
    assert Holder().method(1) == 2
    assert [s.name for s in rec.spans] == ["fake.double", "fake.method"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(make_workloads())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
