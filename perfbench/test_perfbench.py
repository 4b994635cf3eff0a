"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hypexpand import cli  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import Tracer, layer_stats  # noqa: E402
from worker import LAYER_METRICS, Tally, layer_unit  # noqa: E402
from workloads import POOL, WORKLOADS, op_params, run_op  # noqa: E402

# The winding-number fallback runs only for regions without exact membership,
# which no CLI command builds: its 0 calls are what keeps exact_ratio at 1.0.
NEVER_CALLED = {"convexity.winding_contains"}


def test_op_list_is_deterministic_for_a_seed():
    for workload in WORKLOADS:
        ops = range(POOL[workload] + 1)
        first = [op_params(workload, 7, i) for i in ops]
        assert first == [op_params(workload, 7, i) for i in ops]
        assert first != [op_params(workload, 8, i) for i in ops]
        with pytest.raises(ValueError):
            op_params(workload, 7, POOL[workload] + 1)
    assert all(0.25 <= op_params("contraction", 7, i)["k1"] <= 0.97
               for i in range(POOL["contraction"] + 1))


def test_a_failing_op_counts_once_however_often_it_runs():
    tally = Tally()
    for _ in range(3):
        tally.add(1, {"a.json": "{}"}, [])
        tally.add(2, {"a.json": "{}"}, ["check failed"])
    tally.add(3, {"a.json": "{}"}, [])
    tally.add(3, {"a.json": "[]"}, [])
    tally.add(4, None, ["raised"], raised=True)
    assert tally.as_dict()["attempted"] == 4
    assert tally.as_dict()["failed"] == 3
    assert tally.as_dict()["raised"] == 1
    assert tally.as_dict()["runs"] == 9


def test_self_time_subtracts_direct_children():
    spans = [["a", 0, 100, -1, 1], ["b", 10, 40, 0, 1], ["c", 20, 30, 1, 1], ["b", 50, 60, 0, 1]]
    stats = layer_stats(spans, {("b", "probes"): 7})
    assert stats["a"] == {"calls": 1, "span_ns": 100, "self_ns": 60}
    assert stats["b"] == {"calls": 2, "span_ns": 40, "self_ns": 30, "probes": 7}
    assert stats["c"] == {"calls": 1, "span_ns": 10, "self_ns": 10}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per workload: untraced outputs of op 1 and two traced runs of it."""
    tmpdir = tmp_path_factory.mktemp("ops")
    out = {}
    for workload in WORKLOADS:
        params = op_params(workload, 3, 1)
        plain = run_op(cli, workload, params, tmpdir)
        runs = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                outputs = run_op(cli, workload, params, tmpdir)
            finally:
                tracer.uninstall()
            runs.append((outputs, layer_stats(*tracer.take())))
        out[workload] = plain, runs
    return out


def test_traced_outputs_match_untraced(traced):
    for workload, (plain, runs) in traced.items():
        for outputs, _ in runs:
            assert outputs == plain, workload


def test_two_traced_runs_count_the_same_work(traced):
    for workload, (_, runs) in traced.items():
        counts = [{name: {k: v for k, v in s.items() if not k.endswith("_ns")}
                   for name, s in stats.items()} for _, stats in runs]
        assert counts[0] == counts[1], workload


def test_every_listed_function_is_called_on_some_workload(traced):
    calls = {}
    for _, runs in traced.values():
        for name, s in runs[0][1].items():
            calls[name] = calls.get(name, 0) + s["calls"]
    listed = {m.rpartition(".")[0] for m in LAYER_METRICS
              if not m.startswith(("trace.", "convexity.membership.", "cli.search."))}
    assert {name for name in listed if calls.get(name, 0) == 0} == NEVER_CALLED


def test_expansion_never_measures_distance_to_the_boundary(traced):
    _, runs = traced["expansion"]
    assert "convexity.polyline_distance" not in runs[0][1]
    assert runs[0][1]["convexity.klein_polygon_contains"]["calls"] > 0


def test_tracer_restores_the_original_functions():
    from hypexpand import convexity, disk
    before = (convexity.geodesic_chord_points, disk.geodesic_chord_points)
    tracer = Tracer()
    tracer.install()
    try:
        assert convexity.geodesic_chord_points is disk.geodesic_chord_points
        assert convexity.geodesic_chord_points is not before[0]
    finally:
        tracer.uninstall()
    assert (convexity.geodesic_chord_points, disk.geodesic_chord_points) == before


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(m, layer_unit(m)) for m in LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "expansion",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
