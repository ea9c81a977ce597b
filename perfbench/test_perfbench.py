"""Tests of the benchmark's own helpers, and a reduced-size smoke pass of
every workload. Run from the repository root with
``PYTHONPATH=src python -m pytest perfbench -q``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, pins, suite
from perfbench.metrics import (
    count_failures,
    covered,
    median,
    percentile,
    self_times,
    tail_percentiles,
    union_length,
    valid_name,
)
from perfbench.run import END_TO_END
from perfbench.tracing import ROW_KEY, SpanRecorder, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- metric names -------------------------------------------------------------

@pytest.mark.parametrize("name", ["wall_s", "cell_ms.p90", "a-b_c.d", "9lives", "x" * 64])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "-x", "a b", "a/b", "wall:s", "x" * 65])
def test_invalid_names(name):
    assert not valid_name(name)


def test_benchmark_json_names_match_the_code():
    bench = _benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(suite.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == END_TO_END
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == layers.LAYER_METRICS
    every = names + list(e2e) + list(per_layer)
    assert len(every) == len(set(every))
    assert all(valid_name(n) for n in every)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s"
    )


def test_layer_table_cites_only_known_names():
    bench = _benchmark()
    table = json.loads((HERE / "layers.json").read_text())["table"]
    workloads = {w["name"] for w in bench["workloads"]}
    moves = {m["name"] for m in bench["end_to_end"]} | {"resume_s", "cell_ms.p90"}
    cited = [m for entry in table for m in entry["metrics"]]
    assert sorted(cited) == sorted(layers.LAYER_METRICS)
    for entry in table:
        assert set(entry["moves"]) <= moves
        for key in ("on", "flat_on", "absent_on"):
            assert set(entry[key]) <= workloads


# -- the percentile rule ------------------------------------------------------

def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(19)), 50) is None
    assert percentile([float(v) for v in range(1, 21)], 50) == 10.0
    assert percentile(list(range(99)), 90) is None
    assert percentile([float(v) for v in range(1, 101)], 90) == 90.0
    assert percentile([], 50) is None


def test_tail_percentiles_reports_only_what_the_rule_allows():
    assert tail_percentiles([1.0] * 5) == {}
    assert set(tail_percentiles([1.0] * 20)) == {"p50"}
    assert set(tail_percentiles([1.0] * 100)) == {"p50", "p90"}
    assert set(tail_percentiles([1.0] * 1000)) == {"p50", "p90", "p99"}


# -- failures against attempts -------------------------------------------------

def test_count_failures():
    assert count_failures([]) == (0, 0)
    assert count_failures([[], [], []]) == (3, 0)
    # one operation with two problems fails once
    assert count_failures([[], ["a", "b"], ["c"]]) == (3, 2)


# -- self-time arithmetic -----------------------------------------------------

def test_union_and_coverage():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0
    assert union_length([(3, 3)]) == 0.0
    assert covered([(0, 2), (8, 20)], 1, 10) == 3.0


def _span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_subtracts_children_once():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("a", "root", 1.0, 4.0),
        _span("b", "root", 3.0, 5.0),  # overlaps a: parallel workers
        _span("c", "a", 1.0, 2.0),  # grandchild: only a's business
        _span("d", "root", 9.0, 12.0),  # runs past its parent: clipped
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own["a"] == pytest.approx(2.0)
    assert own["b"] == pytest.approx(2.0)
    assert own["c"] == pytest.approx(1.0)
    assert own["d"] == pytest.approx(3.0)


def test_self_time_table_and_coverage():
    spans = [
        _span("1", None, 0.0, 1.0, "campaign.cell"),
        _span("2", "1", 0.0, 0.25, "workloads.build"),
        _span("3", "1", 0.5, 0.75, "registry.run"),
    ]
    table = layers.self_time_table(spans)
    assert table == pytest.approx(
        {"campaign.cell": 500.0, "registry.run": 250.0, "workloads.build": 250.0}
    )
    assert layers.coverage(spans, 0.0, 1.0) == pytest.approx(0.5)


# -- spans ---------------------------------------------------------------------

def test_recorder_nests_and_skips_recursion():
    recorder = SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            with recorder.span("inner"):
                pass
    spans = recorder.take()
    assert [s["name"] for s in spans] == ["inner", "outer"]
    inner, outer = spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert recorder.take() == []


def test_instrument_restores_every_binding():
    from repro import registry, verify
    from repro.core import arboricity
    from repro.graphs import properties
    from repro.store.cache import RunCache

    before = (registry.run, verify.verify_run, arboricity.arboricity_bounds,
              properties.arboricity_bounds, RunCache.get)
    with instrument(SpanRecorder()):
        assert registry.run is not before[0]
        assert arboricity.arboricity_bounds is not before[2]
    after = (registry.run, verify.verify_run, arboricity.arboricity_bounds,
             properties.arboricity_bounds, RunCache.get)
    assert after == before


# -- pinned outputs ------------------------------------------------------------

def _row(**overrides):
    row = {
        "algorithm": "linial", "workload": "xl-grid",
        "workload_params": {"cols": 60, "rows": 60}, "seed": 0, "algo_params": {},
        "colors_used": 7, "rounds_actual": 2.0, "verdict": "ok", "error": None,
    }
    row.update(overrides)
    return row


def test_check_row_reports_mismatches_by_cell():
    key = pins.cell_key(_row())
    pinned = {key: [7, 2.0, "ok", None]}
    assert pins.check_row(_row(), pinned) == []
    problems = pins.check_row(_row(colors_used=8), pinned)
    assert problems == [f"{key}: colors_used expected 7, got 8"]
    assert pins.check_row(_row(seed=3), pinned)[0].endswith("no pinned output")
    assert pins.check_row(_row(cached=False), pinned, expect_cached=True) == [
        f"{key}: resume recomputed a stored result"
    ]


def test_check_row_pins_error_types():
    row = _row(error="InvalidParameterError: root_forest requires a forest",
               colors_used=None, rounds_actual=None, verdict=None)
    pinned = {pins.cell_key(row): [None, None, None, "InvalidParameterError"]}
    assert pins.check_row(row, pinned, expect_cached=True) == []
    other = dict(row, error="ValueError: boom")
    assert "error expected" in pins.check_row(other, pinned)[0]


def test_pins_cover_every_seed_the_benchmark_can_make():
    from repro import workloads

    pinned = pins.load()
    for workload in suite.WORKLOADS.values():
        for size in suite.SIZES:
            for seed in (0, 5, 2**31 - 1):
                for cell in workload.cells(seed, size):
                    row = {
                        "algorithm": cell.algorithm, "workload": cell.workload,
                        "workload_params": cell.workload_params,
                        "seed": workloads.normalized_seed(cell.workload, cell.seed),
                        "algo_params": cell.algo_params,
                    }
                    assert pins.cell_key(row) in pinned, (workload.name, size, seed)


# -- reduced-size smoke passes -------------------------------------------------

@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_smoke_pass(name, tmp_path):
    workload = suite.WORKLOADS[name]
    cells = workload.cells(3, "smoke")
    pinned = pins.load()
    recorder = SpanRecorder()
    with instrument(recorder):
        result = suite.run_pass(workload, cells, tmp_path / "pass", recorder)
    assert not (tmp_path / "pass").exists()
    problems = [p for row in result.rows for p in pins.check_row(row, pinned)]
    for rows in result.resume_rows:
        problems += [p for row in rows for p in pins.check_row(row, pinned, True)]
    assert problems == []
    assert len(result.resume_s) == workload.resume_reps
    metrics = layers.pass_metrics(result)
    assert set(metrics) == set(layers.LAYER_METRICS) - {"obs.trace_overhead_frac"}
    assert metrics["registry.run_ms"] > 0 and metrics["workloads.build_ms"] > 0
    assert metrics["store.puts"] >= 1 and metrics["report.render_ms"] > 0
    assert 0 < metrics["obs.coverage_frac"] <= 1
    assert metrics["store.hit_ratio"] > 0
    names = {s["name"] for s in result.spans}
    assert {"campaign.run", "campaign.cell", "verify.run"} <= names
    assert all(s["cell"] for s in result.spans if s["name"] == "workloads.build")
    if name == "xl-linial":
        assert metrics["kernels.linial_ms"] > 0
    if name == "xl-linial-sharded":
        assert metrics["shard.partition_ms"] > 0 and metrics["shard.rounds"] > 0
    if name == "paper-pipelines":
        assert metrics["engine.step_ms"] > 0 and metrics["graphs.line_graph_ms"] > 0
    assert all(ROW_KEY in row for row in result.rows)


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize(
    "workload, trace, names",
    [("xl-linial", "0", set(END_TO_END)), ("grid", "1", set(layers.LAYER_METRICS))],
)
def test_command_prints_the_contract_line(workload, trace, names, tmp_path):
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    done = _run(["--workload", workload, "--size", "smoke", "--seconds", "0",
                 "--seed", "1", "--trace", trace], tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == names
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())
    assert list((tmp_path / ".perfbench" / "results").glob("*.json"))
    assert not list((tmp_path / ".perfbench").glob("work-*"))


def test_command_fails_without_the_program(tmp_path):
    done = _run(["--workload", "grid", "--seconds", "1", "--seed", "0", "--trace", "0"],
                tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
