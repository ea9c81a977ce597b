"""Tests for the zero-dependency dataframe layer (the store read side)."""

import pytest

from repro.analysis.dataframes import (
    Frame,
    METRIC_COLUMNS,
    cell_frame,
    row_delta,
)
from repro.store import ExperimentStore


def _store_row(run_key, **overrides):
    """A minimal v3-shaped store row (plain dict, as query() returns)."""
    row = {
        "run_key": run_key,
        "algorithm": "star4",
        "family": "edge",
        "workload": "random-regular",
        "workload_params": {"n": 48, "d": 8},
        "seed": 0,
        "algo_params": {},
        "engine": "vector",
        "code_version": "test",
        "n": 48,
        "m": 192,
        "kind": "edge",
        "colors_used": 20,
        "rounds_actual": 6,
        "rounds_modeled": 9,
        "verified": True,
        "verdict": "ok",
        "error": None,
        "wall_ms": 12.0,
        "extra": {"delta": 8},
        "metrics": {
            "total_ms": 11.0,
            "compute_ms": 7.5,
            "verify_ms": 1.0,
            "counters": {"engine.rounds": 6.0},
            "warnings": [],
            "queue_ms": 0.5,
        },
    }
    row.update(overrides)
    return row


class TestFrameVerbs:
    def test_column_and_drop_none(self):
        frame = Frame([{"x": 1}, {"x": None}, {"x": 3}])
        assert frame.column("x") == [1, None, 3]
        assert frame.column("x", drop_none=True) == [1, 3]

    def test_where_equals_and_predicate(self):
        frame = Frame([{"a": 1, "b": "p"}, {"a": 2, "b": "q"}, {"a": 3, "b": "p"}])
        assert len(frame.where(b="p")) == 2
        assert len(frame.where(lambda r: r["a"] > 1, b="p")) == 1

    def test_group_by_deterministic_order(self):
        frame = Frame([{"g": "b", "v": 1}, {"g": "a", "v": 2}, {"g": "b", "v": 3}])
        groups = frame.group_by("g")
        assert [key for key, _ in groups] == [("a",), ("b",)]
        assert len(groups[1][1]) == 2


class TestCellFrame:
    def test_v3_row_hoists_metric_columns(self):
        frame = cell_frame([_store_row("k1")])
        row = frame.rows[0]
        assert row["compute_ms"] == pytest.approx(7.5)
        assert row["queue_ms"] == pytest.approx(0.5)
        assert row["counters"] == {"engine.rounds": 6.0}
        assert row["warning_count"] == 0
        # Store columns survive untouched.
        assert row["colors_used"] == 20
        assert row["verdict"] == "ok"

    def test_row_without_metrics_degrades_to_none(self):
        frame = cell_frame([_store_row("k1", metrics=None)])
        row = frame.rows[0]
        for column in METRIC_COLUMNS:
            assert row[column] is None
        assert row["counters"] == {}
        assert row["warning_count"] == 0

    def test_round_trip_through_a_real_store(self, tmp_path):
        with ExperimentStore(tmp_path / "runs.db") as store:
            store.put(_store_row("k1"))
            store.put(_store_row("k2", seed=1, metrics=None))
            frame = cell_frame(store.query())
            assert frame.column("run_key") == ["k1", "k2"]
            assert frame.column("compute_ms", drop_none=True) == [pytest.approx(7.5)]
            assert cell_frame(store.query(seed=1)).column("run_key") == ["k2"]


class TestRowDelta:
    def test_extra_disclosure_wins(self):
        # extra["delta"] measured by the runner beats the workload hint.
        row = _store_row("k", extra={"delta": 11}, workload_params={"n": 48, "d": 8})
        assert row_delta(row) == 11

    def test_workload_hint_for_regular_families(self):
        row = _store_row("k", extra={})
        assert row_delta(row) == 8  # random-regular d=8

    def test_torus_hypercube_complete_hints(self):
        assert row_delta(_store_row("k", extra={}, workload="torus", workload_params={"rows": 5, "cols": 5})) == 4
        assert row_delta(_store_row("k", extra={}, workload="hypercube", workload_params={"dim": 6})) == 6
        assert row_delta(_store_row("k", extra={}, workload="complete", workload_params={"n": 10})) == 9

    def test_unknown_workload_without_disclosure_is_none(self):
        row = _store_row("k", extra={}, workload="erdos-renyi", workload_params={"n": 48, "p": 0.15})
        assert row_delta(row) is None

