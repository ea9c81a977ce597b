"""Campaign instrumentation: per-cell metrics blobs, runner-side queue
metrics, warning dedup, and the persisted campaign summary."""

import warnings

import pytest

from repro.analysis.campaign import (
    METRICS_VERSION,
    CampaignCell,
    CampaignRunner,
    _execute_cell,
)
from repro.engine import EngineFallbackWarning
from repro.local import NodeAlgorithm
from repro.store import ExperimentStore, RunCache

CELLS = [
    CampaignCell("linial", "planar-grid", {"rows": 3, "cols": 3}, seed=0),
    CampaignCell("greedy", "random-regular", {"n": 16, "d": 4}, seed=0),
]

#: A synthetic algorithm whose node algorithm has no vector program, so
#: every ``engine="vector"`` run of it is delegated to the reference
#: engine with an ``EngineFallbackWarning`` (reason ``no-program``). The
#: fixture registers it for one test and removes it again so
#: registry-enumerating suites (compact parity, `repro algorithms`) never
#: see it.
PROBE = "no-program-probe"

#: Vector cells driven through the probe: every such cell raises the
#: delegation warning. Distinct params (not distinct seeds — xl-grid is
#: deterministic, seeds would collapse into one shared computation) so
#: both cells actually execute.
WARNING_CELLS = [
    CampaignCell(PROBE, "xl-grid", {"rows": 4, "cols": 4}, engine="vector"),
    CampaignCell(PROBE, "xl-grid", {"rows": 4, "cols": 5}, engine="vector"),
]


class _OneShot(NodeAlgorithm):
    name = PROBE

    def initialize(self, node, ctx):
        node.state["output"] = 0

    def step(self, node, inbox, round_no, ctx):
        node.halt()


@pytest.fixture
def no_program_algorithm():
    from repro import registry
    from repro.local import run_on_graph

    def _runner(graph, **params):
        result = run_on_graph(graph, _OneShot())
        return registry.AlgorithmRun(
            name=PROBE,
            kind="vertex-coloring",
            coloring=dict(result.outputs),
            colors_used=1,
            rounds_actual=result.rounds,
        )

    registry.register(
        registry.AlgorithmSpec(
            name=PROBE,
            family="baseline",
            kind="vertex-coloring",
            summary="test-only: a node algorithm the vector engine delegates",
            color_bound="1",
            rounds_bound="0",
            runner=_runner,
            invariants=(),
        )
    )
    try:
        yield PROBE
    finally:
        registry._REGISTRY.pop(PROBE, None)


class TestCellMetricsBlob:
    def test_success_row_carries_phases_and_counters(self):
        row = _execute_cell(
            {
                "algorithm": "linial",
                "workload": "planar-grid",
                "workload_params": {"rows": 3, "cols": 3},
                "seed": 0,
                "algo_params": {},
                "engine": "reference",
            }
        )
        assert row["error"] is None
        metrics = row["metrics"]
        assert metrics["v"] == METRICS_VERSION
        for phase in ("build_ms", "compute_ms", "verify_ms", "total_ms"):
            assert metrics[phase] >= 0
        assert metrics["counters"]["engine.runs[engine=reference]"] == 1
        assert "registry.run" in metrics["timers"]
        # compute_ms is the same measurement as the wall_ms column
        assert metrics["compute_ms"] == pytest.approx(row["wall_ms"], abs=0.01)

    def test_error_row_still_carries_metrics(self):
        row = _execute_cell(
            {
                "algorithm": "linial",
                "workload": "no-such-workload",
                "workload_params": {},
                "seed": 0,
                "algo_params": {},
                "engine": None,
            }
        )
        assert row["error"] is not None
        assert row["metrics"]["v"] == METRICS_VERSION
        assert row["metrics"]["total_ms"] >= 0

    def test_warnings_captured_not_leaked(self, no_program_algorithm):
        payload = {
            "algorithm": no_program_algorithm,
            "workload": "xl-grid",
            "workload_params": {"rows": 4, "cols": 4},
            "seed": 0,
            "algo_params": {},
            "engine": "vector",
        }
        with warnings.catch_warnings(record=True) as leaked:
            warnings.simplefilter("always")
            row = _execute_cell(payload)
        assert leaked == []  # captured into the blob, not re-raised here
        assert row["error"] is None
        pairs = row["metrics"]["warnings"]
        assert ["EngineFallbackWarning"] == sorted({c for c, _ in pairs})
        assert "(no-program)" in pairs[0][1]
        assert row["metrics"]["counters"]["engine.fallback[reason=no-program]"] == 1


class TestRunnerMetrics:
    def test_pooled_rows_carry_queue_and_window(self):
        rows = CampaignRunner(CELLS, jobs=2).run()
        for row in rows:
            metrics = row["metrics"]
            assert metrics["queue_ms"] >= 0
            assert metrics["attempts"] == 1
            assert 1 <= metrics["window"] <= 4  # default window = 2 * jobs

    def test_inline_rows_carry_queue_and_window(self):
        rows = CampaignRunner(CELLS, jobs=1).run()
        for row in rows:
            assert row["metrics"]["attempts"] == 1
            assert row["metrics"]["window"] == 1

    def test_summary_aggregates_and_utilization(self):
        runner = CampaignRunner(CELLS, jobs=1)
        runner.run()
        summary = runner.last_summary
        assert summary["cells"] == 2
        assert summary["computed"] == 2
        assert summary["hits"] == 0
        # only linial drives a round engine (greedy is a sequential
        # baseline), but both cells pass through the registry
        assert summary["counters"]["engine.runs[engine=reference]"] == 1
        assert summary["timers"]["registry.run"][0] == 2
        assert 0 < summary["worker_utilization"] <= 1
        assert summary["elapsed_s"] >= 0

    def test_warning_deduped_to_one_emission(self, no_program_algorithm):
        runner = CampaignRunner(WARNING_CELLS, jobs=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = runner.run()
        assert [r["error"] for r in rows] == [None, None]
        fallback = [
            w for w in caught if issubclass(w.category, EngineFallbackWarning)
        ]
        assert len(fallback) == 1  # two warning cells, one emission
        assert str(fallback[0].message).startswith("[campaign] ")
        # ... but the summary still counts every occurrence
        (entry,) = runner.last_summary["warnings"]
        category, _message, count = entry
        assert category == "EngineFallbackWarning"
        assert count == 2

    def test_summary_persisted_to_store_meta(self, tmp_path):
        with ExperimentStore(tmp_path / "runs.db") as store:
            runner = CampaignRunner(CELLS, cache=RunCache(store), jobs=1)
            runner.run()
            persisted = store.get_meta("last_campaign")
            assert persisted["computed"] == 2
            assert persisted["hits"] == 0
            # a warm rerun reports its hits (the only source of hit rate)
            rerun = CampaignRunner(CELLS, cache=RunCache(store), jobs=1)
            rerun.run()
            persisted = store.get_meta("last_campaign")
            assert persisted["hits"] == 2
            assert persisted["computed"] == 0

    def test_metrics_persisted_and_served_on_hits(self, tmp_path):
        with ExperimentStore(tmp_path / "runs.db") as store:
            CampaignRunner(CELLS, cache=RunCache(store), jobs=1).run()
            stored = store.query()
            assert all(r["metrics"]["v"] == METRICS_VERSION for r in stored)
            hits = CampaignRunner(CELLS, cache=RunCache(store), jobs=1).run()
            assert all(r["cached"] for r in hits)
            assert all(r["metrics"]["v"] == METRICS_VERSION for r in hits)

    def test_retry_counted_in_attempts(self):
        cells = [
            CampaignCell(
                "thm54", "random-regular", {"n": 16, "d": 4}, algo_params={"x": 0}
            )
        ]
        runner = CampaignRunner(cells, retries=2, jobs=1)
        (row,) = runner.run()
        assert row["error"] is not None  # deterministic failure repeats
        assert row["metrics"]["attempts"] == 3  # 1 + 2 retries
