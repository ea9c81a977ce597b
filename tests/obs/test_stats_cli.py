"""The reporting read side: campaign_stats aggregation, render_stats,
and the stats / trace / query --slowest CLI surfaces."""

import pytest

from repro.cli import main
from repro.obs import campaign_stats, render_stats


def _row(algorithm="linial", ms=10.0, metrics=True, **over):
    row = {
        "algorithm": algorithm,
        "workload": "planar-grid",
        "seed": 0,
        "engine": "reference",
        "rounds_actual": 3.0,
        "wall_ms": ms * 2,  # differs from compute_ms so the source is visible
        "verdict": "ok",
        "error": None,
        "run_key": "k" * 64,
        "metrics": (
            {
                "v": 1,
                "compute_ms": ms,
                "total_ms": ms,
                "queue_ms": 1.5,
                "counters": {"kernel.fallback[kernel=linial,reason=x]": 1},
                "timers": {},
            }
            if metrics
            else None
        ),
    }
    row.update(over)
    return row


class TestCampaignStats:
    def test_slowest_ranks_on_wall_ms(self):
        stats = campaign_stats([_row(ms=5.0), _row(ms=50.0)], top=1)
        (slowest,) = stats["slowest"]
        assert slowest["ms"] == 100.0  # the wall_ms column, not compute_ms
        assert slowest["source"].startswith("wall_ms")
        assert slowest["compute_ms"] == 50.0  # metrics detail, not the key

    def test_rows_without_metrics_rank_on_wall_ms(self):
        stats = campaign_stats([_row(ms=5.0, metrics=False)], top=5)
        (slowest,) = stats["slowest"]
        assert slowest["ms"] == 10.0  # the wall_ms column
        assert slowest["source"] == "wall_ms"
        assert slowest["compute_ms"] is None

    def test_mixed_rows_never_order_compute_against_wall(self):
        # Ranked by compute_ms=50, the row with metrics would beat the
        # blobless row's wall_ms=40 even though its own wall time (100)
        # is larger — the ordering would compare different quantities.
        # Both rank by wall_ms.
        with_blob = _row(ms=50.0)  # wall_ms=100
        blobless = _row(ms=20.0, metrics=False)  # wall_ms=40
        stats = campaign_stats([blobless, with_blob], top=2)
        assert [item["ms"] for item in stats["slowest"]] == [100.0, 40.0]
        sources = {item["source"].split(";")[0] for item in stats["slowest"]}
        assert sources == {"wall_ms"}

    def test_rows_without_wall_ms_are_excluded_and_counted(self):
        stats = campaign_stats([_row(), _row(wall_ms=None)], top=5)
        assert stats["untimed"] == 1
        assert len(stats["slowest"]) == 1

    def test_dead_worker_row_counts_as_error_and_untimed(self):
        """Regression: the row the runner makes up for a cell whose worker
        died has no metrics blob; it was reported as a pre-schema-v3 row."""
        stats = campaign_stats([_row(), _dead_worker_row()], top=5)
        assert stats["cells"] == 2
        assert stats["errors"] == 1
        assert stats["untimed"] == 1
        assert stats["verdicts"] == {"None": 1, "ok": 1}
        assert len(stats["slowest"]) == 1
        assert "v3" not in render_stats(stats)

    def test_fallback_counters_filtered_by_prefix(self):
        stats = campaign_stats([_row()], top=5)
        assert "kernel.fallback[kernel=linial,reason=x]" in stats["fallbacks"]

    def test_per_algorithm_distributions(self):
        rows = [_row(ms=1.0), _row(ms=3.0), _row(algorithm="greedy", ms=2.0)]
        stats = campaign_stats(rows, top=5)
        linial = stats["per_algorithm"]["linial"]
        assert linial["wall_ms"]["count"] == 2
        assert linial["rounds"]["count"] == 2

    def test_render_includes_hit_rate_from_summary(self):
        text = render_stats(
            campaign_stats([_row()], top=5),
            summary={
                "hits": 3, "done": 4, "computed": 1, "errors": 0,
                "retried": 0, "elapsed_s": 1.0,
                "worker_utilization": 0.5, "jobs": 2,
            },
        )
        assert "3 cache hits (75.0% hit rate)" in text
        assert "worker utilization: 50.0%" in text


def _dead_worker_row():
    from repro.analysis.campaign import _error_row

    return _error_row(
        {
            "algorithm": "greedy",
            "workload": "planar-grid",
            "workload_params": {"rows": 3, "cols": 3},
            "seed": 1,
            "algo_params": {},
            "engine": "reference",
            "shards": None,
        },
        "BrokenProcessPool: A process in the process pool was terminated abruptly",
    )


@pytest.fixture
def small_store(tmp_path):
    path = tmp_path / "runs.db"
    assert (
        main(
            [
                "campaign", "cells",
                "--algorithms", "linial,greedy",
                "--workloads", "planar-grid",
                "--seeds", "0",
                "--jobs", "1",
                "--store", str(path),
            ]
        )
        == 0
    )
    return path


class TestStatsCli:
    def test_exits_zero_with_cells(self, small_store, capsys):
        assert main(["stats", "--store", str(small_store)]) == 0
        out = capsys.readouterr().out
        assert "cells: 2 stored" in out
        assert "slowest cells:" in out
        assert "last campaign: 2 cells" in out

    def test_missing_store_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["stats", "--store", str(tmp_path / "nope.db")])


class TestQuerySlowest:
    def test_lists_each_rows_source(self, small_store, capsys):
        import sqlite3

        conn = sqlite3.connect(small_store)
        conn.execute("UPDATE runs SET metrics = NULL WHERE algorithm = 'greedy'")
        conn.commit()
        conn.close()
        assert main(["query", "--store", str(small_store), "--slowest", "5"]) == 0
        out = capsys.readouterr().out
        assert "(wall_ms; metrics compute_ms=" in out
        assert "(wall_ms)" in out
        assert "note:" not in out


class TestDeadWorkerRow:
    """A store holding the row made up for a dead worker: neither report
    mentions a schema version, and the row counts as errored and untimed."""

    @pytest.fixture
    def store_with_dead_worker(self, small_store):
        from repro.store import ExperimentStore, RunCache

        row = _dead_worker_row()
        with ExperimentStore(small_store) as store:
            RunCache(store).record("dead" * 16, row, engine="reference")
        return small_store

    def test_stats(self, store_with_dead_worker, capsys):
        assert main(["stats", "--store", str(store_with_dead_worker)]) == 0
        out = capsys.readouterr().out
        assert "cells: 3 stored, 1 errored" in out
        assert "rows without a wall_ms column: 1" in out
        assert "v3" not in out and "schema" not in out

    def test_query_slowest(self, store_with_dead_worker, capsys):
        assert main([
            "query", "--store", str(store_with_dead_worker), "--slowest", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "note: 1 rows have no wall_ms column" in out
        assert "v3" not in out and "schema" not in out
        assert "--fresh" not in out


class TestTraceCli:
    def test_show_and_validate(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert (
            main(
                [
                    "run", "--workload", "planar-grid",
                    "--workload-param", "rows=3", "--workload-param", "cols=3",
                    "--algorithm", "linial", "--jobs", "1",
                    "--trace", str(trace),
                ]
            )
            == 0
        )
        assert trace.exists()
        assert main(["trace", "validate", str(trace)]) == 0
        assert main(["trace", "show", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "registry.run" in out

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "show", str(tmp_path / "none.jsonl")])
