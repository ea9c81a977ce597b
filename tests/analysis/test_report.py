"""Tests for the campaign report layer: determinism, edge cases and the
CLI surface."""

import sqlite3

import pytest

from repro.analysis.campaign import CampaignCell, CampaignRunner
from repro.analysis.dataframes import cell_frame
from repro.analysis.report import (
    build_report,
    render_csv,
    render_html,
    render_markdown,
    write_report,
)
from repro.analysis.tables import cell_rows_markdown
from repro.store import ExperimentStore, RunCache

TIMESTAMP = "2026-01-01T00:00:00+00:00"

CELLS = [
    CampaignCell("star4", "random-regular", {"n": 24, "d": 4}, seed=seed)
    for seed in (0, 1)
] + [
    CampaignCell("greedy", "random-regular", {"n": 24, "d": 4}, seed=0),
]


@pytest.fixture(scope="module")
def campaign_store(tmp_path_factory):
    """A small real campaign persisted to a store, shared by the module
    (read-only from here on)."""
    path = tmp_path_factory.mktemp("report") / "runs.db"
    with ExperimentStore(path) as store:
        runner = CampaignRunner(CELLS, cache=RunCache(store), jobs=1)
        runner.run()
    return path


def _report_for(path, **overrides):
    with ExperimentStore(path) as store:
        rows = store.query()
        summary = store.get_meta("last_campaign")
    kwargs = dict(
        summary=summary,
        events=None,
        timestamp=TIMESTAMP,
        store_label="runs.db",
    )
    kwargs.update(overrides)
    return build_report(rows, **kwargs)


class TestDeterminism:
    def test_renders_are_byte_identical(self, campaign_store):
        first = _report_for(campaign_store)
        second = _report_for(campaign_store)
        assert render_html(first) == render_html(second)
        assert render_markdown(first) == render_markdown(second)
        assert render_csv(first) == render_csv(second)

    def test_write_report_files_byte_identical(self, campaign_store, tmp_path):
        report = _report_for(campaign_store)
        paths_a = write_report(report, tmp_path / "a", fmt="all")
        paths_b = write_report(report, tmp_path / "b", fmt="all")
        assert [p.name for p in paths_a] == [
            "campaign.csv", "frontier.csv", "report.html", "report.md",
            "verdicts.csv",
        ]
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [
            p.name for p in paths_a
        ]
        assert [p.name for p in paths_a] == [p.name for p in paths_b]
        for pa, pb in zip(paths_a, paths_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_timestamp_is_injected_not_read(self, campaign_store):
        report = _report_for(campaign_store)
        assert report["generated_at"] == TIMESTAMP
        assert TIMESTAMP in render_html(report)

    def test_cli_report_byte_identical(self, campaign_store, tmp_path, capsys):
        from repro.cli import main

        for out in ("cli_a", "cli_b"):
            code = main(
                [
                    "report",
                    "--store",
                    str(campaign_store),
                    "--out",
                    str(tmp_path / out),
                    "--timestamp",
                    TIMESTAMP,
                ]
            )
            assert code == 0
        captured = capsys.readouterr()
        assert "report.html" in captured.out
        html_a = (tmp_path / "cli_a" / "report.html").read_bytes()
        html_b = (tmp_path / "cli_b" / "report.html").read_bytes()
        assert html_a == html_b
        assert b"</html>" in html_a

    def test_removed_bench_history_flag_is_rejected(self, campaign_store, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main([
                "report", "--store", str(campaign_store),
                "--out", str(tmp_path / "out"), "--bench-dir", str(tmp_path),
            ])
        assert excinfo.value.code == 2
        assert not (tmp_path / "out").exists()


class TestReportContent:
    def test_frontier_has_bound_for_regular_workload(self, campaign_store):
        report = _report_for(campaign_store)
        frontier = {r["algorithm"]: r for r in report["frontier"]}
        assert "star4" in frontier
        row = frontier["star4"]
        # random-regular d=4 pins Delta, so the palette bound resolves.
        assert row["palette_bound"] is not None
        assert row["within_bound"] is True
        assert row["colors_max"] <= row["palette_bound"]

    def test_verdict_summary_counts(self, campaign_store):
        report = _report_for(campaign_store)
        verdicts = {r["algorithm"]: r for r in report["verdicts"]}
        assert verdicts["star4"]["ok"] == 2
        assert verdicts["star4"]["error"] == 0

    def test_campaign_breakdown_reports_last_summary(self, campaign_store):
        report = _report_for(campaign_store)
        campaign = report["campaign"]
        assert campaign["cells"] == 3
        assert campaign["last_campaign"]["done"] == 3


class TestEdgeCases:
    def test_pre_v3_row_renders_and_is_counted(self, campaign_store, tmp_path):
        mutated = tmp_path / "mutated.db"
        mutated.write_bytes(campaign_store.read_bytes())
        conn = sqlite3.connect(mutated)
        conn.execute(
            "UPDATE runs SET metrics = NULL WHERE run_key = "
            "(SELECT run_key FROM runs LIMIT 1)"
        )
        conn.commit()
        conn.close()
        report = _report_for(mutated)
        assert report["campaign"]["pre_v3"] == 1
        html = render_html(report)
        assert "</html>" in html

    def test_empty_store_renders(self, tmp_path):
        with ExperimentStore(tmp_path / "empty.db") as store:
            assert store.query() == []
        report = build_report(
            [],
            summary=None,
            events=None,
            timestamp=TIMESTAMP,
            store_label="empty.db",
        )
        html = render_html(report)
        assert "(no rows)" in html
        assert "</html>" in html
        assert "(no rows)" in render_markdown(report)


class TestCellRowsMarkdown:
    def test_includes_compute_ms_and_verdict(self, campaign_store):
        with ExperimentStore(campaign_store) as store:
            rows = store.query()
        table = cell_rows_markdown(rows)
        header = table.splitlines()[0]
        assert "compute_ms" in header
        assert "verdict" in header
        assert "| ok |" in table

    def test_pre_v3_row_renders_dash(self):
        rows = cell_frame(
            [
                {
                    "run_key": "k",
                    "algorithm": "star4",
                    "workload": "w",
                    "seed": 0,
                    "engine": "reference",
                    "n": 4,
                    "m": 3,
                    "colors_used": 2,
                    "rounds_actual": 1,
                    "rounds_modeled": 1,
                    "verdict": None,
                    "error": None,
                    "metrics": None,
                }
            ]
        )
        table = cell_rows_markdown(rows.rows)
        assert "—" in table
