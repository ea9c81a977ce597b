"""Tests for the block's markdown renderer and the figure reproductions."""

from repro.analysis.figures import (
    all_figures,
    figure1_clique_connector,
    figure2_edge_connector,
    figure3_orientation_connector,
)
from repro.analysis.tables import markdown_table


class TestMarkdownTable:
    def test_markdown_rendering(self):
        row = {"experiment": "t1", "n": 1, "m": 2, "delta": 3, "colors_used": 4}
        table = markdown_table(["experiment", "colors_used", "colors_bound"], [row])
        assert "| t1 | 4 | — |" in table
        assert table.splitlines()[0].startswith("| experiment")


class TestFigures:
    def test_figure1_degree_bound(self):
        report = figure1_clique_connector(t=4, clique_size=8)
        assert report.within_bound
        # the hub vertex originally has degree 2*(8-1)=14; connector caps at
        # D*(t-1) = 2*3 = 6
        assert report.base_max_degree == 14
        assert report.connector_max_degree <= 6

    def test_figure2_degree_is_t(self):
        report = figure2_edge_connector(t=3, star_size=7)
        assert report.within_bound
        assert report.connector_max_degree <= 3
        assert report.base_max_degree >= 7

    def test_figure3_bound(self):
        report = figure3_orientation_connector(in_group=3, out_group=2)
        assert report.within_bound
        assert report.connector_max_degree <= 5

    def test_all_figures_render(self):
        reports = all_figures()
        assert len(reports) == 3
        for report in reports:
            assert report.within_bound
            assert report.summary()
