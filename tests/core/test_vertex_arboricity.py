"""Tests for the [6]-style (Delta+1)-vertex-coloring (related work)."""

import networkx as nx
import pytest

from repro.analysis import verify_vertex_coloring
from repro.errors import InvalidParameterError
from repro.graphs import (
    forest_union,
    max_degree,
    planar_grid,
    random_tree,
    star_forest_stack,
    triangular_grid,
)
from repro.local import RoundLedger
from repro.core import vertex_color_bounded_arboricity


class TestDeltaPlusOne:
    def test_proper_and_tight_on_menagerie(self, any_graph):
        result = vertex_color_bounded_arboricity(any_graph)
        if any_graph.number_of_nodes():
            verify_vertex_coloring(
                any_graph, result.coloring, palette=max_degree(any_graph) + 1
            )

    @pytest.mark.parametrize(
        "graph_factory,a",
        [
            (lambda: random_tree(80, seed=1), 1),
            (lambda: planar_grid(7, 9), 2),
            (lambda: triangular_grid(6, 7), 3),
            (lambda: forest_union(70, 2, seed=2), 2),
            (lambda: star_forest_stack(6, 15, 2, seed=3), 2),
        ],
    )
    def test_low_arboricity_families(self, graph_factory, a):
        graph = graph_factory()
        result = vertex_color_bounded_arboricity(graph, arboricity=a)
        verify_vertex_coloring(graph, result.coloring, palette=max_degree(graph) + 1)
        assert result.colors_used <= max_degree(graph) + 1

    def test_exactly_delta_plus_one_palette_values(self):
        graph = star_forest_stack(5, 20, 2, seed=4)
        result = vertex_color_bounded_arboricity(graph, arboricity=2)
        assert max(result.coloring.values()) <= result.delta

    def test_rounds_scale_with_dhat_not_delta(self):
        # the selling point vs the plain oracle on Delta >> a instances
        from repro.substrates import oracle_vertex_coloring

        graph = star_forest_stack(6, 40, 2, seed=5)
        result = vertex_color_bounded_arboricity(graph, arboricity=2)
        oracle_ledger = RoundLedger()
        oracle_vertex_coloring(graph, ledger=oracle_ledger)
        assert result.rounds_actual < oracle_ledger.total_actual

    def test_ledger_accounting(self):
        graph = forest_union(50, 2, seed=6)
        ledger = RoundLedger()
        result = vertex_color_bounded_arboricity(graph, arboricity=2, ledger=ledger)
        assert ledger.total_actual == result.rounds_actual > 0

    def test_levels_recorded(self):
        graph = forest_union(60, 3, seed=7)
        result = vertex_color_bounded_arboricity(graph, arboricity=3)
        assert result.levels >= 1
        assert result.dhat >= 3

    def test_empty_graph(self):
        result = vertex_color_bounded_arboricity(nx.Graph())
        assert result.coloring == {}

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            vertex_color_bounded_arboricity(nx.path_graph(3), arboricity=0)

    def test_deterministic(self):
        graph = forest_union(40, 2, seed=8)
        a = vertex_color_bounded_arboricity(graph, arboricity=2)
        b = vertex_color_bounded_arboricity(graph, arboricity=2)
        assert a.coloring == b.coloring
