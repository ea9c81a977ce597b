"""Tests for the greedy coloring baselines."""

import networkx as nx
import pytest

from repro.verify import verify_edge_coloring, verify_vertex_coloring
from repro.graphs import erdos_renyi, max_degree
from repro.baselines import greedy_edge_coloring, greedy_vertex_coloring


class TestGreedyVertex:
    def test_delta_plus_one(self, any_graph):
        coloring = greedy_vertex_coloring(any_graph)
        if any_graph.number_of_nodes():
            verify_vertex_coloring(
                any_graph, coloring, palette=max_degree(any_graph) + 1
            )

    def test_respects_order(self):
        g = nx.path_graph(3)
        coloring = greedy_vertex_coloring(g, order=[1, 0, 2])
        assert coloring[1] == 0
        assert coloring[0] == 1
        assert coloring[2] == 1

    def test_bipartite_two_colors_with_good_order(self):
        g = nx.complete_bipartite_graph(3, 3)
        order = [0, 1, 2, 3, 4, 5]  # side by side
        coloring = greedy_vertex_coloring(g, order=order)
        assert len(set(coloring.values())) == 2


class TestGreedyEdge:
    def test_two_delta_minus_one(self, nonempty_graph):
        coloring = greedy_edge_coloring(nonempty_graph)
        delta = max_degree(nonempty_graph)
        verify_edge_coloring(
            nonempty_graph, coloring, palette=max(2 * delta - 1, 1)
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_random(self, seed):
        g = erdos_renyi(30, 0.2, seed=seed)
        coloring = greedy_edge_coloring(g)
        verify_edge_coloring(g, coloring, palette=max(2 * max_degree(g) - 1, 1))

    def test_empty(self):
        assert greedy_edge_coloring(nx.Graph()) == {}

    def test_canonical_keys(self):
        coloring = greedy_edge_coloring(nx.path_graph(3))
        assert set(coloring) == {(0, 1), (1, 2)}
