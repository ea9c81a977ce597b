"""Tests for the Misra-Gries (Delta+1)-edge-coloring baseline."""

import networkx as nx
import pytest

from repro.verify import verify_edge_coloring
from repro.graphs import erdos_renyi, max_degree, random_regular
from repro.baselines import misra_gries_edge_coloring


class TestVizingBound:
    def test_menagerie(self, nonempty_graph):
        coloring = misra_gries_edge_coloring(nonempty_graph)
        delta = max_degree(nonempty_graph)
        verify_edge_coloring(nonempty_graph, coloring, palette=delta + 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_graphs(self, seed):
        g = erdos_renyi(35, 0.25, seed=seed)
        coloring = misra_gries_edge_coloring(g)
        verify_edge_coloring(g, coloring, palette=max_degree(g) + 1)

    @pytest.mark.parametrize("d", [3, 5, 7, 10])
    def test_regular_graphs(self, d):
        n = 22 if (22 * d) % 2 == 0 else 23
        g = random_regular(n, d, seed=d)
        coloring = misra_gries_edge_coloring(g)
        verify_edge_coloring(g, coloring, palette=d + 1)

    def test_complete_graphs(self):
        # K_n is class 1 for even n (Delta colors suffice) and class 2 for
        # odd n (Delta+1 needed); Misra-Gries must stay within Delta+1.
        for n in (4, 5, 6, 7, 8, 9):
            g = nx.complete_graph(n)
            coloring = misra_gries_edge_coloring(g)
            verify_edge_coloring(g, coloring, palette=n)  # Delta+1 = n

    def test_bipartite_graphs(self):
        # Koenig: bipartite graphs are Delta-edge-colorable; Delta+1 is safe.
        g = nx.complete_bipartite_graph(5, 7)
        coloring = misra_gries_edge_coloring(g)
        verify_edge_coloring(g, coloring, palette=8)

    def test_petersen(self):
        # Petersen is the classic class-2 graph: needs exactly 4 = Delta+1.
        coloring = misra_gries_edge_coloring(nx.petersen_graph())
        verify_edge_coloring(nx.petersen_graph(), coloring, palette=4)

    def test_empty(self):
        assert misra_gries_edge_coloring(nx.Graph()) == {}

    def test_single_edge(self):
        coloring = misra_gries_edge_coloring(nx.path_graph(2))
        assert list(coloring.values()) == [0]

    def test_deterministic(self):
        g = erdos_renyi(25, 0.3, seed=42)
        assert misra_gries_edge_coloring(g) == misra_gries_edge_coloring(g)
