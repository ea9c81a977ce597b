"""Tests for the forest-decomposition edge-coloring baseline."""

import networkx as nx

from repro.verify import verify_edge_coloring
from repro.graphs import degeneracy, erdos_renyi, forest_union, max_degree
from repro.local import RoundLedger
from repro.baselines import forest_edge_coloring


class TestForestEdgeColoring:
    def test_proper_on_menagerie(self, nonempty_graph):
        result = forest_edge_coloring(nonempty_graph)
        verify_edge_coloring(nonempty_graph, result.coloring)

    def test_palette_bound(self):
        g = erdos_renyi(50, 0.15, seed=1)
        result = forest_edge_coloring(g)
        bound = 3 * max_degree(g) * max(degeneracy(g), 1)
        assert result.colors_used <= bound

    def test_num_forests_is_degeneracy(self):
        g = nx.complete_graph(8)
        result = forest_edge_coloring(g)
        assert result.num_forests == degeneracy(g)

    def test_fast_rounds(self):
        # the whole point: O(log* n) rounds, far below the paper's
        # O~(Delta^(1/4)) algorithms on the same instance
        g = erdos_renyi(200, 0.06, seed=2)
        ledger = RoundLedger()
        result = forest_edge_coloring(g, ledger=ledger)
        verify_edge_coloring(g, result.coloring)
        assert result.rounds_actual <= 25

    def test_tradeoff_against_star_partition(self):
        # fewer rounds but more colors than the paper's 4 Delta algorithm
        from repro.core import four_delta_edge_coloring
        from repro.graphs import random_regular

        g = random_regular(48, 12, seed=3)
        fast = forest_edge_coloring(g)
        tight = four_delta_edge_coloring(g)
        assert fast.rounds_actual < tight.rounds_actual
        assert fast.colors_used >= tight.colors_used * 0.8

    def test_empty_and_edgeless(self):
        assert forest_edge_coloring(nx.Graph()).coloring == {}
        g = nx.Graph()
        g.add_nodes_from(range(5))
        assert forest_edge_coloring(g).coloring == {}

    def test_deterministic(self):
        g = forest_union(40, 2, seed=4)
        assert forest_edge_coloring(g).coloring == forest_edge_coloring(g).coloring
