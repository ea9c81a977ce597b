"""Tests for the Euler-split degree-splitting baseline."""

import math

import networkx as nx
import pytest

from repro.verify import verify_edge_coloring
from repro.errors import InvalidParameterError
from repro.graphs import max_degree, random_regular
from repro.baselines import degree_splitting_edge_coloring, euler_split
from repro.types import edge_key


class TestEulerSplit:
    def test_partitions_edges(self, nonempty_graph):
        h1, h2 = euler_split(nonempty_graph)
        e1 = {edge_key(u, v) for u, v in h1.edges()}
        e2 = {edge_key(u, v) for u, v in h2.edges()}
        assert e1 | e2 == {edge_key(u, v) for u, v in nonempty_graph.edges()}
        assert not (e1 & e2)

    def test_halves_degree(self, nonempty_graph):
        delta = max_degree(nonempty_graph)
        h1, h2 = euler_split(nonempty_graph)
        bound = math.ceil(delta / 2) + 1
        assert max_degree(h1) <= bound
        assert max_degree(h2) <= bound

    def test_even_degree_graph_splits_exactly(self):
        g = random_regular(20, 6, seed=1)
        h1, h2 = euler_split(g)
        for v in g.nodes():
            assert abs(h1.degree(v) - h2.degree(v)) <= 2

    def test_empty(self):
        h1, h2 = euler_split(nx.Graph())
        assert h1.number_of_edges() == h2.number_of_edges() == 0


class TestDegreeSplittingColoring:
    def test_proper(self, nonempty_graph):
        result = degree_splitting_edge_coloring(nonempty_graph)
        verify_edge_coloring(nonempty_graph, result.coloring)

    def test_roughly_two_delta_colors(self):
        g = random_regular(64, 32, seed=2)
        result = degree_splitting_edge_coloring(g, threshold=8)
        # 2 Delta (1 + eps): generous envelope for the recursion slack
        assert result.colors_used <= 3.2 * 32

    def test_levels_logarithmic_in_delta(self):
        g = random_regular(64, 32, seed=3)
        result = degree_splitting_edge_coloring(g, threshold=4)
        assert result.levels <= math.ceil(math.log2(32)) + 2

    def test_no_split_needed_below_threshold(self):
        g = nx.cycle_graph(8)
        result = degree_splitting_edge_coloring(g, threshold=8)
        assert result.levels == 0

    def test_threshold_validation(self):
        with pytest.raises(InvalidParameterError):
            degree_splitting_edge_coloring(nx.path_graph(3), threshold=0)

    def test_modeled_rounds_positive(self):
        g = random_regular(32, 16, seed=4)
        result = degree_splitting_edge_coloring(g)
        assert result.rounds_modeled > 0
