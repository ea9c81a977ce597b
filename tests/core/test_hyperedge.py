"""Tests for hyperedge coloring (Table 2 beyond graphs)."""

import pytest

from repro.errors import ColoringError
from repro.graphs import Hypergraph, random_uniform_hypergraph, regular_partite_hypergraph
from repro.core import cd_hyperedge_coloring, verify_hyperedge_coloring


class TestHyperedgeColoring:
    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_proper_for_various_uniformities(self, c):
        hyper = random_uniform_hypergraph(n=24, num_edges=40, c=c, seed=c)
        result = cd_hyperedge_coloring(hyper, x=1)
        verify_hyperedge_coloring(hyper, result.coloring)
        assert result.diversity <= c

    def test_within_headline_bound(self):
        hyper = random_uniform_hypergraph(n=20, num_edges=60, c=3, seed=5)
        result = cd_hyperedge_coloring(hyper, x=1)
        assert result.colors_used <= result.target_colors
        assert result.target_colors == result.diversity**2 * result.clique_size

    @pytest.mark.parametrize("x", [1, 2])
    def test_recursion_depths(self, x):
        hyper = regular_partite_hypergraph(groups=6, group_size=4, c=3)
        result = cd_hyperedge_coloring(hyper, x=x)
        verify_hyperedge_coloring(hyper, result.coloring)
        assert result.x == x

    def test_every_hyperedge_colored(self):
        hyper = random_uniform_hypergraph(n=15, num_edges=25, c=3, seed=7)
        result = cd_hyperedge_coloring(hyper)
        assert set(result.coloring) == set(hyper.edges)

    def test_rounds_recorded(self):
        hyper = random_uniform_hypergraph(n=15, num_edges=25, c=3, seed=8)
        result = cd_hyperedge_coloring(hyper)
        assert result.rounds_actual > 0
        assert result.rounds_modeled > 0


class TestVerifier:
    def test_detects_conflict(self):
        hyper = Hypergraph.from_edges([[0, 1, 2], [2, 3, 4]])
        bad = {e: 0 for e in hyper.edges}
        with pytest.raises(ColoringError):
            verify_hyperedge_coloring(hyper, bad)

    def test_detects_missing(self):
        hyper = Hypergraph.from_edges([[0, 1], [2, 3]])
        with pytest.raises(ColoringError):
            verify_hyperedge_coloring(hyper, {hyper.edges[0]: 0})

    def test_accepts_proper(self):
        hyper = Hypergraph.from_edges([[0, 1, 2], [2, 3, 4], [5, 6, 7]])
        good = {hyper.edges[0]: 0, hyper.edges[1]: 1, hyper.edges[2]: 0}
        assert verify_hyperedge_coloring(hyper, good)
