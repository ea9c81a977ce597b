"""Tests for the star-partition edge coloring (Section 4, Theorem 4.1)."""

import math

import networkx as nx
import pytest

from repro.verify import max_star_size, verify_edge_coloring
from repro.errors import InvalidParameterError
from repro.graphs import erdos_renyi, max_degree, random_regular
from repro.local import RoundLedger
from repro.core import (
    build_edge_connector,
    four_delta_edge_coloring,
    reduce_edge_coloring,
    star_partition_edge_coloring,
    star_target_colors,
)
from repro.substrates import oracle_edge_coloring


class TestFourDelta:
    def test_headline_bound(self):
        g = random_regular(24, 12, seed=1)
        result = four_delta_edge_coloring(g)
        verify_edge_coloring(g, result.coloring, palette=4 * 12)
        assert result.target_colors == 48

    @pytest.mark.parametrize("d", [4, 9, 16])
    def test_various_degrees(self, d):
        n = 20 if (20 * d) % 2 == 0 else 21
        g = random_regular(n, d, seed=d)
        result = four_delta_edge_coloring(g)
        verify_edge_coloring(g, result.coloring, palette=4 * d)

    def test_small_degree_falls_back_to_oracle(self):
        g = nx.cycle_graph(7)  # Delta = 2
        result = four_delta_edge_coloring(g)
        verify_edge_coloring(g, result.coloring, palette=2 * 2 - 1 + 5)

    def test_irregular_graph(self):
        g = erdos_renyi(40, 0.2, seed=2)
        delta = max_degree(g)
        result = four_delta_edge_coloring(g)
        verify_edge_coloring(g, result.coloring, palette=4 * delta)


class TestRecursive:
    @pytest.mark.parametrize("x", [1, 2, 3])
    def test_theorem_4_1_bound(self, x):
        g = random_regular(24, 12, seed=3)
        result = star_partition_edge_coloring(g, x=x)
        verify_edge_coloring(g, result.coloring, palette=2 ** (x + 1) * 12)
        assert result.target_colors == star_target_colors(12, x)

    def test_deeper_recursion_fewer_rounds_more_colors_budget(self):
        g = random_regular(48, 16, seed=4)
        shallow = star_partition_edge_coloring(g, x=1)
        deep = star_partition_edge_coloring(g, x=3)
        assert deep.target_colors > shallow.target_colors
        # the modeled time budget shrinks with deeper recursion
        assert deep.rounds_modeled <= shallow.rounds_modeled * 1.2

    def test_star_partition_classes_property(self):
        # the first-level decomposition is a (2t-1, ceil(Delta/t))-star
        # partition (Section 4's definition)
        g = random_regular(16, 8, seed=5)
        t = 2
        connector = build_edge_connector(g, t)
        coloring = oracle_edge_coloring(connector.graph)
        classes = connector.classes(coloring)
        assert len(classes) <= 2 * t - 1
        for edges in classes.values():
            assert max_star_size(g, edges) <= math.ceil(8 / t)

    def test_x_validation(self):
        with pytest.raises(InvalidParameterError):
            star_partition_edge_coloring(nx.path_graph(3), x=0)

    def test_empty_graph(self):
        result = star_partition_edge_coloring(nx.Graph(), x=1)
        assert result.coloring == {}
        assert result.colors_used == 0

    def test_ledger_accounting(self):
        g = random_regular(20, 8, seed=6)
        ledger = RoundLedger()
        result = star_partition_edge_coloring(g, x=1, ledger=ledger)
        assert ledger.total_actual == result.rounds_actual > 0

    def test_deterministic(self):
        g = erdos_renyi(30, 0.25, seed=7)
        r1 = star_partition_edge_coloring(g, x=2)
        r2 = star_partition_edge_coloring(g, x=2)
        assert r1.coloring == r2.coloring


class TestReduceEdgeColoring:
    def test_reduces_to_target(self):
        g = random_regular(16, 4, seed=8)
        # a wasteful proper coloring: spread greedy colors
        from repro.baselines import greedy_edge_coloring

        base = {e: 5 * c for e, c in greedy_edge_coloring(g).items()}
        reduced = reduce_edge_coloring(g, base, target=2 * 4 - 1)
        verify_edge_coloring(g, reduced, palette=7)

    def test_target_below_2delta_minus_1_rejected(self):
        g = nx.complete_graph(4)
        from repro.baselines import greedy_edge_coloring

        with pytest.raises(InvalidParameterError):
            reduce_edge_coloring(g, greedy_edge_coloring(g), target=4)

    def test_empty(self):
        assert reduce_edge_coloring(nx.Graph(), {}, target=5) == {}

    def test_rounds_recorded(self):
        g = random_regular(12, 4, seed=9)
        from repro.baselines import greedy_edge_coloring

        base = {e: 3 * c for e, c in greedy_edge_coloring(g).items()}
        ledger = RoundLedger()
        reduce_edge_coloring(g, base, target=7, ledger=ledger)
        assert ledger.total_actual > 0
