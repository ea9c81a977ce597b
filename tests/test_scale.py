"""At-scale checks: the headline results on larger instances.

The unit suite exercises small graphs; these runs push sizes where the
asymptotic claims become visible — (4Delta vs 2Delta-1) crossovers, the
Delta + o(Delta) overhead shrinking, Linial staying at O(log* n) rounds.
Everything stays under a couple of seconds per test.
"""

import math

import pytest

from repro.analysis import verify_edge_coloring, verify_vertex_coloring
from repro.core import (
    edge_color_bounded_arboricity,
    four_delta_edge_coloring,
    star_partition_edge_coloring,
)
from repro.graphs import (
    erdos_renyi,
    forest_union,
    max_degree,
    random_regular,
    star_forest_stack,
)
from repro.local import RoundLedger
from repro.substrates import h_partition, linial_coloring, oracle_vertex_coloring


class TestFourDeltaAtScale:
    def test_delta_32(self):
        graph = random_regular(128, 32, seed=1)
        result = four_delta_edge_coloring(graph)
        verify_edge_coloring(graph, result.coloring, palette=128)
        # used colors land well under the bound on random instances
        assert result.colors_used <= 128

    def test_recursion_ladder_delta_27(self):
        graph = random_regular(96, 27, seed=2)
        previous_bound = None
        for x in (1, 2, 3):
            result = star_partition_edge_coloring(graph, x=x)
            verify_edge_coloring(graph, result.coloring, palette=result.target_colors)
            if previous_bound is not None:
                assert result.target_colors == 2 * previous_bound
            previous_bound = result.target_colors


class TestSection5AtScale:
    def test_delta_plus_one_at_delta_62(self):
        # Delta >> a: Theorem 5.2's palette is dominated by Delta + dhat but
        # the greedy merges rarely need it — the observed count hugs Delta.
        graph = star_forest_stack(10, 60, 3, seed=2)
        delta = max_degree(graph)
        assert delta >= 50
        result = edge_color_bounded_arboricity(graph, arboricity=3)
        verify_edge_coloring(graph, result.coloring)
        assert result.colors_used <= delta + result.dhat
        assert result.overhead_over_delta <= 0.25

    def test_overhead_stays_tiny_as_delta_grows(self):
        overheads = []
        for leaves in (10, 30, 60):
            graph = star_forest_stack(8, leaves, 2, seed=3)
            result = edge_color_bounded_arboricity(graph, arboricity=2)
            verify_edge_coloring(graph, result.coloring)
            overheads.append(result.overhead_over_delta)
        # the o(Delta) claim: overhead never grows with Delta and stays tiny
        assert overheads[-1] <= overheads[0]
        assert max(overheads) <= 0.3

    def test_h_partition_levels_on_600_nodes(self):
        graph = forest_union(600, 3, seed=4)
        hp = h_partition(graph, arboricity=3)
        hp.validate()
        assert hp.num_levels <= 2 * math.log2(600)


class TestSubstratesAtScale:
    def test_linial_rounds_flat_in_n(self):
        rounds = []
        for n in (100, 400, 1600):
            graph = erdos_renyi(n, 8.0 / n, seed=5)
            ledger = RoundLedger()
            coloring = linial_coloring(graph, ledger=ledger)
            verify_vertex_coloring(graph, coloring)
            rounds.append(ledger.total_actual)
        # O(log* n): growing n 16x adds at most a round or two
        assert rounds[-1] - rounds[0] <= 2

    def test_oracle_on_dense_graph(self):
        graph = erdos_renyi(200, 0.2, seed=6)
        delta = max_degree(graph)
        coloring = oracle_vertex_coloring(graph)
        verify_vertex_coloring(graph, coloring, palette=delta + 1)
