"""Tests for Section 5 (Lemma 5.1, Theorems 5.2-5.4, Corollary 5.5)."""

import math

import networkx as nx
import pytest

from repro.analysis import verify_edge_coloring
from repro.errors import ColoringError, InvalidParameterError
from repro.graphs import (
    arboricity_bounds,
    erdos_renyi,
    forest_union,
    max_degree,
    planar_grid,
    random_bipartite_regular,
    random_tree,
    star_forest_stack,
    triangular_grid,
)
from repro.local import RoundLedger
from repro.core import (
    edge_color_bounded_arboricity,
    edge_color_delta_plus_o_delta,
    edge_color_orientation_connector,
    edge_color_recursive,
    merge_cross_edges,
)
from repro.types import edge_key


LOW_ARB_GRAPHS = {
    "tree-60": lambda: random_tree(60, seed=1),
    "grid-6x8": lambda: planar_grid(6, 8),
    "tri-grid-5x6": lambda: triangular_grid(5, 6),
    "forest-union-50-2": lambda: forest_union(50, 2, seed=2),
    "forest-union-40-3": lambda: forest_union(40, 3, seed=3),
    "star-stack": lambda: star_forest_stack(4, 12, 2, seed=4),
}


@pytest.fixture(params=sorted(LOW_ARB_GRAPHS))
def low_arb_graph(request):
    return LOW_ARB_GRAPHS[request.param]()


class TestMergeCrossEdges:
    def _bipartite_setup(self, n_each=8, d=3, seed=1):
        g = random_bipartite_regular(n_each, d, seed=seed)
        left, right = nx.bipartite.sets(g)
        side = {v: "A" for v in left}
        side.update({v: "B" for v in right})
        return g, side

    def test_lemma_5_1_bipartite(self):
        g, side = self._bipartite_setup()
        d_a = max(g.degree(v) for v, s in side.items() if s == "A")
        d_b = max(g.degree(v) for v, s in side.items() if s == "B")
        merged = merge_cross_edges(g, side, {}, palette=d_a + d_b - 1)
        verify_edge_coloring(g, merged, palette=d_a + d_b - 1)

    def test_rounds_are_2d(self):
        g, side = self._bipartite_setup(n_each=10, d=4, seed=2)
        ledger = RoundLedger()
        merge_cross_edges(g, side, {}, palette=16, ledger=ledger)
        d = max(g.degree(v) for v, s in side.items() if s == "A")
        assert ledger.total_actual <= 2 * d + 1

    def test_extends_existing_coloring(self):
        # A = one side with internal edges pre-colored
        g = nx.Graph()
        g.add_edges_from([(0, 1), (2, 3)])  # A-internal
        g.add_edges_from([(10, 11)])  # B-internal
        g.add_edges_from([(0, 10), (1, 11), (2, 10)])  # cross
        side = {0: "A", 1: "A", 2: "A", 3: "A", 10: "B", 11: "B"}
        base = {edge_key(0, 1): 0, edge_key(2, 3): 0, edge_key(10, 11): 1}
        merged = merge_cross_edges(g, side, base, palette=8)
        verify_edge_coloring(g, merged, palette=8)
        for e, c in base.items():
            assert merged[e] == c  # pre-colored edges untouched

    def test_uncolored_internal_edge_rejected(self):
        g = nx.Graph([(0, 1), (0, 10)])
        side = {0: "A", 1: "A", 10: "B"}
        with pytest.raises(InvalidParameterError):
            merge_cross_edges(g, side, {}, palette=8)

    def test_precolored_cross_edge_rejected(self):
        g = nx.Graph([(0, 10)])
        side = {0: "A", 10: "B"}
        with pytest.raises(InvalidParameterError):
            merge_cross_edges(g, side, {edge_key(0, 10): 0}, palette=8)

    def test_palette_exhaustion_detected(self):
        g = nx.star_graph(4)  # B center with 4 cross edges
        side = {0: "B", 1: "A", 2: "A", 3: "A", 4: "A"}
        with pytest.raises(ColoringError):
            merge_cross_edges(g, side, {}, palette=2)

    def test_no_cross_edges_noop(self):
        g = nx.Graph([(0, 1)])
        side = {0: "A", 1: "A"}
        base = {edge_key(0, 1): 0}
        assert merge_cross_edges(g, side, base, palette=4) == base


class TestTheorem52:
    def test_proper_and_bounded(self, low_arb_graph):
        a = arboricity_bounds(low_arb_graph).upper
        result = edge_color_bounded_arboricity(low_arb_graph, arboricity=a)
        verify_edge_coloring(low_arb_graph, result.coloring, palette=result.palette_bound)

    def test_delta_plus_o_a_colors(self):
        # palette is max(Delta + dhat, 4*Delta_internal) = Delta + O(a)
        g = star_forest_stack(5, 20, 2, seed=5)
        delta = max_degree(g)
        result = edge_color_bounded_arboricity(g, arboricity=2, q=3.0)
        assert result.colors_used <= delta + 3 * math.ceil(3.0 * 2) + 1

    def test_rounds_scale_with_a_log_n(self):
        g = forest_union(100, 2, seed=6)
        ledger = RoundLedger()
        result = edge_color_bounded_arboricity(g, arboricity=2, ledger=ledger)
        # O(a log n) with small constants; generous ceiling
        assert result.rounds_actual <= 60 * math.log2(100)

    def test_dhat_is_the_h_partition_threshold(self):
        from repro.substrates import h_partition

        g = forest_union(40, 2, seed=7)
        result = edge_color_bounded_arboricity(g, arboricity=2)
        verify_edge_coloring(g, result.coloring)
        assert result.dhat == h_partition(g, arboricity=2).threshold

    def test_edgeless(self):
        g = nx.Graph()
        g.add_nodes_from(range(3))
        result = edge_color_bounded_arboricity(g)
        assert result.coloring == {}

    def test_bad_arboricity_rejected(self):
        with pytest.raises(InvalidParameterError):
            edge_color_bounded_arboricity(nx.path_graph(3), arboricity=0)


class TestTheorem53:
    def test_proper_and_bounded(self, low_arb_graph):
        a = arboricity_bounds(low_arb_graph).upper
        result = edge_color_orientation_connector(low_arb_graph, arboricity=a)
        verify_edge_coloring(low_arb_graph, result.coloring, palette=result.palette_bound)

    def test_product_structure(self):
        # colors <= (sqrt(Delta)+O(sqrt(a)))^2 = Delta + O(sqrt(Delta a))
        g = star_forest_stack(6, 24, 2, seed=8)
        delta = max_degree(g)
        result = edge_color_orientation_connector(g, arboricity=2)
        assert result.colors_used <= delta + 14 * math.sqrt(delta * 6) + 40

    def test_edgeless(self):
        g = nx.Graph()
        g.add_nodes_from(range(3))
        result = edge_color_orientation_connector(g)
        assert result.coloring == {}


class TestTheorem54:
    @pytest.mark.parametrize("x", [1, 2, 3])
    def test_proper_for_all_depths(self, x):
        g = forest_union(40, 2, seed=9)
        result = edge_color_recursive(g, x=x, arboricity=2)
        verify_edge_coloring(g, result.coloring, palette=result.palette_bound)

    def test_bound_formula(self):
        g = forest_union(50, 2, seed=10)
        result = edge_color_recursive(g, x=2, arboricity=2)
        factor = math.ceil(result.delta ** 0.5) + math.ceil(result.dhat**0.5) + 3
        assert result.palette_bound == factor**2

    def test_x_validation(self):
        with pytest.raises(InvalidParameterError):
            edge_color_recursive(nx.path_graph(3), x=0)

    def test_x1_equals_thm52_palette_family(self):
        g = forest_union(40, 2, seed=11)
        result = edge_color_recursive(g, x=1, arboricity=2)
        verify_edge_coloring(g, result.coloring)


class TestCorollary55:
    def test_proper(self, low_arb_graph):
        result = edge_color_delta_plus_o_delta(low_arb_graph)
        verify_edge_coloring(low_arb_graph, result.coloring)
        assert result.params is not None

    def test_overhead_shrinks_with_delta_over_a_gap(self):
        # the flagship claim: Delta >> a => colors approach Delta
        small_gap = erdos_renyi(30, 0.3, seed=12)  # a close to Delta
        big_gap = star_forest_stack(5, 30, 2, seed=13)  # Delta >> a
        r_small = edge_color_delta_plus_o_delta(small_gap)
        r_big = edge_color_delta_plus_o_delta(
            big_gap, arboricity=arboricity_bounds(big_gap).upper
        )
        assert r_big.overhead_over_delta < max(r_small.overhead_over_delta, 2.0)
        assert r_big.overhead_over_delta < 1.0

    def test_thm52_dominates_for_tiny_x(self):
        g = random_tree(40, seed=14)
        result = edge_color_delta_plus_o_delta(g, arboricity=1)
        verify_edge_coloring(g, result.coloring)
