"""Protocol-level tests for the Lemma 5.1 cross-merge algorithm."""

import networkx as nx
import pytest

from repro.verify import verify_edge_coloring
from repro.core import merge_cross_edges
from repro.core.arboricity import CrossMergeAlgorithm
from repro.local import RoundLedger, run_on_graph
from repro.types import edge_key


def star_instance(leaves=5):
    """One B-center with `leaves` A-leaves — worst case for B assignment."""
    g = nx.star_graph(leaves)
    side = {0: "B", **{i: "A" for i in range(1, leaves + 1)}}
    return g, side


class TestSchedule:
    def test_all_labels_are_one_for_disjoint_edges(self):
        # A-vertices with a single cross edge each: every edge has label 1,
        # so the whole merge completes in the first request/reply exchange.
        g = nx.Graph([(0, 10), (1, 11), (2, 12)])
        side = {0: "A", 1: "A", 2: "A", 10: "B", 11: "B", 12: "B"}
        ledger = RoundLedger()
        merged = merge_cross_edges(g, side, {}, palette=4, ledger=ledger)
        verify_edge_coloring(g, merged)
        assert ledger.total_actual <= 3  # d = 1 -> 2 rounds + slack

    def test_star_center_assigns_distinct_colors_in_one_round(self):
        g, side = star_instance(leaves=6)
        merged = merge_cross_edges(g, side, {}, palette=6)
        # all 6 edges share the B-center: colors must be pairwise distinct
        assert len(set(merged.values())) == 6

    def test_a_center_spreads_over_labels(self):
        # an A-center with many cross edges labels them 1..d: the protocol
        # takes ~2d rounds but still needs only a small palette because the
        # conflicts are at the shared A-endpoint.
        g = nx.star_graph(5)
        side = {0: "A", **{i: "B" for i in range(1, 6)}}
        ledger = RoundLedger()
        merged = merge_cross_edges(g, side, {}, palette=5, ledger=ledger)
        verify_edge_coloring(g, merged)
        assert len(set(merged.values())) == 5
        assert 2 * 5 - 1 <= ledger.total_actual <= 2 * 5 + 1

    def test_outputs_consistent_between_sides(self):
        g, side = star_instance(leaves=4)
        result = run_on_graph(
            g,
            CrossMergeAlgorithm(),
            extras={
                "side": side,
                "labels": {
                    i: {1: 0} for i in range(1, 5)
                },
                "used": {},
                "palette": 8,
                "d": 1,
            },
        )
        b_view = result.output_of(0)
        for leaf in range(1, 5):
            a_view = result.output_of(leaf)
            e = edge_key(0, leaf)
            assert a_view[e] == b_view[e]


class TestUsedColorPropagation:
    def test_a_side_colors_block_reuse(self):
        # A-vertex 1 already has an incident edge colored 0: its cross edge
        # must avoid 0 even though B does not see that edge.
        g = nx.Graph([(1, 2), (1, 10)])
        side = {1: "A", 2: "A", 10: "B"}
        base = {edge_key(1, 2): 0}
        merged = merge_cross_edges(g, side, base, palette=4)
        assert merged[edge_key(1, 10)] != 0

    def test_b_side_colors_block_reuse(self):
        g = nx.Graph([(10, 11), (1, 10)])
        side = {1: "A", 10: "B", 11: "B"}
        base = {edge_key(10, 11): 2}
        merged = merge_cross_edges(g, side, base, palette=4)
        assert merged[edge_key(1, 10)] != 2

    def test_sequential_labels_see_earlier_assignments(self):
        # A-center with two cross edges to the same region: the label-2
        # request must carry the label-1 color, so the two edges differ even
        # though their B-endpoints are different vertices.
        g = nx.Graph([(0, 10), (0, 11)])
        side = {0: "A", 10: "B", 11: "B"}
        merged = merge_cross_edges(g, side, {}, palette=4)
        assert merged[edge_key(0, 10)] != merged[edge_key(0, 11)]


class TestStress:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_bipartite_instances(self, seed):
        from repro.graphs import random_bipartite_regular

        g = random_bipartite_regular(12, 5, seed=seed)
        left, right = nx.bipartite.sets(g)
        side = {v: "A" for v in left}
        side.update({v: "B" for v in right})
        d_a = max((g.degree(v) for v in left), default=1)
        d_b = max((g.degree(v) for v in right), default=1)
        merged = merge_cross_edges(g, side, {}, palette=d_a + d_b - 1)
        verify_edge_coloring(g, merged, palette=d_a + d_b - 1)
