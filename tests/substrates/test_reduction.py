"""Tests for the basic and Kuhn-Wattenhofer color reductions."""

import networkx as nx
import pytest

from repro.verify import verify_vertex_coloring
from repro.errors import InvalidParameterError
from repro.graphs import erdos_renyi, max_degree, random_regular
from repro.local import RoundLedger
from repro.substrates import basic_color_reduction, kuhn_wattenhofer_reduction


def spread_coloring(graph, factor=7, offset=3):
    """A proper coloring with wastefully spread color values."""
    base = {v: i for i, v in enumerate(sorted(graph.nodes(), key=repr))}
    return {v: c * factor + offset for v, c in base.items()}


class TestBasicReduction:
    def test_reduces_to_target(self, nonempty_graph):
        coloring = spread_coloring(nonempty_graph)
        delta = max_degree(nonempty_graph)
        reduced = basic_color_reduction(nonempty_graph, coloring, delta + 1)
        verify_vertex_coloring(nonempty_graph, reduced, palette=delta + 1)
        assert max(reduced.values()) <= delta

    def test_noop_when_already_small(self):
        g = nx.path_graph(4)
        coloring = {0: 0, 1: 1, 2: 0, 3: 1}
        assert basic_color_reduction(g, coloring, 3) == coloring

    def test_round_count_is_m_minus_target(self):
        g = nx.complete_graph(5)
        coloring = {v: v for v in g.nodes()}  # m = 5, target Delta+1 = 5
        ledger = RoundLedger()
        basic_color_reduction(g, coloring, 5, ledger=ledger)
        assert ledger.total_actual == 0  # already at target

        coloring10 = {v: 2 * v for v in g.nodes()}  # m = 9
        ledger2 = RoundLedger()
        basic_color_reduction(g, coloring10, 5, ledger=ledger2)
        assert ledger2.total_actual <= 9 - 5
        assert ledger2.entries[0].modeled == 9 - 5

    def test_below_delta_plus_one_rejected(self):
        g = nx.complete_graph(4)
        with pytest.raises(InvalidParameterError):
            basic_color_reduction(g, {v: v for v in g.nodes()}, 3)

    def test_incomplete_coloring_rejected(self):
        g = nx.path_graph(3)
        with pytest.raises(InvalidParameterError):
            basic_color_reduction(g, {0: 0, 1: 1}, 2)

    def test_larger_target_allowed(self):
        g = nx.cycle_graph(6)
        coloring = spread_coloring(g)
        reduced = basic_color_reduction(g, coloring, 10)
        verify_vertex_coloring(g, reduced, palette=10)


class TestKuhnWattenhofer:
    def test_reduces_to_delta_plus_one(self, nonempty_graph):
        coloring = spread_coloring(nonempty_graph, factor=13)
        delta = max_degree(nonempty_graph)
        reduced = kuhn_wattenhofer_reduction(nonempty_graph, coloring)
        verify_vertex_coloring(nonempty_graph, reduced, palette=delta + 1)
        assert max(reduced.values()) <= delta

    def test_much_faster_than_basic_for_large_palettes(self):
        g = random_regular(64, 4, seed=1)
        coloring = {v: i * 50 for i, v in enumerate(sorted(g.nodes()))}
        basic_ledger, kw_ledger = RoundLedger(), RoundLedger()
        basic_color_reduction(g, coloring, 5, ledger=basic_ledger)
        kuhn_wattenhofer_reduction(g, coloring, ledger=kw_ledger)
        assert kw_ledger.total_actual < basic_ledger.total_actual / 4

    def test_explicit_target(self):
        g = erdos_renyi(40, 0.2, seed=2)
        delta = max_degree(g)
        coloring = spread_coloring(g)
        reduced = kuhn_wattenhofer_reduction(g, coloring, target=delta + 5)
        verify_vertex_coloring(g, reduced, palette=delta + 5)

    def test_target_below_delta_plus_one_rejected(self):
        g = nx.complete_graph(4)
        with pytest.raises(InvalidParameterError):
            kuhn_wattenhofer_reduction(g, {v: v for v in g.nodes()}, target=2)

    def test_preserves_propriety_on_every_phase_boundary(self):
        # Stress: many phases (m >> Delta).
        g = random_regular(30, 3, seed=4)
        coloring = {v: i * 101 for i, v in enumerate(sorted(g.nodes()))}
        reduced = kuhn_wattenhofer_reduction(g, coloring)
        verify_vertex_coloring(g, reduced, palette=4)

    def test_empty_and_trivial(self):
        g = nx.Graph()
        assert kuhn_wattenhofer_reduction(g, {}) == {}
        single = nx.path_graph(1)
        assert kuhn_wattenhofer_reduction(single, {0: 5}) in ({0: 5}, {0: 0})

    def test_deterministic(self):
        g = erdos_renyi(35, 0.2, seed=5)
        coloring = spread_coloring(g)
        assert kuhn_wattenhofer_reduction(g, coloring) == kuhn_wattenhofer_reduction(
            g, coloring
        )
