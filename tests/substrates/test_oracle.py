"""Tests for the [17]-oracle stand-in (Delta+1 vertex / 2Delta-1 edge)."""

import networkx as nx
import pytest

from repro.analysis import verify_edge_coloring, verify_vertex_coloring
from repro.errors import ColoringError
from repro.graphs import erdos_renyi, max_degree, random_regular
from repro.local import RoundLedger
from repro.substrates import oracle_edge_coloring, oracle_vertex_coloring


class TestVertexOracle:
    def test_delta_plus_one_everywhere(self, any_graph):
        coloring = oracle_vertex_coloring(any_graph)
        delta = max_degree(any_graph)
        if any_graph.number_of_nodes():
            verify_vertex_coloring(any_graph, coloring, palette=delta + 1)

    def test_initial_coloring_shortcut(self):
        g = erdos_renyi(50, 0.1, seed=2)
        base = oracle_vertex_coloring(g)
        ledger = RoundLedger()
        again = oracle_vertex_coloring(g, initial=base, ledger=ledger)
        verify_vertex_coloring(g, again, palette=max_degree(g) + 1)
        # Starting from Delta+1 colors, no Linial or KW work is needed.
        assert ledger.total_actual == 0

    def test_improper_initial_rejected(self):
        g = nx.path_graph(3)
        with pytest.raises(ColoringError):
            oracle_vertex_coloring(g, initial={0: 1, 1: 1, 2: 0})

    def test_ledger_double_entry(self):
        g = random_regular(30, 6, seed=3)
        ledger = RoundLedger()
        oracle_vertex_coloring(g, ledger=ledger)
        entry = ledger.entries[0]
        assert entry.actual > 0
        assert entry.modeled > 0
        assert entry.modeled != entry.actual  # measured vs FHK model

    def test_empty_graph(self):
        assert oracle_vertex_coloring(nx.Graph()) == {}

    def test_output_over_delta_plus_one_rejected(self, monkeypatch):
        # A proper output with more than Delta + 1 colors is refused.
        from repro.substrates import oracle as oracle_module

        monkeypatch.setattr(
            oracle_module, "kuhn_wattenhofer_reduction",
            lambda graph, coloring, target, ledger: {v: i for i, v in enumerate(graph.nodes())},
        )
        with pytest.raises(ColoringError, match="used 4 > 3 colors"):
            oracle_vertex_coloring(nx.path_graph(4))


class TestEdgeOracle:
    def test_two_delta_minus_one_everywhere(self, nonempty_graph):
        coloring = oracle_edge_coloring(nonempty_graph)
        delta = max_degree(nonempty_graph)
        verify_edge_coloring(nonempty_graph, coloring, palette=max(2 * delta - 1, 1))

    def test_initial_edge_coloring_shortcut(self):
        g = erdos_renyi(30, 0.15, seed=5)
        base = oracle_edge_coloring(g)
        ledger = RoundLedger()
        again = oracle_edge_coloring(g, initial=base, ledger=ledger)
        verify_edge_coloring(g, again)
        assert ledger.total_actual == 0

    def test_edgeless_graph(self):
        g = nx.Graph()
        g.add_nodes_from(range(3))
        assert oracle_edge_coloring(g) == {}

    def test_output_over_two_delta_minus_one_rejected(self, monkeypatch):
        # A proper output with more than 2*Delta - 1 colors is refused.
        from repro.substrates import oracle as oracle_module

        monkeypatch.setattr(
            oracle_module, "kuhn_wattenhofer_reduction",
            lambda graph, coloring, target, ledger: {v: i for i, v in enumerate(graph.nodes())},
        )
        with pytest.raises(ColoringError, match="edge oracle used 4 > 3 colors"):
            oracle_edge_coloring(nx.path_graph(5))

    def test_canonical_edge_keys(self):
        g = nx.path_graph(3)
        coloring = oracle_edge_coloring(g)
        assert set(coloring) == {(0, 1), (1, 2)}
        assert coloring[(0, 1)] != coloring[(1, 2)]


class TestTransientGraphsFreedByRefcount:
    @pytest.mark.parametrize("engine", ["reference", "vector"])
    def test_line_graph_dies_with_the_call(self, monkeypatch, engine):
        # The line view every pass of the call reads must be freed by
        # refcount alone when the call returns — no engine, kernel or
        # check may keep it in a reference cycle for the collector.
        import gc
        import weakref

        from repro.engine import use_engine
        from repro.substrates import oracle as oracle_module

        lines = []
        build = oracle_module.line_view

        def recording(graph):
            line = build(graph)
            lines.append(weakref.ref(line))
            return line

        monkeypatch.setattr(oracle_module, "line_view", recording)
        g = random_regular(24, 4, seed=3)
        gc.collect()
        gc.disable()
        try:
            with use_engine(engine):
                coloring = oracle_edge_coloring(g)
            assert len(lines) == 1 and lines[0]() is None
        finally:
            gc.enable()
        verify_edge_coloring(g, coloring)
