"""Tests for the Cole-Vishkin forest 3-coloring."""

import networkx as nx
import pytest

from repro.verify import verify_vertex_coloring
from repro.errors import InvalidParameterError
from repro.graphs import random_tree
from repro.local import RoundLedger
from repro.substrates import (
    cole_vishkin_forest_coloring,
    cv_iterations,
    root_forest,
)


class TestRooting:
    def test_every_vertex_mapped(self):
        t = random_tree(30, seed=1)
        parent = root_forest(t)
        assert set(parent) == set(t.nodes())
        roots = [v for v, p in parent.items() if p is None]
        assert len(roots) == 1

    def test_parent_edges_exist(self):
        t = random_tree(25, seed=2)
        parent = root_forest(t)
        for v, p in parent.items():
            if p is not None:
                assert t.has_edge(v, p)

    def test_one_root_per_component(self):
        f = nx.Graph()
        f.add_edges_from(nx.path_graph(5).edges())
        f.add_edges_from([(10, 11), (11, 12)])
        f.add_node(20)
        parent = root_forest(f)
        roots = [v for v, p in parent.items() if p is None]
        assert len(roots) == 3

    def test_non_forest_rejected(self):
        with pytest.raises(InvalidParameterError):
            root_forest(nx.cycle_graph(4))


class TestIterations:
    def test_log_star_growth(self):
        assert cv_iterations(6) == 1
        assert cv_iterations(2**16) <= 5
        assert cv_iterations(2**64) <= 7

    def test_monotone(self):
        values = [cv_iterations(m) for m in (2, 10, 100, 10**4, 10**8)]
        assert values == sorted(values)


class TestThreeColoring:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 20, 200, 1500])
    def test_trees(self, n):
        t = random_tree(n, seed=n)
        coloring = cole_vishkin_forest_coloring(t)
        verify_vertex_coloring(t, coloring, palette=3)
        assert all(0 <= c <= 2 for c in coloring.values())

    def test_paths_and_stars(self):
        for g in (nx.path_graph(50), nx.star_graph(40)):
            coloring = cole_vishkin_forest_coloring(g)
            verify_vertex_coloring(g, coloring, palette=3)

    def test_multi_component_forest(self):
        f = nx.Graph()
        f.add_edges_from(random_tree(20, seed=3).edges())
        f.add_edges_from([(100 + u, 100 + v) for u, v in random_tree(15, seed=4).edges()])
        f.add_nodes_from([500, 501])
        coloring = cole_vishkin_forest_coloring(f)
        verify_vertex_coloring(f, coloring, palette=3)

    def test_custom_parent_map(self):
        t = nx.path_graph(6)
        parent = {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: None}
        coloring = cole_vishkin_forest_coloring(t, parent=parent)
        verify_vertex_coloring(t, coloring, palette=3)

    def test_incomplete_parent_map_rejected(self):
        t = nx.path_graph(3)
        with pytest.raises(InvalidParameterError):
            cole_vishkin_forest_coloring(t, parent={0: 1})

    def test_rounds_are_log_star(self):
        t = random_tree(1000, seed=5)
        ledger = RoundLedger()
        cole_vishkin_forest_coloring(t, ledger=ledger)
        # bit reduction + the 6 shift-down rounds: far below any poly(n)
        assert ledger.total_actual <= 20

    def test_empty(self):
        assert cole_vishkin_forest_coloring(nx.Graph()) == {}

    def test_deterministic(self):
        t = random_tree(60, seed=6)
        assert cole_vishkin_forest_coloring(t) == cole_vishkin_forest_coloring(t)
