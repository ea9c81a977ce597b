"""Tests for the three connector constructions (Figures 1-3)."""

import math

import networkx as nx
import pytest

from repro.errors import InvalidParameterError
from repro.graphs import (
    CliqueCover,
    disjoint_cliques,
    erdos_renyi,
    line_graph_with_cover,
    max_degree,
    orient_acyclic_by_order,
    random_regular,
    shared_vertex_cliques,
)
from repro.core import (
    build_clique_connector,
    build_edge_connector,
    build_orientation_connector,
)
from repro.substrates import h_partition
from repro.types import edge_key


class TestCliqueConnector:
    def test_lemma_2_1_degree_bound(self):
        # Delta(G') <= D * (t - 1) on the figure-1 gadget and line graphs.
        for t in (2, 3, 4):
            g = shared_vertex_cliques(clique_size=9, num_cliques=3)
            cover = CliqueCover.from_maximal_cliques(g)
            connector = build_clique_connector(g, cover, t)
            assert max_degree(connector) <= cover.diversity() * (t - 1)

    def test_lemma_2_1_on_line_graphs(self):
        base = random_regular(20, 6, seed=2)
        line, cover = line_graph_with_cover(base)
        for t in (2, 3):
            connector = build_clique_connector(line, cover, t)
            assert max_degree(connector) <= 2 * (t - 1)

    def test_connector_edges_subset_of_graph(self):
        g = shared_vertex_cliques(6, 2)
        cover = CliqueCover.from_maximal_cliques(g)
        connector = build_clique_connector(g, cover, 3)
        for u, v in connector.edges():
            assert g.has_edge(u, v)

    def test_same_vertex_set(self):
        g = disjoint_cliques(2, 5)
        cover = CliqueCover.from_maximal_cliques(g)
        connector = build_clique_connector(g, cover, 2)
        assert set(connector.nodes()) == set(g.nodes())

    def test_groups_are_cliques_in_connector(self):
        g = disjoint_cliques(1, 8)
        cover = CliqueCover.from_maximal_cliques(g)
        t = 4
        connector = build_clique_connector(g, cover, t)
        groups = cover.partition_clique(0, t)
        for group in groups:
            for i, u in enumerate(group):
                for v in group[i + 1 :]:
                    assert connector.has_edge(u, v)

    def test_t_at_least_clique_size_keeps_all_edges(self):
        g = disjoint_cliques(1, 5)
        cover = CliqueCover.from_maximal_cliques(g)
        connector = build_clique_connector(g, cover, 5)
        assert connector.number_of_edges() == g.number_of_edges()

    def test_t_validation(self):
        g = nx.complete_graph(3)
        cover = CliqueCover.from_maximal_cliques(g)
        with pytest.raises(InvalidParameterError):
            build_clique_connector(g, cover, 1)


class TestEdgeConnector:
    def test_degree_bound_is_t(self, nonempty_graph):
        for t in (1, 2, 3):
            connector = build_edge_connector(nonempty_graph, t)
            assert max_degree(connector.graph) <= t

    def test_edge_bijection(self, nonempty_graph):
        connector = build_edge_connector(nonempty_graph, 3)
        assert len(connector.edge_map) == nonempty_graph.number_of_edges()
        assert len(set(connector.edge_map.values())) == len(connector.edge_map)
        assert connector.graph.number_of_edges() == nonempty_graph.number_of_edges()

    def test_virtual_vertex_count(self):
        g = nx.star_graph(10)  # center degree 10
        connector = build_edge_connector(g, 3)
        center_virtuals = [v for v in connector.graph.nodes() if v[0] == 0]
        assert len(center_virtuals) == math.ceil(10 / 3)

    def test_class_star_bound(self):
        # a proper edge coloring of the connector induces classes with star
        # size at most ceil(Delta/t) (Section 4)
        from repro.substrates import oracle_edge_coloring
        from repro.verify import max_star_size

        g = random_regular(16, 8, seed=3)
        t = 3
        connector = build_edge_connector(g, t)
        coloring = oracle_edge_coloring(connector.graph)
        classes = connector.classes(coloring)
        k = math.ceil(8 / t)
        for edges in classes.values():
            assert max_star_size(g, edges) <= k

    def test_projection(self):
        g = nx.path_graph(4)
        connector = build_edge_connector(g, 2)
        coloring = {ce: i for i, ce in enumerate(connector.edge_map.values())}
        projected = connector.project_edge_coloring(coloring)
        assert set(projected) == {edge_key(u, v) for u, v in g.edges()}

    def test_t_validation(self):
        with pytest.raises(InvalidParameterError):
            build_edge_connector(nx.path_graph(3), 0)


class TestOrientationConnector:
    def _oriented(self, graph):
        hp = h_partition(graph)
        return hp.orientation()

    def test_degree_bound(self):
        g = erdos_renyi(40, 0.15, seed=4)
        orientation = self._oriented(g)
        connector = build_orientation_connector(
            g, orientation, in_group_size=3, out_group_size=2
        )
        assert max_degree(connector.graph) <= 3 + 2

    def test_inherited_orientation_acyclic(self):
        g = erdos_renyi(30, 0.2, seed=5)
        orientation = self._oriented(g)
        connector = build_orientation_connector(
            g, orientation, in_group_size=2, out_group_size=2
        )
        assert connector.orientation.is_acyclic()

    def test_out_degree_bounded_by_out_group(self):
        g = erdos_renyi(30, 0.2, seed=6)
        orientation = self._oriented(g)
        for g_out in (1, 2, 3):
            connector = build_orientation_connector(
                g, orientation, in_group_size=4, out_group_size=g_out
            )
            assert connector.orientation.max_out_degree() <= g_out

    def test_edge_bijection(self):
        g = erdos_renyi(25, 0.2, seed=7)
        orientation = self._oriented(g)
        connector = build_orientation_connector(g, orientation, 3, 2)
        assert len(connector.edge_map) == g.number_of_edges()
        assert len(set(connector.edge_map.values())) == g.number_of_edges()

    def test_bipartite_variant(self):
        g = erdos_renyi(30, 0.2, seed=8)
        orientation = self._oriented(g)
        connector = build_orientation_connector(
            g, orientation, in_group_size=3, out_group_size=2, bipartite=True
        )
        assert connector.side is not None
        assert nx.is_bipartite(connector.graph)
        for u, v in connector.graph.edges():
            assert connector.side[u] != connector.side[v]

    def test_bipartite_side_degrees(self):
        g = erdos_renyi(30, 0.25, seed=9)
        orientation = self._oriented(g)
        g_in, g_out = 4, 2
        connector = build_orientation_connector(
            g, orientation, g_in, g_out, bipartite=True
        )
        for v in connector.graph.nodes():
            if connector.side[v] == "in":
                assert connector.graph.degree(v) <= g_in
            else:
                assert connector.graph.degree(v) <= g_out

    def test_group_size_validation(self):
        g = nx.path_graph(3)
        orientation = orient_acyclic_by_order(g, [0, 1, 2])
        with pytest.raises(InvalidParameterError):
            build_orientation_connector(g, orientation, 0, 1)
