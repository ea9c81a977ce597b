"""Tests for line graphs with the star clique identification (diversity 2)."""

import networkx as nx

from repro.graphs import line_graph_with_cover, max_degree
from repro.graphs.linegraph import (
    edge_coloring_from_vertex_coloring,
    vertex_coloring_from_edge_coloring,
)
from repro.types import edge_key


class TestStructure:
    def test_matches_networkx_line_graph(self, nonempty_graph):
        line, _ = line_graph_with_cover(nonempty_graph)
        reference = nx.line_graph(nonempty_graph)
        assert line.number_of_nodes() == reference.number_of_nodes()
        ref_edges = {edge_key(edge_key(*a), edge_key(*b)) for a, b in reference.edges()}
        got_edges = {edge_key(a, b) for a, b in line.edges()}
        assert got_edges == ref_edges

    def test_vertices_are_canonical_edges(self):
        g = nx.path_graph(4)
        line, _ = line_graph_with_cover(g)
        assert set(line.nodes()) == {(0, 1), (1, 2), (2, 3)}

    def test_line_graph_degree_bound(self, nonempty_graph):
        line, _ = line_graph_with_cover(nonempty_graph)
        delta = max_degree(nonempty_graph)
        assert max_degree(line) <= 2 * delta - 2


class TestCover:
    def test_diversity_at_most_two(self, nonempty_graph):
        line, cover = line_graph_with_cover(nonempty_graph)
        cover.validate(line)
        assert cover.diversity() <= 2

    def test_diversity_exactly_two_for_paths(self):
        line, cover = line_graph_with_cover(nx.path_graph(4))
        # the middle edge belongs to the cliques of both its endpoints
        assert cover.diversity_of((1, 2)) == 2

    def test_clique_size_equals_delta(self):
        g = nx.star_graph(7)
        line, cover = line_graph_with_cover(g)
        assert cover.max_clique_size() == 7

    def test_cliques_cover_all_line_edges(self, nonempty_graph):
        line, cover = line_graph_with_cover(nonempty_graph)
        covered = set()
        for clique in cover.cliques:
            members = sorted(clique, key=repr)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    covered.add(edge_key(a, b))
        assert covered == {edge_key(a, b) for a, b in line.edges()}


class TestProjections:
    def test_roundtrip(self):
        coloring = {(0, 1): 3, (1, 2): 5}
        assert vertex_coloring_from_edge_coloring(
            edge_coloring_from_vertex_coloring(coloring)
        ) == coloring

    def test_isolated_vertices_ignored(self):
        g = nx.Graph()
        g.add_nodes_from([1, 2])
        g.add_edge(3, 4)
        line, cover = line_graph_with_cover(g)
        assert line.number_of_nodes() == 1
        cover.validate(line)
