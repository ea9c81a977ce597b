"""Tests for clique covers (consistent clique identification, Section 1.2)."""

import networkx as nx
import pytest

from repro.errors import CliqueCoverError
from repro.graphs import CliqueCover, shared_vertex_cliques


def triangle_with_tail() -> nx.Graph:
    g = nx.Graph([(0, 1), (1, 2), (0, 2), (2, 3)])
    return g


class TestConstruction:
    def test_from_cliques_membership(self):
        cover = CliqueCover.from_cliques([[0, 1, 2], [2, 3]])
        assert cover.diversity() == 1 or cover.diversity_of(2) == 2
        assert cover.diversity_of(2) == 2
        assert cover.diversity_of(0) == 1
        assert cover.max_clique_size() == 3

    def test_from_maximal_cliques_covers_graph(self):
        g = triangle_with_tail()
        cover = CliqueCover.from_maximal_cliques(g)
        cover.validate(g)
        assert cover.max_clique_size() == 3

    def test_empty_cover(self):
        cover = CliqueCover.from_cliques([])
        assert cover.diversity() == 0
        assert cover.max_clique_size() == 0

    def test_shared_vertex_gadget_diversity(self):
        g = shared_vertex_cliques(4, 3)
        cover = CliqueCover.from_maximal_cliques(g)
        assert cover.diversity() == 3  # the hub
        assert cover.max_clique_size() == 4


class TestValidation:
    def test_rejects_non_clique(self):
        g = nx.path_graph(3)  # 0-1-2, no edge (0,2)
        cover = CliqueCover.from_cliques([[0, 1, 2]])
        with pytest.raises(CliqueCoverError):
            cover.validate(g)

    def test_rejects_unknown_vertices(self):
        g = nx.path_graph(2)
        cover = CliqueCover.from_cliques([[0, 1], [7]])
        with pytest.raises(CliqueCoverError):
            cover.validate(g)

    def test_rejects_uncovered_vertices(self):
        g = nx.path_graph(3)
        cover = CliqueCover.from_cliques([[0, 1]])
        with pytest.raises(CliqueCoverError):
            cover.validate(g)

    def test_rejects_uncovered_neighborhood(self):
        # vertex 1's cliques must contain all of its neighbors
        g = nx.path_graph(3)
        cover = CliqueCover.from_cliques([[0, 1], [2]])
        with pytest.raises(CliqueCoverError):
            cover.validate(g)

    def test_neighborhood_check_optional(self):
        g = nx.path_graph(3)
        cover = CliqueCover.from_cliques([[0, 1], [2]])
        cover.validate(g, require_neighborhood_cover=False)


class TestRestriction:
    def test_restricted_drops_and_intersects(self):
        cover = CliqueCover.from_cliques([[0, 1, 2, 3], [3, 4, 5]])
        sub = cover.restricted([0, 1, 3])
        assert sorted(len(c) for c in sub.cliques) == [1, 3]
        assert sub.max_clique_size() == 3

    def test_restricted_diversity_never_increases(self):
        g = shared_vertex_cliques(5, 3)
        cover = CliqueCover.from_maximal_cliques(g)
        for subset in ([0, 1, 2], list(g.nodes())[:7], list(g.nodes())):
            assert cover.restricted(subset).diversity() <= cover.diversity()

    def test_restricted_to_empty(self):
        cover = CliqueCover.from_cliques([[0, 1]])
        sub = cover.restricted([])
        assert sub.cliques == ()


class TestPartitionClique:
    def test_groups_of_size_t(self):
        cover = CliqueCover.from_cliques([list(range(10))])
        groups = cover.partition_clique(0, 4)
        assert [len(g) for g in groups] == [4, 4, 2]
        flat = [v for g in groups for v in g]
        assert sorted(flat) == list(range(10))

    def test_exact_division(self):
        cover = CliqueCover.from_cliques([list(range(9))])
        groups = cover.partition_clique(0, 3)
        assert [len(g) for g in groups] == [3, 3, 3]

    def test_t_validation(self):
        cover = CliqueCover.from_cliques([[0, 1]])
        with pytest.raises(CliqueCoverError):
            cover.partition_clique(0, 0)

    def test_deterministic(self):
        cover = CliqueCover.from_cliques([list(range(7))])
        assert cover.partition_clique(0, 3) == cover.partition_clique(0, 3)
