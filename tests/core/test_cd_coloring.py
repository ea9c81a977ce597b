"""Tests for CD-Coloring (Algorithm 1, Sections 2-3)."""

import math

import networkx as nx
import pytest

from repro.verify import verify_vertex_coloring
from repro.errors import InvalidParameterError
from repro.graphs import (
    CliqueCover,
    disjoint_cliques,
    line_graph_with_cover,
    max_degree,
    random_regular,
    random_uniform_hypergraph,
    shared_vertex_cliques,
)
from repro.local import RoundLedger
from repro.core import (
    build_clique_connector,
    cd_coloring,
    cd_edge_coloring,
    cd_palette_bound,
    choose_t_clique,
)
from repro.substrates import oracle_vertex_coloring
from repro.types import color_classes


def line_graph_instance(d=8, n=24, seed=1):
    base = random_regular(n, d, seed=seed)
    return line_graph_with_cover(base)


class TestProperness:
    @pytest.mark.parametrize("x", [1, 2, 3])
    def test_line_graph(self, x):
        graph, cover = line_graph_instance()
        result = cd_coloring(graph, cover, x=x)
        verify_vertex_coloring(graph, result.coloring)

    @pytest.mark.parametrize("x", [1, 2])
    def test_hypergraph_line_graph(self, x):
        hyper = random_uniform_hypergraph(n=20, num_edges=50, c=3, seed=2)
        graph, cover = hyper.line_graph_with_cover()
        result = cd_coloring(graph, cover, x=x)
        verify_vertex_coloring(graph, result.coloring)

    def test_clique_gadget(self):
        graph = shared_vertex_cliques(clique_size=8, num_cliques=3)
        cover = CliqueCover.from_maximal_cliques(graph)
        result = cd_coloring(graph, cover, x=1)
        verify_vertex_coloring(graph, result.coloring)

    def test_disjoint_cliques(self):
        graph = disjoint_cliques(4, 6)
        cover = CliqueCover.from_maximal_cliques(graph)
        result = cd_coloring(graph, cover, x=1)
        verify_vertex_coloring(graph, result.coloring)

    def test_explicit_t(self):
        graph, cover = line_graph_instance()
        result = cd_coloring(graph, cover, x=1, t=4)
        verify_vertex_coloring(graph, result.coloring)
        assert result.t == 4


class TestColorBounds:
    @pytest.mark.parametrize("x", [1, 2])
    def test_within_exact_palette_bound(self, x):
        graph, cover = line_graph_instance(d=10, n=30, seed=3)
        result = cd_coloring(graph, cover, x=x, trim=False)
        assert result.colors_used <= result.palette_bound

    @pytest.mark.parametrize("x", [1, 2, 3])
    def test_within_headline_target_after_trim(self, x):
        # Theorem 3.3(i): D^(x+1) * S colors.
        graph, cover = line_graph_instance(d=12, n=26, seed=4)
        result = cd_coloring(graph, cover, x=x, trim=True)
        assert result.colors_used <= result.target_colors

    def test_palette_bound_formula(self):
        # independently recompute the per-level product
        d, s, t, x = 2, 16, 4, 1
        gamma = d * (t - 1) + 1
        base = d * (math.ceil(s / t) - 1) + 1
        assert cd_palette_bound(d, s, t, x) == gamma * base

    def test_more_levels_never_fewer_palette(self):
        # deeper recursion trades colors for time
        bounds = [cd_palette_bound(2, 64, choose_t_clique(64, x), x) for x in (1, 2, 3)]
        assert bounds[0] <= bounds[1] <= bounds[2] * 2  # roughly increasing


class TestDecompositionLemmas:
    def test_lemma_2_2_class_degrees(self):
        # color classes of the connector coloring induce subgraphs with
        # degree at most (k-1) * D
        graph, cover = line_graph_instance(d=9, n=28, seed=5)
        t = 3
        connector = build_clique_connector(graph, cover, t)
        coloring = oracle_vertex_coloring(connector)
        k = math.ceil(cover.max_clique_size() / t)
        classes = color_classes(coloring)
        for members in classes.values():
            sub = graph.subgraph(members)
            assert max_degree(sub) <= (k - 1) * cover.diversity()

    def test_lemma_2_3_clique_shrinkage(self):
        graph, cover = line_graph_instance(d=8, n=24, seed=6)
        t = 3
        connector = build_clique_connector(graph, cover, t)
        coloring = oracle_vertex_coloring(connector)
        k = math.ceil(cover.max_clique_size() / t)
        classes = color_classes(coloring)
        for members in classes.values():
            mset = set(members)
            for clique in cover.cliques:
                assert len(clique & mset) <= k

    def test_lemma_2_3_diversity_nonincreasing(self):
        graph, cover = line_graph_instance(d=8, n=24, seed=7)
        connector = build_clique_connector(graph, cover, 3)
        coloring = oracle_vertex_coloring(connector)
        classes = color_classes(coloring)
        for members in classes.values():
            assert cover.restricted(members).diversity() <= cover.diversity()


class TestEdgeColoringViaLineGraph:
    @pytest.mark.parametrize("x", [1, 2])
    def test_theorem_3_3_ii(self, x):
        base = random_regular(20, 8, seed=8)
        result = cd_edge_coloring(base, x=x)
        # result is a vertex coloring of the line graph == edge coloring
        from repro.verify import verify_edge_coloring

        verify_edge_coloring(base, result.coloring, palette=result.target_colors)
        assert result.target_colors == 2 ** (x + 1) * 8

    def test_edgeless(self):
        g = nx.Graph()
        g.add_nodes_from(range(4))
        result = cd_edge_coloring(g, x=1)
        assert result.coloring == {}


class TestPlumbing:
    def test_x_validation(self):
        graph, cover = line_graph_instance()
        with pytest.raises(InvalidParameterError):
            cd_coloring(graph, cover, x=0)

    def test_t_validation(self):
        graph, cover = line_graph_instance()
        with pytest.raises(InvalidParameterError):
            cd_coloring(graph, cover, x=1, t=1)

    def test_ledger_accounting(self):
        graph, cover = line_graph_instance()
        ledger = RoundLedger()
        result = cd_coloring(graph, cover, x=1, ledger=ledger)
        assert ledger.total_actual == result.rounds_actual
        assert result.rounds_actual > 0
        assert result.rounds_modeled > 0

    def test_empty_graph(self):
        cover = CliqueCover.from_cliques([])
        result = cd_coloring(nx.Graph(), cover, x=1, t=2)
        assert result.coloring == {}
        assert result.colors_used == 0

    def test_deterministic(self):
        graph, cover = line_graph_instance()
        r1 = cd_coloring(graph, cover, x=1)
        r2 = cd_coloring(graph, cover, x=1)
        assert r1.coloring == r2.coloring
