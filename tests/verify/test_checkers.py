"""Edge-case regressions for the moved checkers (PR 4 satellite): empty
graphs, isolated vertices, partial/spurious/None assignments must all be
explicit outcomes, never silent passes."""

import networkx as nx
import pytest

from repro.errors import ColoringError
from repro import registry
from repro.types import color_classes, edge_key
from repro.verify import (
    verify_defective_coloring,
    verify_edge_coloring,
    verify_h_partition,
    verify_run,
    verify_star_partition,
    verify_vertex_coloring,
)


class TestVertexColoringEdgeCases:
    def test_empty_graph_empty_coloring_passes(self):
        assert verify_vertex_coloring(nx.Graph(), {})

    def test_empty_graph_rejects_spurious_vertices(self):
        with pytest.raises(ColoringError, match="not in the graph"):
            verify_vertex_coloring(nx.Graph(), {0: 0})

    def test_isolated_vertices_must_be_colored(self):
        g = nx.Graph([(0, 1)])
        g.add_node(7)
        with pytest.raises(ColoringError, match="uncolored"):
            verify_vertex_coloring(g, {0: 0, 1: 1})
        assert verify_vertex_coloring(g, {0: 0, 1: 1, 7: 0})

    def test_partial_coloring_is_explicit_violation(self):
        g = nx.path_graph(4)
        assert verify_vertex_coloring(g, {0: 0, 1: 1}, strict=False) is False

    def test_none_assignment_rejected(self):
        g = nx.path_graph(2)
        with pytest.raises(ColoringError, match="None assignment"):
            verify_vertex_coloring(g, {0: 0, 1: None})

    def test_two_none_assignments_not_treated_as_proper(self):
        # Before the fix, {0: None, 1: None} on an independent pair of an
        # edgeless check path could slip through as "one distinct color".
        g = nx.Graph()
        g.add_nodes_from([0, 1])
        with pytest.raises(ColoringError, match="None assignment"):
            verify_vertex_coloring(g, {0: None, 1: None})


class TestEdgeColoringEdgeCases:
    def test_empty_graph_empty_coloring_passes(self):
        assert verify_edge_coloring(nx.Graph(), {})

    def test_isolated_vertices_only_need_empty_coloring(self):
        g = nx.Graph()
        g.add_nodes_from([0, 1, 2])
        assert verify_edge_coloring(g, {})
        with pytest.raises(ColoringError, match="not in the graph"):
            verify_edge_coloring(g, {(0, 1): 0})

    def test_partial_coloring_is_explicit_violation(self):
        g = nx.path_graph(3)
        with pytest.raises(ColoringError, match="uncolored"):
            verify_edge_coloring(g, {(0, 1): 0})

    def test_spurious_edge_rejected(self):
        g = nx.path_graph(3)
        with pytest.raises(ColoringError, match="not in the graph"):
            verify_edge_coloring(g, {(0, 1): 0, (1, 2): 1, (0, 2): 2})

    def test_non_canonical_key_named_explicitly(self):
        g = nx.path_graph(3)
        with pytest.raises(ColoringError, match="non-canonically"):
            verify_edge_coloring(g, {(0, 1): 0, (2, 1): 1})

    def test_none_assignment_rejected(self):
        g = nx.path_graph(3)
        with pytest.raises(ColoringError, match="None assignment"):
            verify_edge_coloring(g, {(0, 1): 0, (1, 2): None})

    def test_non_strict_returns_false_on_partial(self):
        g = nx.path_graph(3)
        assert verify_edge_coloring(g, {(0, 1): 0}, strict=False) is False


class TestNodeIdsThatDoNotCompare:
    """Int and str node ids in one graph: the edge keys fall back to
    ``repr`` order, and no checker may sort them by ``<``."""

    @staticmethod
    def graph():
        return nx.Graph([(0, "x"), ("x", 5), (5, "y"), (0, 1)])

    def test_proper_coloring_verdict_ok(self):
        g = self.graph()
        verdict = verify_run(g, registry.run("star4", g))
        assert verdict.status == "ok", verdict.violation
        assert "star-partition" in verdict.checks

    def test_star_partition_missing_an_edge_rejected(self):
        g = self.graph()
        classes = color_classes(registry.run("star4", g).coloring)
        dropped = next(c for c, edges in classes.items() if edges)
        classes[dropped] = classes[dropped][1:]
        with pytest.raises(ColoringError, match="do not partition"):
            verify_star_partition(g, classes, q=1)

    def test_star_partition_listing_an_edge_twice_rejected(self):
        g = self.graph()
        classes = color_classes(registry.run("star4", g).coloring)
        extra = max(classes) + 1
        classes[extra] = [next(e for edges in classes.values() for e in edges)]
        with pytest.raises(ColoringError, match="do not partition"):
            verify_star_partition(g, classes, q=1)

    def test_edge_coloring_missing_edges_rejected(self):
        g = self.graph()
        coloring = dict(registry.run("star4", g).coloring)
        for u, v in [(0, "x"), (0, 1)]:
            del coloring[edge_key(u, v)]
        with pytest.raises(ColoringError, match="2 edges uncolored"):
            verify_edge_coloring(g, coloring)


class TestDefectiveChecker:
    def test_accepts_within_defect(self):
        g = nx.complete_graph(4)
        # One color everywhere: defect 3 at every vertex of K4.
        assert verify_defective_coloring(g, {v: 0 for v in g}, defect=3)

    def test_rejects_exceeding_defect(self):
        g = nx.complete_graph(4)
        with pytest.raises(ColoringError, match="defect"):
            verify_defective_coloring(g, {v: 0 for v in g}, defect=2)

    def test_rejects_partial(self):
        g = nx.path_graph(3)
        with pytest.raises(ColoringError, match="uncolored"):
            verify_defective_coloring(g, {0: 0}, defect=1)

    def test_substrate_output_passes(self):
        from repro.graphs import random_regular
        from repro.substrates.defective import defective_coloring
        from repro.substrates.linial import linial_coloring

        g = random_regular(24, 6, seed=3)
        initial = linial_coloring(g)
        refined = defective_coloring(g, q=5, initial=initial)
        assert verify_defective_coloring(
            g, refined.coloring, defect=refined.defect_bound
        )

    def test_palette_bound(self):
        g = nx.path_graph(3)
        with pytest.raises(ColoringError, match="palette"):
            verify_defective_coloring(g, {0: 0, 1: 1, 2: 2}, defect=2, palette=2)


class TestHPartitionChecker:
    def test_accepts_valid_partition(self):
        from repro.graphs import star_forest_stack
        from repro.substrates.hpartition import h_partition

        g = star_forest_stack(4, 8, 2, seed=0)
        hp = h_partition(g, arboricity=2)
        assert verify_h_partition(g, hp.index, hp.threshold)

    def test_rejects_level_degree_violation(self):
        g = nx.star_graph(5)  # center 0 has degree 5
        index = {v: 1 for v in g}
        with pytest.raises(ColoringError, match="H-partition violated"):
            verify_h_partition(g, index, threshold=2)

    def test_rejects_missing_index(self):
        g = nx.path_graph(3)
        with pytest.raises(ColoringError, match="missing an H-index"):
            verify_h_partition(g, {0: 1, 1: 1}, threshold=3)

    def test_rejects_spurious_index(self):
        g = nx.path_graph(3)
        with pytest.raises(ColoringError, match="not in the graph"):
            verify_h_partition(g, {0: 1, 1: 1, 2: 1, 9: 1}, threshold=3)
