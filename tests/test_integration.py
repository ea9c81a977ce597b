"""Integration tests: every pipeline end to end on shared workloads, with
cross-algorithm consistency checks."""

import networkx as nx
import pytest

from repro.verify import verify_edge_coloring, verify_vertex_coloring
from repro.baselines import (
    degree_splitting_edge_coloring,
    greedy_edge_coloring,
    misra_gries_edge_coloring,
)
from repro.core import (
    cd_coloring,
    cd_edge_coloring,
    edge_color_bounded_arboricity,
    edge_color_delta_plus_o_delta,
    four_delta_edge_coloring,
    star_partition_edge_coloring,
)
from repro.graphs import (
    arboricity_bounds,
    forest_union,
    line_graph_with_cover,
    max_degree,
    random_regular,
)
from repro.local import RoundLedger
from repro.substrates import oracle_edge_coloring, oracle_vertex_coloring


@pytest.fixture(scope="module")
def workload():
    return random_regular(36, 10, seed=99)


class TestEveryEdgeColoringPipeline:
    def test_all_proper_on_shared_workload(self, workload):
        delta = max_degree(workload)
        results = {
            "vizing": misra_gries_edge_coloring(workload),
            "greedy": greedy_edge_coloring(workload),
            "oracle": oracle_edge_coloring(workload),
            "star-x1": four_delta_edge_coloring(workload).coloring,
            "star-x2": star_partition_edge_coloring(workload, x=2).coloring,
            "cd-line": cd_edge_coloring(workload, x=1).coloring,
            "split": degree_splitting_edge_coloring(workload).coloring,
            "thm52": edge_color_bounded_arboricity(workload).coloring,
        }
        for name, coloring in results.items():
            verify_edge_coloring(workload, coloring)

    def test_color_count_ordering(self, workload):
        """Vizing <= greedy <= our 4Delta target: the quality ladder holds."""
        delta = max_degree(workload)
        vizing = len(set(misra_gries_edge_coloring(workload).values()))
        greedy = len(set(greedy_edge_coloring(workload).values()))
        ours = four_delta_edge_coloring(workload).colors_used
        assert vizing <= delta + 1
        assert vizing <= greedy <= 2 * delta - 1
        assert ours <= 4 * delta

    def test_section3_and_section4_agree_on_target(self, workload):
        """Theorem 3.3(ii) and Theorem 4.1 both promise 2^(x+1) Delta."""
        for x in (1, 2):
            via_line = cd_edge_coloring(workload, x=x)
            via_star = star_partition_edge_coloring(workload, x=x)
            assert via_line.target_colors == via_star.target_colors
            assert via_line.colors_used <= via_line.target_colors
            assert via_star.colors_used <= via_star.target_colors


class TestLowArboricityPipeline:
    def test_delta_plus_o_delta_beats_doubling(self):
        """On Delta >> a instances, Section 5 must use fewer colors than any
        (2Delta-1)-style algorithm — the paper's headline claim."""
        from repro.graphs import star_forest_stack

        graph = star_forest_stack(n_centers=5, leaves_per_center=25, a=2, seed=5)
        delta = max_degree(graph)
        assert delta >= 15
        ours = edge_color_bounded_arboricity(graph, arboricity=2)
        verify_edge_coloring(graph, ours.coloring)
        assert ours.colors_used < 2 * delta - 1

    def test_corollary_55_full_pipeline(self):
        graph = forest_union(100, 3, seed=6)
        result = edge_color_delta_plus_o_delta(graph)
        verify_edge_coloring(graph, result.coloring)
        bounds = arboricity_bounds(graph)
        assert result.arboricity >= bounds.lower


class TestSeedIsolation:
    def test_oracle_runs_do_not_interfere(self):
        """Oracle calls on different graphs leave each other's results alone."""
        g1 = random_regular(20, 4, seed=1)
        g2 = nx.complete_graph(7)
        c1 = oracle_vertex_coloring(g1)
        c2 = oracle_vertex_coloring(g2)
        c1_again = oracle_vertex_coloring(g1)
        assert c1 == c1_again
        verify_vertex_coloring(g2, c2, palette=7)

    def test_ledgers_compose_across_pipelines(self):
        graph = random_regular(24, 6, seed=2)
        ledger = RoundLedger()
        four_delta_edge_coloring(graph, ledger=ledger)
        first = ledger.total_actual
        edge_color_bounded_arboricity(graph, ledger=ledger)
        assert ledger.total_actual > first


class TestLineGraphConsistency:
    def test_cd_coloring_of_line_graph_is_edge_coloring(self):
        base = random_regular(18, 6, seed=3)
        line, cover = line_graph_with_cover(base)
        result = cd_coloring(line, cover, x=1)
        verify_vertex_coloring(line, result.coloring)
        # the same map read as an edge coloring of the base graph is proper
        verify_edge_coloring(base, dict(result.coloring))


class TestTransientGraphsFreedByRefcount:
    @pytest.mark.parametrize(
        "algorithm",
        ["star4", "thm52", "thm53", "thm54", "cor55", "cd", "vertex-arboricity",
         "h-partition", "oracle-edge", "weak", "weak-vertex"],
    )
    def test_pipeline_leaves_no_graph_in_a_cycle(self, algorithm):
        # every subgraph, line graph and class graph a pipeline builds is
        # read without cached nx views, so refcounting alone frees it
        import gc

        from repro import registry
        from repro.engine import use_engine

        graph = random_regular(40, 6, seed=2)

        def graphs_alive():
            return {id(o) for o in gc.get_objects() if isinstance(o, nx.Graph)}

        gc.collect()
        before = graphs_alive()
        gc.disable()
        try:
            with use_engine("vector"):
                registry.run(algorithm, graph)
            assert graphs_alive() - before == set()
        finally:
            gc.enable()
