"""Engine-parity suite: every registered algorithm must produce identical
outputs, round counts, and message counts under ``ReferenceEngine`` and
``VectorEngine``.

The vector engine runs every registered program as array code and
delegates everything else to the reference scheduler; a program that
ever diverged from the per-node semantics would show here as different
outputs or message profiles.
"""

from __future__ import annotations

import networkx as nx
import pytest

from repro import registry
from repro.engine import get_engine
from repro.graphs import (
    cycle,
    erdos_renyi,
    line_graph_with_cover,
    path,
    planar_grid,
    random_regular,
    random_tree,
)
from repro.substrates.linial import LinialAlgorithm, linial_coloring
from repro.substrates.reduction import (
    BasicReductionAlgorithm,
    BlockedReductionAlgorithm,
)


def _isolated_plus_edges() -> nx.Graph:
    graph = nx.Graph([(0, 1), (2, 3)])
    graph.add_nodes_from([10, 11])
    return graph


# Corpus: small but diverse — regular, sparse, degenerate, disconnected.
_CORPUS = {
    "one-edge": lambda: path(2),
    "path-7": lambda: path(7),
    "cycle-9": lambda: cycle(9),
    "star-9": lambda: nx.star_graph(9),
    "k5": lambda: nx.complete_graph(5),
    "petersen": nx.petersen_graph,
    "grid-4x5": lambda: planar_grid(4, 5),
    "tree-20": lambda: random_tree(20, seed=4),
    "gnp-30": lambda: erdos_renyi(30, 0.2, seed=5),
    "regular-24-6": lambda: random_regular(24, 6, seed=7),
    "isolated+edges": _isolated_plus_edges,
}
PARITY_GRAPHS = tuple(sorted(_CORPUS))


def small_graph(name: str) -> nx.Graph:
    return _CORPUS[name]()

# Algorithms runnable on any plain graph. ``cole-vishkin`` (needs a forest)
# and ``thm54`` (slow at this scale) get dedicated cases below.
GENERAL_ALGORITHMS = [
    name for name in registry.names() if name not in ("cole-vishkin", "thm54")
]


def run_both(name: str, graph, **params):
    ref = registry.run(name, graph, engine="reference", **params)
    vec = registry.run(name, graph, engine="vector", **params)
    return ref, vec


def assert_same_run(ref: registry.AlgorithmRun, vec: registry.AlgorithmRun) -> None:
    assert vec.coloring == ref.coloring
    assert vec.colors_used == ref.colors_used
    assert vec.rounds_actual == ref.rounds_actual
    assert vec.rounds_modeled == ref.rounds_modeled
    assert vec.extra == ref.extra


class TestRegistryParity:
    @pytest.mark.parametrize("graph_name", PARITY_GRAPHS)
    @pytest.mark.parametrize("algorithm", GENERAL_ALGORITHMS)
    def test_identical_runs(self, algorithm, graph_name):
        graph = small_graph(graph_name)
        assert_same_run(*run_both(algorithm, graph))

    def test_cole_vishkin_on_forest(self):
        forest = random_tree(24, seed=9)
        assert_same_run(*run_both("cole-vishkin", forest))

    def test_thm54_recursive(self):
        graph = small_graph("regular-24-6")
        assert_same_run(*run_both("thm54", graph, x=2, arboricity=3))

    @pytest.mark.parametrize("x", (1, 2))
    def test_star_depths(self, x):
        graph = random_regular(24, 8, seed=3)
        assert_same_run(*run_both("star", graph, x=x))

    def test_randomized_seeded(self):
        graph = random_regular(24, 6, seed=5)
        assert_same_run(*run_both("randomized", graph, seed=11))


class TestEngineLevelParity:
    """Full RunResult equality (outputs, rounds, messages, per-round
    profile) on the class-scheduled protocols."""

    def assert_runs_equal(self, graph, algorithm, extras):
        ref = get_engine("reference").run(graph, algorithm, extras=extras)
        vec = get_engine("vector").run(graph, algorithm, extras=extras)
        assert vec.outputs == ref.outputs
        assert vec.rounds == ref.rounds
        assert vec.messages == ref.messages
        assert vec.round_messages == ref.round_messages
        assert vec.crashed == ref.crashed

    @pytest.mark.parametrize("graph_name", PARITY_GRAPHS)
    def test_basic_reduction(self, graph_name):
        graph = small_graph(graph_name)
        ordered = sorted(graph.nodes(), key=repr)
        coloring = {v: i for i, v in enumerate(ordered)}
        delta = max((d for _, d in graph.degree()), default=0)
        self.assert_runs_equal(
            graph,
            BasicReductionAlgorithm(),
            {"coloring": coloring, "m": len(ordered), "target": delta + 1},
        )

    @pytest.mark.parametrize("graph_name", PARITY_GRAPHS)
    def test_blocked_reduction(self, graph_name):
        graph = small_graph(graph_name)
        ordered = sorted(graph.nodes(), key=repr)
        coloring = {v: i for i, v in enumerate(ordered)}
        delta = max((d for _, d in graph.degree()), default=0)
        self.assert_runs_equal(
            graph,
            BlockedReductionAlgorithm(),
            {"coloring": coloring, "block": 2 * (delta + 1), "palette": delta + 1},
        )

    def test_linial_line_graph(self):
        line, _ = line_graph_with_cover(random_regular(20, 4, seed=2))
        initial = {v: i for i, v in enumerate(sorted(line.nodes(), key=repr))}
        self.assert_runs_equal(
            line,
            LinialAlgorithm(),
            {"initial_coloring": initial, "m0": len(initial)},
        )


class TestCrashAndBandwidthParity:
    """Crash-scheduled and bandwidth-tracked vector runs against the
    reference fail-stop semantics: identical outputs, `crashed` sets,
    round counts, per-round message profiles, and bandwidth accounting
    under mid-run crashes. The vector engine delegates these runs to the
    reference scheduler, so this holds the delegation to the spec."""

    def assert_crash_parity(self, graph, algorithm, extras, crashes):
        ref = get_engine("reference").run(
            graph, algorithm, extras=dict(extras),
            crashes=dict(crashes), track_bandwidth=True,
        )
        vec = get_engine("vector").run(
            graph, algorithm, extras=dict(extras),
            crashes=dict(crashes), track_bandwidth=True,
        )
        assert vec.outputs == ref.outputs
        assert vec.crashed == ref.crashed
        assert vec.rounds == ref.rounds
        assert vec.messages == ref.messages
        assert vec.round_messages == ref.round_messages
        assert vec.max_message_bits == ref.max_message_bits
        return ref

    @staticmethod
    def reduction_extras(graph):
        ordered = sorted(graph.nodes(), key=repr)
        coloring = {v: i for i, v in enumerate(ordered)}
        delta = max((d for _, d in graph.degree()), default=0)
        return ordered, {"coloring": coloring, "m": len(ordered), "target": delta + 1}

    @pytest.mark.parametrize("graph_name", PARITY_GRAPHS)
    def test_staggered_midrun_crashes(self, graph_name):
        graph = small_graph(graph_name)
        ordered, extras = self.reduction_extras(graph)
        # every third node fail-stops at a staggered mid-run round; under
        # the reduction schedule most of these nodes are still waiting for
        # their class's round when they crash
        crashes = {v: (i % 4) + 2 for i, v in enumerate(ordered[::3])}
        ref = self.assert_crash_parity(graph, BasicReductionAlgorithm(), extras, crashes)
        if ref.rounds >= 5:
            assert ref.crashed  # the schedule actually fired mid-run

    @pytest.mark.parametrize("graph_name", ("cycle-9", "gnp-30", "regular-24-6"))
    def test_blocked_reduction_crashes(self, graph_name):
        graph = small_graph(graph_name)
        ordered = sorted(graph.nodes(), key=repr)
        coloring = {v: i for i, v in enumerate(ordered)}
        delta = max(d for _, d in graph.degree())
        extras = {"coloring": coloring, "block": 2 * (delta + 1), "palette": delta + 1}
        crashes = {v: (i % 3) + 1 for i, v in enumerate(ordered[::4])}
        self.assert_crash_parity(graph, BlockedReductionAlgorithm(), extras, crashes)

    def test_linial_with_crashes(self):
        line, _ = line_graph_with_cover(random_regular(20, 4, seed=2))
        ordered = sorted(line.nodes(), key=repr)
        initial = {v: i for i, v in enumerate(ordered)}
        extras = {"initial_coloring": initial, "m0": len(initial)}
        crashes = {v: (i % 3) + 1 for i, v in enumerate(ordered[::4])}
        self.assert_crash_parity(line, LinialAlgorithm(), extras, crashes)

    def test_everyone_crashes_in_round_one(self):
        graph = small_graph("gnp-30")
        ordered, extras = self.reduction_extras(graph)
        crashes = {v: 1 for v in ordered}
        ref = self.assert_crash_parity(graph, BasicReductionAlgorithm(), extras, crashes)
        assert ref.rounds == 1
        assert ref.crashed == frozenset(ordered)

    def test_crash_scheduled_after_termination_never_fires(self):
        graph = small_graph("regular-24-6")
        ordered, extras = self.reduction_extras(graph)
        crashes = {ordered[0]: 10**6}
        ref = self.assert_crash_parity(graph, BasicReductionAlgorithm(), extras, crashes)
        assert ref.crashed == frozenset()

    def test_crash_in_the_repick_round(self):
        """Crash a node in the round its color class re-picks (and in
        every round around it): the crashed node must not step or count."""
        graph = small_graph("regular-24-6")
        ordered, extras = self.reduction_extras(graph)
        baseline = get_engine("reference").run(
            graph, BasicReductionAlgorithm(), extras=dict(extras)
        )
        # color class c acts late in the schedule; crash a mid-schedule
        # node at every plausible wake round and require parity each time
        victim = ordered[len(ordered) // 2]
        for crash_round in range(2, min(baseline.rounds, 12)):
            self.assert_crash_parity(
                graph, BasicReductionAlgorithm(), extras, {victim: crash_round}
            )

    def test_bandwidth_parity_without_crashes(self):
        graph = small_graph("gnp-30")
        _, extras = self.reduction_extras(graph)
        ref = get_engine("reference").run(
            graph, BasicReductionAlgorithm(), extras=dict(extras), track_bandwidth=True
        )
        vec = get_engine("vector").run(
            graph, BasicReductionAlgorithm(), extras=dict(extras), track_bandwidth=True
        )
        assert vec.max_message_bits == ref.max_message_bits > 0

    def test_unknown_crash_node_rejected_by_both(self):
        from repro.errors import SimulationError

        graph = small_graph("path-7")
        _, extras = self.reduction_extras(graph)
        for engine in ("reference", "vector"):
            with pytest.raises(SimulationError, match="unknown nodes"):
                get_engine(engine).run(
                    graph, BasicReductionAlgorithm(), extras=dict(extras),
                    crashes={"no-such-node": 1},
                )


class TestParityAtModerateScale:
    """One larger instance per hot path, so the programs' class sweeps
    are exercised at depth (hundreds of rounds, mostly-idle nodes)."""

    def test_basic_reduction_large_palette(self):
        line, _ = line_graph_with_cover(random_regular(40, 6, seed=3))
        initial = linial_coloring(line)
        delta = max(d for _, d in line.degree())
        extras = {
            "coloring": initial,
            "m": max(initial.values()) + 1,
            "target": 2 * delta + 1,
        }
        ref = get_engine("reference").run(line, BasicReductionAlgorithm(), extras=extras)
        vec = get_engine("vector").run(line, BasicReductionAlgorithm(), extras=extras)
        assert vec.outputs == ref.outputs
        assert vec.rounds == ref.rounds
        assert vec.round_messages == ref.round_messages

    def test_thm52_pipeline(self):
        from repro.graphs import star_forest_stack

        graph = star_forest_stack(6, 30, 3, seed=17)
        assert_same_run(*run_both("thm52", graph, arboricity=3))


class TestPipelineOutputParity:
    """PR 4 satellite: output-equality (not just round-count) assertions
    for the arboricity and star-partition pipelines at the pipeline API
    level — the per-edge/per-vertex dicts and the intermediate structures
    (H-partition index, induced orientation) must be identical under both
    engines, and the shared output must pass the invariant oracles."""

    @staticmethod
    def _under(engine_name, fn):
        from repro.engine import use_engine

        with use_engine(engine_name):
            return fn()

    @pytest.mark.parametrize("x", (1, 2))
    def test_star_partition_pipeline_outputs(self, x):
        from repro.core import star_partition_edge_coloring
        from repro.verify import verify_star_partition

        graph = random_regular(24, 8, seed=3)
        ref = self._under("reference", lambda: star_partition_edge_coloring(graph, x=x))
        vec = self._under("vector", lambda: star_partition_edge_coloring(graph, x=x))
        assert vec.coloring == ref.coloring  # the full per-edge dict
        assert vec.colors_used == ref.colors_used
        assert vec.palette_bound == ref.palette_bound
        assert vec.target_colors == ref.target_colors
        assert vec.rounds_actual == ref.rounds_actual
        # The shared output is a valid (p, 1)-star-partition of E(G).
        classes = {}
        for edge, color in ref.coloring.items():
            classes.setdefault(color, []).append(edge)
        assert verify_star_partition(graph, classes, q=1)

    def test_four_delta_pipeline_outputs(self):
        from repro.core import four_delta_edge_coloring

        graph = erdos_renyi(30, 0.2, seed=5)
        ref = self._under("reference", lambda: four_delta_edge_coloring(graph))
        vec = self._under("vector", lambda: four_delta_edge_coloring(graph))
        assert vec.coloring == ref.coloring
        assert vec.colors_used == ref.colors_used

    def test_h_partition_structures_identical(self):
        from repro.graphs import star_forest_stack
        from repro.substrates.hpartition import h_partition

        graph = star_forest_stack(6, 20, 2, seed=7)
        ref = self._under("reference", lambda: h_partition(graph, arboricity=2))
        vec = self._under("vector", lambda: h_partition(graph, arboricity=2))
        assert vec.index == ref.index  # the full per-vertex level dict
        assert vec.threshold == ref.threshold
        assert vec.num_levels == ref.num_levels
        # ... and the orientation both engines induce is the same digraph.
        assert ref.orientation().head == vec.orientation().head

    @pytest.mark.parametrize("algorithm", ("thm52", "thm53", "cor55"))
    def test_arboricity_pipeline_outputs(self, algorithm):
        from repro.core import (
            edge_color_bounded_arboricity,
            edge_color_delta_plus_o_delta,
            edge_color_orientation_connector,
        )

        fn = {
            "thm52": edge_color_bounded_arboricity,
            "thm53": edge_color_orientation_connector,
            "cor55": edge_color_delta_plus_o_delta,
        }[algorithm]
        from repro.graphs import star_forest_stack

        graph = star_forest_stack(5, 16, 2, seed=11)
        ref = self._under("reference", lambda: fn(graph, arboricity=2))
        vec = self._under("vector", lambda: fn(graph, arboricity=2))
        assert vec.coloring == ref.coloring
        assert vec.colors_used == ref.colors_used
        assert vec.palette_bound == ref.palette_bound
        assert vec.dhat == ref.dhat
        assert vec.rounds_actual == ref.rounds_actual

    def test_thm54_recursive_pipeline_outputs(self):
        from repro.core import edge_color_recursive

        graph = random_regular(20, 5, seed=9)
        ref = self._under(
            "reference", lambda: edge_color_recursive(graph, x=2, arboricity=3)
        )
        vec = self._under(
            "vector", lambda: edge_color_recursive(graph, x=2, arboricity=3)
        )
        assert vec.coloring == ref.coloring
        assert vec.colors_used == ref.colors_used
        assert vec.palette_bound == ref.palette_bound
