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

from repro import obs, registry
from repro.engine import EngineFallbackWarning, get_engine
from repro.graphs import (
    cycle,
    erdos_renyi,
    line_graph_with_cover,
    path,
    planar_grid,
    random_regular,
    random_tree,
)
from repro.obs import render_events
from repro.substrates.linial import LinialAlgorithm, linial_coloring
from repro.substrates.reduction import (
    BasicReductionAlgorithm,
    BlockedReductionAlgorithm,
)
from repro.types import color_classes


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

    @pytest.mark.parametrize("graph_name", PARITY_GRAPHS)
    def test_basic_reduction(self, graph_name):
        graph = small_graph(graph_name)
        self.assert_runs_equal(graph, BasicReductionAlgorithm(), _reduction_extras(graph))

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

    @pytest.mark.parametrize("graph_name", PARITY_GRAPHS)
    def test_linial(self, graph_name):
        graph = small_graph(graph_name)
        self.assert_runs_equal(graph, LinialAlgorithm(), _spread_ids(graph))


def _spread_ids(graph):
    """Linial extras with ids from an n^2 space, so the refinement has
    rounds to do even on a handful of nodes."""
    ordered = sorted(graph.nodes(), key=repr)
    n = len(ordered)
    return {"initial_coloring": {v: n * i for i, v in enumerate(ordered)}, "m0": n * n}


def _reduction_extras(graph):
    ordered = sorted(graph.nodes(), key=repr)
    delta = max((d for _, d in graph.degree()), default=0)
    return {
        "coloring": {v: i for i, v in enumerate(ordered)},
        "m": len(ordered),
        "target": delta + 1,
    }


class _UnprogrammedReduction(BasicReductionAlgorithm):
    """The basic reduction under a name with no registered program, so
    every vector run of it is delegated to the reference scheduler."""

    name = "basic-reduction-unprogrammed"


class TestDelegatedParity:
    """A delegated vector run is the reference run: same outputs, rounds
    and per-round message profile, labeled ``reference`` and disclosed
    as a ``no-program`` fallback."""

    @pytest.mark.parametrize("graph_name", PARITY_GRAPHS)
    def test_unprogrammed_run_is_the_reference_run(self, graph_name):
        graph = small_graph(graph_name)
        extras = _reduction_extras(graph)
        reference = get_engine("reference").run(graph, _UnprogrammedReduction(), extras=dict(extras))
        with obs.collect() as runtime:
            with pytest.warns(EngineFallbackWarning, match="no-program"):
                vector = get_engine("vector").run(
                    graph, _UnprogrammedReduction(), extras=dict(extras)
                )
        assert vector.engine == reference.engine == "reference"
        assert vector.outputs == reference.outputs
        assert vector.rounds == reference.rounds
        assert vector.messages == reference.messages
        assert vector.round_messages == reference.round_messages
        counters = runtime.snapshot()["counters"]
        assert counters.get("engine.fallback[reason=no-program]") == 1
        # the delegate is the spec: same colors as the programmed run
        programmed = get_engine("vector").run(graph, BasicReductionAlgorithm(), extras=dict(extras))
        assert programmed.engine == "vector"
        assert programmed.outputs == vector.outputs
        assert programmed.round_messages == vector.round_messages


def _round_points(engine, graph, algorithm, extras):
    sink = obs.MemorySink()
    with obs.collect(trace=sink):
        result = get_engine(engine).run(graph, algorithm, extras=dict(extras))
    points = [e for e in sink.events if e.get("name") == "engine.round"]
    return result, points


class TestRoundPoints:
    """The per-round view of a run is its ``engine.round`` trace points:
    one per executed round, carrying the round's message count, the same
    on both engines."""

    @pytest.mark.parametrize("graph_name", PARITY_GRAPHS)
    def test_points_follow_the_round_profile(self, graph_name):
        graph = small_graph(graph_name)
        extras = _reduction_extras(graph)
        seen = {}
        for engine in ("reference", "vector"):
            result, points = _round_points(engine, graph, BasicReductionAlgorithm(), extras)
            assert result.engine == engine
            assert len(points) == result.rounds == len(result.round_messages)
            assert [p["fields"]["engine"] for p in points] == [engine] * result.rounds
            seen[engine] = [(p["fields"]["round"], p["fields"]["sent"]) for p in points]
            assert seen[engine] == list(enumerate(result.round_messages, start=1))
        assert seen["vector"] == seen["reference"]

    @pytest.mark.parametrize("engine", ("reference", "vector"))
    def test_rendered_rounds(self, engine):
        graph = small_graph("petersen")
        result, points = _round_points(engine, graph, LinialAlgorithm(), _spread_ids(graph))
        assert result.rounds > 0
        lines = render_events(points, name_prefix="engine.").splitlines()
        assert lines[0] == f"process {points[0]['pid']}: {result.rounds} events (0 spans)"
        body = lines[1:]
        assert len(body) == result.rounds
        for round_no, (line, sent) in enumerate(zip(body, result.round_messages), start=1):
            assert line.endswith(f"engine.round  engine={engine} round={round_no} sent={sent}")


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
        classes = color_classes(ref.coloring)
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
