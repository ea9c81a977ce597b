"""VectorEngine semantics: runs with no array path (algorithms with no
program, declined inputs) are delegated to the reference scheduler and
disclosed; round limits; engine selection."""

from __future__ import annotations

import networkx as nx
import pytest

from repro import obs
from repro.engine import (
    EngineFallbackWarning,
    ReferenceEngine,
    VectorEngine,
    available_engines,
    current_engine,
    current_engine_name,
    get_engine,
    record_engine_runs,
    use_engine,
)
from repro.errors import InvalidParameterError, RoundLimitExceeded, SimulationError
from repro.core.arboricity import CrossMergeAlgorithm
from repro.local import NodeAlgorithm, run_on_graph
from repro.substrates.linial import LinialAlgorithm


class OneShot(NodeAlgorithm):
    """No registered program: every vector run of it is delegated."""

    def initialize(self, node, ctx):
        node.state["output"] = node.id
        node.broadcast(node.id)

    def step(self, node, inbox, round_no, ctx):
        node.halt()


def _linial_extras(graph):
    return {"initial_coloring": {v: v for v in graph}, "m0": graph.number_of_nodes()}


_MERGE_D_TOO_LARGE = {
    "side": {v: "AB"[v % 2] for v in range(6)},
    "labels": {0: {1: 1}, 2: {1: 1, 2: 3}, 4: {1: 3, 2: 5}},
    "palette": 4,
    "d": 3,
}


class TestDelegation:
    """Every run without an array path executes on the reference
    scheduler, disclosed four ways: the warning, the
    ``engine.fallback[reason=...]`` counter, ``result.engine`` and the
    recorded engine runs."""

    @pytest.mark.parametrize(
        "algorithm,extras,reason",
        [
            (OneShot(), None, "no-program"),
            # d above every A node's label count: the program declines
            (CrossMergeAlgorithm(), _MERGE_D_TOO_LARGE, "declined"),
        ],
        ids=["no-program", "declined"],
    )
    def test_delegation_is_disclosed(self, algorithm, extras, reason):
        graph = nx.path_graph(6)
        with obs.collect() as runtime, record_engine_runs() as ran:
            with pytest.warns(EngineFallbackWarning, match=f"\\({reason}\\)"):
                result = get_engine("vector").run(graph, algorithm, extras=extras)
        reference = get_engine("reference").run(graph, algorithm, extras=extras)
        assert result.engine == "reference"
        assert ran == ["reference"]
        assert result.outputs == reference.outputs
        assert result.round_messages == reference.round_messages
        counters = runtime.snapshot()["counters"]
        assert counters.get(f"engine.fallback[reason={reason}]") == 1
        assert not any(k.startswith("kernel.dispatch") for k in counters)

    def test_dispatch_is_not_a_delegation(self):
        graph = nx.path_graph(6)
        with obs.collect() as runtime, record_engine_runs() as ran:
            result = get_engine("vector").run(graph, LinialAlgorithm(), extras=_linial_extras(graph))
        assert result.engine == "vector"
        assert ran == ["vector"]
        counters = runtime.snapshot()["counters"]
        assert counters.get("kernel.dispatch[kernel=linial]") == 1
        assert not any(k.startswith("engine.fallback") for k in counters)
        assert "engine.steps[engine=vector]" not in counters

    def test_dispatched_run_traces_its_rounds_like_the_reference(self):
        # the per-round message profile becomes engine.round points on
        # both engines, so a vector cell's timeline keeps its round lanes
        graph = nx.cycle_graph(30)
        # ids from a 30^2 space: Linial has rounds to do
        extras = {"initial_coloring": {v: 30 * v for v in graph}, "m0": 900}
        points = {}
        for engine in ("reference", "vector"):
            sink = obs.MemorySink()
            with obs.collect(trace=sink):
                result = get_engine(engine).run(graph, LinialAlgorithm(), extras=extras)
            points[engine] = [
                (e["fields"]["round"], e["fields"]["sent"])
                for e in sink.events
                if e.get("name") == "engine.round"
            ]
        assert points["vector"] == points["reference"]
        assert points["vector"] == list(enumerate(result.round_messages, start=1))
        assert result.rounds > 0


class TestFeatureParity:
    def test_round_limit(self):
        graph = nx.path_graph(4)

        class Forever(NodeAlgorithm):
            def initialize(self, node, ctx):
                pass

            def step(self, node, inbox, round_no, ctx):
                pass

        with pytest.raises(RoundLimitExceeded):
            get_engine("vector").run(graph, Forever(), max_rounds=25)

    def test_self_loop_rejected(self):
        graph = nx.Graph([(0, 0), (0, 1)])
        with pytest.raises(SimulationError):
            get_engine("vector").run(graph, NodeAlgorithm())

    def test_empty_graph(self):
        result = get_engine("vector").run(nx.Graph(), NodeAlgorithm())
        assert result.rounds == 0
        assert result.messages == 0
        assert result.outputs == {}


class TestEngineSelection:
    def test_available(self):
        assert {"reference", "vector"} <= set(available_engines())

    def test_get_engine_types(self):
        assert isinstance(get_engine("reference"), ReferenceEngine)
        assert isinstance(get_engine("vector"), VectorEngine)

    def test_unknown_engine(self):
        with pytest.raises(InvalidParameterError):
            get_engine("warp")

    def test_use_engine_scopes(self):
        assert current_engine_name() == "reference"
        with use_engine("vector"):
            assert current_engine_name() == "vector"
            assert isinstance(current_engine(), VectorEngine)
            with use_engine("reference"):
                assert current_engine_name() == "reference"
            assert current_engine_name() == "vector"
        assert current_engine_name() == "reference"

    def test_use_engine_none_is_noop(self):
        with use_engine("vector"):
            with use_engine(None) as engine:
                assert isinstance(engine, VectorEngine)

    def test_run_on_graph_follows_use_engine(self):
        graph = nx.path_graph(6)
        with use_engine("reference"):
            ref = run_on_graph(graph, LinialAlgorithm(), extras=_linial_extras(graph))
        with use_engine("vector"):
            vec = run_on_graph(graph, LinialAlgorithm(), extras=_linial_extras(graph))
        assert ref.outputs == vec.outputs
        assert (ref.engine, vec.engine) == ("reference", "vector")
