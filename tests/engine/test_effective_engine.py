"""Effective-engine provenance: the vector engine's delegations (tracer
runs, algorithms with no program) may not let any row claim a vector
execution that ran on the reference scheduler."""

import warnings

import networkx as nx
import pytest

from repro import registry
from repro.engine import (
    EngineFallbackWarning,
    get_engine,
    record_engine_runs,
)
from repro.local import NodeAlgorithm
from repro.local.trace import Tracer
from repro.substrates.linial import LinialAlgorithm

#: a path on 4 nodes, dispatched to the linial program
_LINIAL = {"initial_coloring": {v: v for v in range(4)}, "m0": 4}


class _OneShot(NodeAlgorithm):
    def initialize(self, node, ctx):
        node.state["output"] = node.id

    def step(self, node, inbox, round_no, ctx):  # pragma: no cover
        node.halt()


class TestTracerFallback:
    def test_warning_and_engine_field(self):
        graph = nx.path_graph(4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = get_engine("vector").run(graph, _OneShot(), tracer=Tracer())
        assert any(issubclass(w.category, EngineFallbackWarning) for w in caught)
        assert result.engine == "reference"

    def test_no_warning_for_a_dispatched_run(self):
        graph = nx.path_graph(4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = get_engine("vector").run(graph, LinialAlgorithm(), extras=_LINIAL)
        assert not any(
            issubclass(w.category, EngineFallbackWarning) for w in caught
        )
        assert result.engine == "vector"

    def test_unprogrammed_algorithm_warns_and_labels_reference(self):
        # no program, no array path: the run is delegated, like a tracer run
        graph = nx.path_graph(4)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = get_engine("vector").run(graph, _OneShot())
        assert any(issubclass(w.category, EngineFallbackWarning) for w in caught)
        assert result.engine == "reference"

    def test_reference_engine_labels_itself(self):
        result = get_engine("reference").run(nx.path_graph(3), _OneShot())
        assert result.engine == "reference"


class TestRecordEngineRuns:
    def test_collects_in_first_run_order(self):
        graph = nx.path_graph(4)
        with record_engine_runs() as ran:
            get_engine("vector").run(graph, LinialAlgorithm(), extras=_LINIAL)
            get_engine("reference").run(graph, _OneShot())
            get_engine("vector").run(graph, LinialAlgorithm(), extras=_LINIAL)
        assert ran == ["vector", "reference"]

    def test_fallback_records_the_delegate(self):
        with record_engine_runs() as ran:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EngineFallbackWarning)
                get_engine("vector").run(nx.path_graph(3), _OneShot(), tracer=Tracer())
        assert ran == ["reference"]

    def test_no_sink_outside_scope(self):
        # plain runs must not crash or leak into a finished recording
        with record_engine_runs() as ran:
            pass
        get_engine("vector").run(nx.path_graph(3), _OneShot())
        assert ran == []


class TestCampaignRowDisclosure:
    @pytest.fixture
    def traced_algorithm(self):
        """A registered algorithm whose runner insists on a tracer, so a
        vector cell executes on reference."""
        name = "_test-traced"

        def runner(graph):
            result = get_engine("vector").run(graph, _OneShot(), tracer=Tracer())
            coloring = {v: 0 for v in graph.nodes()}
            return registry.AlgorithmRun(
                name=name, kind="decomposition", coloring=coloring,
                colors_used=1, extra={"engine_seen": result.engine},
            )

        spec = registry.AlgorithmSpec(
            name=name, family="baseline", kind="decomposition",
            summary="test-only tracer-forcing runner", color_bound="1",
            rounds_bound="1", runner=runner,
        )
        registry._ensure_loaded()
        registry._REGISTRY[name] = spec
        yield name
        registry._REGISTRY.pop(name, None)

    def test_row_extra_discloses_effective_engine(self, traced_algorithm):
        from repro.analysis.campaign import _execute_cell

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EngineFallbackWarning)
            row = _execute_cell(
                {
                    "algorithm": traced_algorithm,
                    "workload": "planar-grid",
                    "workload_params": {"rows": 3, "cols": 3},
                    "seed": 0,
                    "algo_params": {},
                    "engine": "vector",
                    "verify": False,
                }
            )
        assert row["error"] is None
        assert row["engine"] == "vector"  # the requested (and key-hashed) engine
        assert row["extra"]["effective_engine"] == "reference"

    def test_honest_cells_carry_no_disclosure(self):
        from repro.analysis.campaign import _execute_cell

        row = _execute_cell(
            {
                "algorithm": "linial",
                "workload": "planar-grid",
                "workload_params": {"rows": 3, "cols": 3},
                "seed": 0,
                "algo_params": {},
                "engine": "vector",
                "verify": True,
            }
        )
        assert row["error"] is None
        assert "effective_engine" not in row["extra"]


class TestSection5CellsRunOnPrograms:
    """A Section 5 cell under the vector engine runs array code only:
    every Lemma 5.1 merge dispatches to the cross-merge program."""

    @staticmethod
    def _cell(algorithm, engine):
        from repro.analysis.campaign import _execute_cell

        return _execute_cell(
            {
                "algorithm": algorithm,
                "workload": "star-forest-stack",
                # large enough that thm53's connector has cross edges
                "workload_params": {"n_centers": 12, "leaves_per_center": 20, "a": 3},
                "seed": 0,
                "algo_params": {},
                "engine": engine,
                "verify": True,
            }
        )

    @pytest.mark.parametrize("algorithm", ["thm52", "thm53"])
    def test_vector_cell_dispatches_every_run(self, algorithm):
        vector = self._cell(algorithm, "vector")
        reference = self._cell(algorithm, "reference")
        assert vector["error"] is None and vector["verdict"] == "ok"
        counters = vector["metrics"]["counters"]
        assert counters.get("kernel.dispatch[kernel=cross-merge]", 0) >= 1
        assert not any(key.startswith("engine.steps") for key in counters)
        assert not any(
            key.startswith(("kernel.fallback", "engine.fallback", "warnings."))
            for key in counters
        ), sorted(counters)
        assert "effective_engine" not in vector["extra"]
        for column in ("colors_used", "rounds_actual", "rounds_modeled", "extra"):
            assert vector[column] == reference[column]
