"""Tests for the top-level lazy API surface."""

import importlib
import inspect
import pkgutil

import pytest

import repro


class TestLazyExports:
    def test_headline_algorithms_reachable(self):
        from repro.graphs import random_regular

        g = random_regular(12, 4, seed=1)
        result = repro.four_delta_edge_coloring(g)
        repro.verify_edge_coloring(g, result.coloring)

    def test_every_lazy_name_resolves(self):
        for name in repro._LAZY_EXPORTS:
            assert getattr(repro, name) is not None

    def test_dir_lists_lazy_names(self):
        listing = dir(repro)
        assert "cd_coloring" in listing
        assert "oracle_vertex_coloring" in listing
        assert "oracle_edge_coloring" in listing

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_error_hierarchy_exported(self):
        assert issubclass(repro.ColoringError, repro.ReproError)
        assert issubclass(repro.RoundLimitExceeded, repro.SimulationError)


def _pipeline_functions():
    """Every public function defined in ``repro.core``, ``repro.baselines``
    and ``repro.substrates``, as ``(qualified name, function)``."""
    found = []
    for package in ("repro.core", "repro.baselines", "repro.substrates"):
        pkg = importlib.import_module(package)
        for info in pkgutil.iter_modules(pkg.__path__):
            module = importlib.import_module(f"{package}.{info.name}")
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ == module.__name__ and not name.startswith("_"):
                    found.append((f"{module.__name__}.{name}", fn))
    return found


class TestPipelineSignatures:
    def test_no_function_takes_an_oracle_palette_or_partition(self):
        offenders = [
            (name, param)
            for name, fn in _pipeline_functions()
            for param in inspect.signature(fn).parameters
            if param in ("oracle", "palette_size", "partition")
        ]
        assert offenders == []

    def test_only_cd_coloring_takes_trim(self):
        takers = [
            name for name, fn in _pipeline_functions()
            if "trim" in inspect.signature(fn).parameters
        ]
        assert takers == ["repro.core.cd_coloring.cd_coloring"]

    def test_oracle_is_two_functions(self):
        from repro.substrates import oracle

        assert not hasattr(oracle, "ColoringOracle")
        assert not hasattr(repro, "ColoringOracle")
        for fn in (oracle.oracle_vertex_coloring, oracle.oracle_edge_coloring):
            assert list(inspect.signature(fn).parameters) == [
                "graph", "initial", "ledger", "label",
            ]


class TestEngineContract:
    """An engine runs a node algorithm on a graph in the failure-free
    LOCAL model: no crash schedule, bandwidth tracking or tracer."""

    def test_engines_are_the_fixed_pair(self):
        from repro.engine import available_engines, get_engine

        assert available_engines() == ["reference", "vector"]
        for name in available_engines():
            # one instance per name, built on first use
            assert get_engine(name) is get_engine(name)
            assert get_engine(name).name == name

    @pytest.mark.parametrize("name", ["abstract", "reference", "vector"])
    def test_every_engine_run_takes_the_four_parameters(self, name):
        from repro.engine import Engine, get_engine

        run = Engine.run if name == "abstract" else get_engine(name).run
        params = [p for p in inspect.signature(run).parameters if p != "self"]
        assert params == ["graph", "algorithm", "extras", "max_rounds"]

    def test_network_run_takes_algorithm_ctx_and_max_rounds(self):
        from repro.local import Network

        params = [p for p in inspect.signature(Network.run).parameters if p != "self"]
        assert params == ["algorithm", "ctx", "max_rounds"]

    def test_run_result_fields(self):
        import dataclasses

        from repro.local import RunResult

        assert [f.name for f in dataclasses.fields(RunResult)] == [
            "rounds", "messages", "outputs", "round_messages", "engine",
        ]

    def test_run_on_graph_takes_no_engine(self):
        from repro.local import run_on_graph

        assert "engine" not in inspect.signature(run_on_graph).parameters

    def test_removed_names_are_gone(self):
        import repro.engine
        import repro.local
        import repro.obs

        for module, name in (
            (repro.local, "Tracer"),
            (repro.local, "estimate_payload_bits"),
            (repro.obs, "render_rounds"),
            (repro.engine, "register_engine"),
        ):
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in module.__all__
        for gone in ("repro.local.congest", "repro.local.trace"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(gone)
