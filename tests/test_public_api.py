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
