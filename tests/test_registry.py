"""The unified algorithm registry: metadata, lookup, dispatch, guards."""

import pytest

from repro import registry
from repro.errors import InvalidParameterError
from repro.graphs import random_regular


@pytest.fixture
def graph():
    return random_regular(16, 4, seed=1)


class TestCatalog:
    def test_core_families_registered(self):
        names = set(registry.names())
        assert {
            "star4", "star", "cd", "thm52", "thm53", "thm54", "cor55",
            "vertex-arboricity",
        } <= names
        assert {"vizing", "greedy", "split", "forest", "weak", "randomized"} <= names
        assert {"linial", "oracle-vertex", "oracle-edge", "h-partition"} <= names

    def test_family_filter(self):
        for spec in registry.specs(family="core"):
            assert spec.family == "core"
        assert registry.names(family="baseline")
        assert registry.names(family="substrate")

    def test_kind_filter(self):
        for spec in registry.specs(kind="edge-coloring"):
            assert spec.kind == "edge-coloring"
        assert "vertex-arboricity" in registry.names(kind="vertex-coloring")
        assert "h-partition" in registry.names(kind="decomposition")

    def test_specs_carry_guarantees(self):
        spec = registry.get("star4")
        assert spec.color_bound == "4*Delta"
        assert "Delta" in spec.rounds_bound
        thm52 = registry.get("thm52")
        assert "bounded-arboricity" in thm52.requires

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError, match="unknown algorithm"):
            registry.get("quantum-annealer")


class TestDispatch:
    def test_run_returns_normalized_result(self, graph):
        run = registry.run("star4", graph)
        assert run.name == "star4"
        assert run.kind == "edge-coloring"
        assert run.colors_used >= 4  # Delta = 4
        assert len(run.coloring) == graph.number_of_edges()
        assert run.rounds_actual is not None

    def test_run_with_params(self, graph):
        run = registry.run("star", graph, x=2)
        assert run.extra["x"] == 2

    def test_unknown_param_rejected(self, graph):
        with pytest.raises(InvalidParameterError, match="does not accept"):
            registry.run("star4", graph, bogus=1)

    def test_engine_selection(self, graph):
        ref = registry.run("thm52", graph, engine="reference", arboricity=3)
        vec = registry.run("thm52", graph, engine="vector", arboricity=3)
        assert ref.coloring == vec.coloring

    @pytest.mark.parametrize("name", ["greedy", "greedy-vertex", "vizing"])
    def test_centralized_baselines(self, graph, name):
        # a centralized baseline reports no rounds; the spec carries no
        # separate flag for it
        run = registry.run(name, graph)
        assert run.rounds_actual is None

    def test_spec_has_no_representation_fields(self):
        import dataclasses

        fields = {f.name for f in dataclasses.fields(registry.AlgorithmSpec)}
        assert not fields & {"compact_ok", "distributed"}


class TestRegistration:
    def test_duplicate_name_rejected(self):
        spec = registry.get("star4")
        clone = registry.AlgorithmSpec(
            name="star4",
            family="core",
            kind="edge-coloring",
            summary="imposter",
            color_bound="?",
            rounds_bound="?",
            runner=lambda graph: None,
        )
        with pytest.raises(InvalidParameterError, match="registered twice"):
            registry.register(clone)
        # idempotent re-registration of the same spec object is fine
        registry.register(spec)

    def test_bad_family_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown family"):
            registry.register(
                registry.AlgorithmSpec(
                    name="x-alg",
                    family="experimental",
                    kind="edge-coloring",
                    summary="",
                    color_bound="",
                    rounds_bound="",
                    runner=lambda graph: None,
                )
            )

    def test_mislabeled_runner_rejected(self, graph):
        registry.register(
            registry.AlgorithmSpec(
                name="test-mislabeled",
                family="baseline",
                kind="edge-coloring",
                summary="returns the wrong name",
                color_bound="-",
                rounds_bound="-",
                runner=lambda g: registry.AlgorithmRun(
                    name="something-else", kind="edge-coloring", coloring={}, colors_used=0
                ),
            )
        )
        try:
            with pytest.raises(InvalidParameterError, match="mislabeled"):
                registry.run("test-mislabeled", graph)
        finally:
            registry._REGISTRY.pop("test-mislabeled", None)

