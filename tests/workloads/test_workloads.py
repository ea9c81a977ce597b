"""The workload registry: specs, building, canonicalization and JSON
round-trips."""

import json

import pytest

from repro import workloads
from repro.errors import InvalidParameterError
from repro.graphs import max_degree


class TestRegistry:
    def test_builtin_names(self):
        names = workloads.names()
        assert {
            "random-regular",
            "erdos-renyi",
            "star-forest-stack",
            "power-law",
            "geometric",
            "forest-union",
            "shared-cliques",
            "fat-tree",
        } <= set(names)
        assert names == sorted(names)

    def test_family_filter(self):
        arboricity = workloads.names(family="arboricity")
        assert "star-forest-stack" in arboricity
        assert "random-regular" not in arboricity
        for spec in workloads.specs(family="adversarial"):
            assert spec.family == "adversarial"

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError, match="unknown workload"):
            workloads.get("mobius-donut")

    def test_every_builtin_builds_with_defaults(self):
        for spec in workloads.specs():
            if spec.family in workloads.EXCLUDED_FROM_DEFAULT_GRID:
                continue  # >= 50k/1M nodes at defaults; shrunk builds below
            graph = workloads.build(spec.name, seed=0)
            assert graph.number_of_nodes() > 0, spec.name

    def test_scale_tier_registered(self):
        names = workloads.names(family="scale")
        assert {
            "scale-regular",
            "scale-power-law",
            "scale-forest-stack",
            "scale-grid",
        } <= set(names)

    def test_scale_defaults_reach_fifty_thousand_nodes(self):
        """The registered defaults describe >= 50k-node instances (checked
        arithmetically — building them belongs to campaigns/benchmarks)."""
        regular = workloads.get("scale-regular").defaults
        assert regular["n"] >= 50_000
        hubs = workloads.get("scale-power-law").defaults
        assert hubs["n"] >= 50_000
        stack = workloads.get("scale-forest-stack").defaults
        assert stack["n_centers"] * (1 + stack["leaves_per_center"]) >= 50_000
        grid = workloads.get("scale-grid").defaults
        assert grid["rows"] * grid["cols"] >= 50_000

    def test_scale_tier_builds_shrunk(self):
        """Every scale factory works mechanically at a shrunk size; the
        full-size builds run only in campaigns that name them."""
        shrunk = {
            "scale-regular": {"n": 40, "d": 4},
            "scale-power-law": {"n": 40, "attach": 2},
            "scale-forest-stack": {"n_centers": 4, "leaves_per_center": 9, "a": 2},
            "scale-grid": {"rows": 5, "cols": 8},
        }
        for name, params in shrunk.items():
            graph = workloads.build(name, params, seed=0)
            assert graph.number_of_nodes() == 40, name

    def test_xl_tier_builds_shrunk_and_compact(self):
        """The xl factories work mechanically at a shrunk size and return
        CompactGraph; perfbench's xl-linial workload builds the 1M-node
        grid."""
        from repro.graphcore import CompactGraph

        shrunk = {
            "xl-regular": {"n": 40, "d": 4},
            "xl-power-law": {"n": 40, "attach": 2},
            "xl-forest-stack": {"n_centers": 4, "leaves_per_center": 9, "a": 2},
            "xl-grid": {"rows": 5, "cols": 8},
        }
        for name, params in shrunk.items():
            assert workloads.get(name).compact
            graph = workloads.build(name, params, seed=0)
            assert isinstance(graph, CompactGraph), name
            assert graph.number_of_nodes() == 40, name

    def test_registering_same_name_twice_is_an_error(self):
        spec = workloads.get("torus")
        with pytest.raises(InvalidParameterError, match="registered twice"):
            workloads.register(
                workloads.WorkloadSpec(
                    name="torus",
                    family="topology",
                    summary="imposter",
                    factory=lambda: None,
                    defaults={},
                )
            )
        assert workloads.get("torus") is spec

    def test_unknown_family_is_an_error(self):
        with pytest.raises(InvalidParameterError, match="unknown family"):
            workloads.register(
                workloads.WorkloadSpec(
                    name="test-custom",
                    family="custom",
                    summary="not a registered family",
                    factory=lambda: None,
                )
            )
        assert "test-custom" not in workloads.names()


class TestBuild:
    def test_overrides_merge_into_defaults(self):
        graph = workloads.build("random-regular", {"n": 20})
        assert graph.number_of_nodes() == 20
        assert max_degree(graph) == 8  # the default d survived

    def test_rejected_params(self):
        with pytest.raises(InvalidParameterError, match="rejected parameters"):
            workloads.build("random-regular", {"bogus": 5})

    def test_seed_determinism(self):
        g1 = workloads.build("erdos-renyi", {"n": 30, "p": 0.2}, seed=5)
        g2 = workloads.build("erdos-renyi", {"n": 30, "p": 0.2}, seed=5)
        g3 = workloads.build("erdos-renyi", {"n": 30, "p": 0.2}, seed=6)
        assert set(g1.edges()) == set(g2.edges())
        assert set(g1.edges()) != set(g3.edges())

    def test_unseeded_workloads_ignore_seed(self):
        g1 = workloads.build("planar-grid", seed=0)
        g2 = workloads.build("planar-grid", seed=99)
        assert set(g1.edges()) == set(g2.edges())

    def test_new_families_have_expected_shape(self):
        hubs = workloads.build("power-law", {"n": 40, "attach": 2}, seed=1)
        assert hubs.number_of_edges() == (40 - 2) * 2
        gadget = workloads.build("shared-cliques")
        assert gadget.degree[0] == 4 * 4  # num_cliques * (clique_size - 1)

    @pytest.mark.parametrize("n,radius", [(64, 0.25), (16, 0.35), (40, 0.6)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 17])
    def test_geometric_is_networkx_random_geometric_graph(self, n, radius, seed):
        # same positions, adjacency and edge order as networkx's builder
        # (which takes its scipy KD-tree path when scipy is installed)
        import networkx as nx

        ours = workloads.build("geometric", {"n": n, "radius": radius}, seed=seed)
        theirs = nx.random_geometric_graph(n, radius, seed=seed)
        assert list(ours.nodes(data=True)) == list(theirs.nodes(data=True))
        assert [list(ours.adj[v]) for v in ours] == [list(theirs.adj[v]) for v in theirs]


class TestCanonicalization:
    def test_canonical_params_resolve_defaults(self):
        assert workloads.canonical_params("random-regular") == {"d": 8, "n": 64}
        assert workloads.canonical_params("random-regular", {"n": 16}) == {
            "d": 8,
            "n": 16,
        }

    def test_canonical_instance_sorted_and_total(self):
        instance = workloads.canonical_instance("random-regular", {}, seed=3)
        assert instance == {
            "workload": "random-regular",
            "params": {"d": 8, "n": 64},
            "seed": 3,
        }

    def test_canonical_instance_normalizes_unseeded_seed(self):
        """Deterministic topologies ignore seeds, so every seed denotes
        the same instance — the canonical description (and therefore the
        run key) must not vary with it."""
        base = workloads.canonical_instance("torus", {}, seed=0)
        assert base["seed"] == 0
        for seed in (1, 2, 99):
            assert workloads.canonical_instance("torus", {}, seed=seed) == base

    def test_unseeded_run_keys_are_seed_invariant(self):
        """Regression: ``--seeds 0,1,2`` over an unseeded workload used to
        store one identical computation under three distinct keys (three
        computations, zero shared hits)."""
        from repro.store import run_key

        keys = {
            run_key("greedy", {}, "torus", {}, seed=seed, engine="reference")
            for seed in (0, 1, 2)
        }
        assert len(keys) == 1
        seeded = {
            run_key("greedy", {}, "erdos-renyi", {}, seed=seed, engine="reference")
            for seed in (0, 1, 2)
        }
        assert len(seeded) == 3

    def test_json_round_trip(self):
        text = workloads.to_json("random-regular", {"n": 16, "d": 4}, seed=2)
        payload = json.loads(text)
        assert payload["workload"] == "random-regular"
        graph = workloads.from_json(text)
        direct = workloads.build("random-regular", {"n": 16, "d": 4}, seed=2)
        assert set(graph.edges()) == set(direct.edges())

    def test_malformed_json(self):
        with pytest.raises(InvalidParameterError, match="malformed workload JSON"):
            workloads.from_json("{not json")
