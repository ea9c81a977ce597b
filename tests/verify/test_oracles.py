"""The oracle table, the palette bound each spec carries, verdicts, and
the structural oracles."""

import dataclasses

import networkx as nx
import pytest

from repro import registry
from repro.errors import InvalidParameterError
from repro.graphs import random_regular, star_forest_stack
from repro.registry import AlgorithmRun, AlgorithmSpec
from repro.verify import OracleContext, verify_run
from repro.verify.oracles import ORACLES

BUILTIN_ORACLES = (
    "proper-vertex-coloring",
    "proper-edge-coloring",
    "palette-bound",
    "star-partition",
    "h-partition",
    "clique-decomposition",
    "defective-coloring",
)

#: Specs whose guarantee is asymptotic only (Linial's O(Delta^2), the
#: Delta^(1+eps) and constant-factor families): no exact palette claim.
ASYMPTOTIC_ONLY = ("linial", "weak", "weak-vertex", "split", "forest")


@pytest.fixture
def scratch_spec():
    """Register test-only specs; each is dropped again afterwards."""
    added = []

    def register(spec):
        added.append(spec.name)
        return registry.register(spec)

    yield register
    for name in added:
        registry._REGISTRY.pop(name, None)


class TestOracleTable:
    def test_table_holds_the_builtin_oracles(self):
        assert tuple(ORACLES) == BUILTIN_ORACLES

    def test_unknown_oracle_rejected_at_verify_time(self, scratch_spec):
        def runner(graph):
            return AlgorithmRun(
                name="_test-unknown", kind="decomposition", coloring={}, colors_used=0
            )

        scratch_spec(
            AlgorithmSpec(
                name="_test-unknown", family="baseline", kind="decomposition",
                summary="test-only", color_bound="-", rounds_bound="-",
                runner=runner, invariants=("no-such-oracle",),
            )
        )
        with pytest.raises(InvalidParameterError, match="unknown invariant oracle"):
            verify_run(nx.Graph(), runner(nx.Graph()))

    def test_every_algorithm_declares_known_oracles(self):
        for spec in registry.specs():
            assert set(spec.invariants) <= set(ORACLES), spec.name
            if spec.kind in ("edge-coloring", "vertex-coloring"):
                assert spec.invariants, f"{spec.name} has no applicable oracle"

    def test_checks_run_in_declared_order(self):
        g = random_regular(24, 6, seed=1)
        verdict = verify_run(g, registry.run("star4", g))
        assert verdict.checks == registry.get("star4").invariants == (
            "proper-edge-coloring",
            "palette-bound",
            "star-partition",
        )


class TestSpecPaletteBounds:
    def test_every_coloring_spec_claims_a_palette_or_is_asymptotic_only(self):
        bounded = {s.name for s in registry.specs() if s.palette_bound is not None}
        assert len(bounded) == 15
        for spec in registry.specs():
            if spec.kind == "decomposition":
                assert spec.name not in bounded
            else:
                assert (spec.name in bounded) != (spec.name in ASYMPTOTIC_ONLY), spec.name
            assert ("palette-bound" in spec.invariants) == (spec.name in bounded)

    def test_renamed_spec_keeps_its_palette_check(self, scratch_spec):
        # The claim travels with the spec, not with the name "star4".
        star4 = registry.get("star4")

        def runner(graph):
            return dataclasses.replace(star4.runner(graph), name="star4-renamed")

        scratch_spec(dataclasses.replace(star4, name="star4-renamed", runner=runner))
        g = random_regular(24, 6, seed=1)
        run = registry.run("star4-renamed", g)
        verdict = verify_run(g, run)
        assert verdict.status == "ok"
        assert verdict.checks == star4.invariants
        verdict = verify_run(g, dataclasses.replace(run, colors_used=10**6))
        assert verdict.status == "fail"
        assert verdict.violation.startswith("palette-bound: ")
        assert verdict == verify_run(
            g, dataclasses.replace(registry.run("star4", g), colors_used=10**6)
        )


class TestVerdicts:
    def test_ok_on_valid_run(self):
        g = random_regular(24, 6, seed=1)
        run = registry.run("star4", g)
        verdict = verify_run(g, run)
        assert verdict.status == "ok"
        assert verdict.ok
        assert verdict.violation is None
        assert "star-partition" in verdict.checks

    def test_fail_on_corrupted_properness(self):
        g = random_regular(24, 6, seed=1)
        run = registry.run("star4", g)
        edges = sorted(run.coloring)
        # Force a shared-endpoint conflict: recolor one edge like a
        # neighbor of its endpoint.
        u, v = edges[0]
        other = next(e for e in edges[1:] if u in e or v in e)
        run.coloring[edges[0]] = run.coloring[other]
        verdict = verify_run(g, run)
        assert verdict.status == "fail"
        assert "proper-edge-coloring" in verdict.violation

    def test_fail_on_palette_overflow(self):
        g = random_regular(24, 6, seed=1)
        run = registry.run("greedy", g)
        # Recolor every edge distinctly and keep colors_used honest: the
        # coloring genuinely exceeds the 2*Delta-1 claim.
        coloring = {e: i for i, e in enumerate(sorted(run.coloring))}
        run = dataclasses.replace(run, coloring=coloring, colors_used=len(coloring))
        verdict = verify_run(g, run)
        assert verdict.status == "fail"
        assert "palette-bound" in verdict.violation
        assert "claimed bound" in verdict.violation

    def test_fail_on_misreported_color_count(self):
        # The oracle recounts the coloring itself — a runner that
        # underreports colors_used cannot self-certify its bound.
        g = random_regular(24, 6, seed=1)
        run = registry.run("greedy", g)
        run = dataclasses.replace(run, colors_used=1)
        verdict = verify_run(g, run)
        assert verdict.status == "fail"
        assert "distinct colors" in verdict.violation

    def test_fail_on_missing_assignment(self):
        g = random_regular(24, 6, seed=1)
        run = registry.run("greedy-vertex", g)
        del run.coloring[next(iter(run.coloring))]
        verdict = verify_run(g, run)
        assert verdict.status == "fail"
        assert "uncolored" in verdict.violation

    def test_multiple_violations_joined(self):
        g = random_regular(24, 6, seed=1)
        run = registry.run("star4", g)
        del run.coloring[next(iter(sorted(run.coloring)))]
        verdict = verify_run(g, run)
        # Both the properness and the star-partition views notice.
        assert verdict.status == "fail"
        assert "proper-edge-coloring" in verdict.violation
        assert "star-partition" in verdict.violation


class TestPaletteBounds:
    def _bound(self, g, run, params=None):
        ctx = OracleContext(
            graph=g,
            kind=run.kind,
            coloring=run.coloring,
            colors_used=run.colors_used,
            extra=run.extra,
            params=params or {},
            algorithm=run.name,
        )
        return registry.get(run.name).palette_bound(ctx)

    def test_star4_bound_is_four_delta(self):
        g = random_regular(24, 6, seed=1)
        assert self._bound(g, registry.run("star4", g)) == 24

    def test_star_bound_scales_with_x(self):
        g = random_regular(24, 8, seed=3)
        run = registry.run("star", g, x=2)
        assert self._bound(g, run, {"x": 2}) == 2**3 * 8

    def test_section5_bound_comes_from_result_extra(self):
        g = star_forest_stack(4, 12, 2, seed=0)
        run = registry.run("thm52", g)
        bound = self._bound(g, run)
        assert bound == run.extra["palette_bound"]
        assert run.colors_used <= bound

    def test_asymptotic_only_algorithms_declare_no_bound(self):
        g = random_regular(24, 6, seed=1)
        run = registry.run("linial", g)
        assert registry.get("linial").palette_bound is None
        # ... and no palette oracle is declared: the verdict is ok and
        # its checks provenance does NOT claim a palette check ran.
        verdict = verify_run(g, run)
        assert verdict.status == "ok"
        assert "palette-bound" not in verdict.checks
        assert "proper-vertex-coloring" in verdict.checks

    def test_bound_of_none_leaves_the_check_out(self):
        g = star_forest_stack(4, 12, 2, seed=0)
        run = registry.run("thm52", g)
        run.extra.pop("palette_bound")
        verdict = verify_run(g, run)
        assert verdict.status == "ok"
        assert verdict.checks == ("proper-edge-coloring",)

    def test_empty_graph_bounds(self):
        g = nx.Graph()
        run = registry.run("greedy", g)
        verdict = verify_run(g, run)
        assert verdict.status == "ok"


class TestStructuralOracles:
    def test_h_partition_fail_on_corrupted_levels(self):
        g = star_forest_stack(4, 8, 2, seed=0)
        run = registry.run("h-partition", g, arboricity=2)
        # Collapse every vertex into level 1: the level-degree bound breaks
        # at any vertex of degree > threshold.
        for v in run.coloring:
            run.coloring[v] = 1
        verdict = verify_run(g, run, params={"arboricity": 2})
        assert verdict.status == "fail"
        assert "h-partition" in verdict.violation

    def test_missing_threshold_extra_fails_loudly(self):
        g = star_forest_stack(4, 8, 2, seed=0)
        run = registry.run("h-partition", g, arboricity=2)
        run.extra.pop("threshold")
        verdict = verify_run(g, run)
        # The oracle cannot silently pass when its certificate is missing.
        assert verdict.status == "fail"
        assert "threshold" in verdict.violation

    def test_skip_when_algorithm_declares_nothing(self, scratch_spec):
        def _runner(graph):
            return AlgorithmRun(
                name="_test-decomp", kind="decomposition", coloring={}, colors_used=0
            )

        scratch_spec(
            AlgorithmSpec(
                name="_test-decomp",
                family="baseline",
                kind="decomposition",
                summary="test-only",
                color_bound="-",
                rounds_bound="-",
                runner=_runner,
                invariants=(),
            )
        )
        g = nx.Graph()
        verdict = verify_run(g, _runner(g))
        assert verdict.status == "skip"
        assert verdict.checks == ()
