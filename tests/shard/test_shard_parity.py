"""Sharded-execution parity: running under a sharding scope must be
bit-identical to the unsharded engines for every compact-capable
algorithm on every builtin workload family.

Every registered kernel is a shard program (linial,
defective-refinement, h-partition, cole-vishkin, basic-reduction,
kw-phase, cross-merge) and executes shard-by-shard — cross-merge only on
a shard with no halo; everything else falls through to
the normal engine path with a disclosed ``shard.fallback`` — either way
the observable result must not change. The dispatch tests pin down that
the programmed algorithms really do take the sharded path (parity alone
would be vacuously satisfied by a scope that always falls back)."""

import pytest

from repro import obs, registry, workloads
from repro.errors import ColoringError
from repro.core.arboricity import CrossMergeAlgorithm
from repro.graphcore import CompactGraph
from repro.local import NodeAlgorithm
from repro.local.network import run_on_graph
from repro.shard import get_program, kernel_names, partition, sharding
from repro.substrates.cole_vishkin import (
    ColeVishkinAlgorithm,
    cv_iterations,
    root_forest,
)
from repro.substrates.defective import DefectiveRefinementAlgorithm
from repro.substrates.hpartition import _Peeler
from repro.substrates.linial import LinialAlgorithm
from repro.substrates.reduction import (
    BasicReductionAlgorithm,
    BlockedReductionAlgorithm,
)

from tests.engine.test_compact_parity import (
    BUILTIN_WORKLOADS,
    COMPACT_OK,
    SMALL_PARAMS,
    assert_same_run,
)
from tests.engine.test_kernel_declines import CASES as DECLINE_CASES
from tests.engine.test_kernel_declines import GRAPH as DECLINE_GRAPH
from tests.engine.test_kernel_declines import MAX_ROUNDS as DECLINE_MAX_ROUNDS


def _compact_instance(workload):
    original = workloads.build(workload, SMALL_PARAMS.get(workload), seed=0)
    if isinstance(original, CompactGraph):
        return original
    return CompactGraph.from_networkx(original)


def _sharded_scope(graph, tmp_path, num_shards=3, **kwargs):
    num_shards = min(num_shards, max(1, graph.n))
    bundle = partition(graph, num_shards, tmp_path / "bundle")
    return sharding(graph, bundle, inline=True, **kwargs)


class TestEveryCompactAlgorithmShardsOrFallsBack:
    """The full matrix: every compact-capable algorithm on every builtin
    workload, sharded vs unsharded, byte-identical results (or the same
    error on both paths)."""

    @pytest.mark.parametrize("workload", BUILTIN_WORKLOADS)
    @pytest.mark.parametrize("algorithm", COMPACT_OK)
    def test_sharded_equals_unsharded(self, algorithm, workload, tmp_path):
        graph = _compact_instance(workload)
        try:
            plain = registry.run(algorithm, graph, engine="vector")
        except Exception as exc:
            with _sharded_scope(graph, tmp_path):
                with pytest.raises(type(exc)) as caught:
                    registry.run(algorithm, graph, engine="vector")
            assert str(caught.value) == str(exc)
            return
        with _sharded_scope(graph, tmp_path):
            sharded = registry.run(algorithm, graph, engine="vector")
        assert_same_run(plain, sharded)


def _grid():
    return workloads.build("xl-grid", {"rows": 25, "cols": 18}, seed=0)


def _tree():
    return CompactGraph.from_networkx(
        workloads.build("random-tree", {"n": 300}, seed=0)
    )


def _ids(g):
    return {v: v for v in range(g.n)}


def _cv_extras(g):
    return {
        "parent": root_forest(g),
        "initial_coloring": _ids(g),
        "iterations": cv_iterations(g.n),
    }


class TestProgramsActuallyDispatch:
    def test_program_catalogue(self):
        names = kernel_names()
        assert names == [
            "basic-reduction",
            "cole-vishkin",
            "cross-merge",
            "defective-refinement",
            "h-partition",
            "kw-phase",
            "linial",
        ]
        assert all(get_program(name).name == name for name in names)

    @pytest.mark.parametrize(
        "algorithm,make_graph,make_extras",
        [
            (
                LinialAlgorithm(),
                _grid,
                lambda g: {"initial_coloring": _ids(g), "m0": g.n},
            ),
            (
                DefectiveRefinementAlgorithm(),
                _grid,
                lambda g: {"initial_coloring": _ids(g), "q": 11, "d": 3},
            ),
            (_Peeler(), _grid, lambda g: {"threshold": 2}),
            (ColeVishkinAlgorithm(), _tree, _cv_extras),
            (
                BasicReductionAlgorithm(),
                _grid,
                lambda g: {"coloring": _ids(g), "m": g.n, "target": g.max_degree + 1},
            ),
            (
                BlockedReductionAlgorithm(),
                _grid,
                lambda g: {"coloring": _ids(g), "block": 10, "palette": 5},
            ),
        ],
        ids=[
            "linial",
            "defective-refinement",
            "h-partition",
            "cole-vishkin",
            "basic-reduction",
            "kw-phase",
        ],
    )
    def test_dispatch_and_full_runresult_parity(
        self, algorithm, make_graph, make_extras, tmp_path
    ):
        graph = make_graph()
        extras = make_extras(graph)
        plain = run_on_graph(graph, algorithm, extras=extras, engine="vector")
        assert plain.rounds > 0
        with obs.collect() as runtime:
            with _sharded_scope(graph, tmp_path) as scope:
                sharded = run_on_graph(
                    graph, algorithm, extras=extras, engine="vector"
                )
                shards = [scope.bundle.shard(s) for s in range(3)]
        if "parent" in extras:
            # the tree's parent edges must really cross shard boundaries
            owner = {v: s.shard_id for s in shards for v in range(s.lo, s.hi)}
            assert any(
                p is not None and owner[p] != owner[v]
                for v, p in extras["parent"].items()
            )
        # every field of the RunResult, not just outputs
        assert sharded.outputs == plain.outputs
        assert sharded.rounds == plain.rounds
        assert sharded.messages == plain.messages
        assert sharded.round_messages == plain.round_messages
        assert sharded.engine == "sharded"
        counters = runtime.snapshot()["counters"]
        assert any("shard.dispatch" in key for key in counters)
        assert scope.last_stats["shards"] == 3
        assert scope.last_stats["worker_peak_rss_kb"] > 0

    def test_unprogrammed_algorithm_falls_back_disclosed(self, tmp_path):
        class OneShot(NodeAlgorithm):
            name = "one-shot"

            def initialize(self, node, ctx):
                node.state["output"] = node.id
                node.broadcast(node.id)

            def step(self, node, inbox, round_no, ctx):
                node.halt()

        graph = workloads.build("xl-grid", {"rows": 6, "cols": 6}, seed=0)
        plain = run_on_graph(graph, OneShot(), engine="vector")
        with obs.collect() as runtime:
            with _sharded_scope(graph, tmp_path):
                run = run_on_graph(graph, OneShot(), engine="vector")
        assert run.outputs == plain.outputs
        # no program anywhere: the engine delegates to the reference
        assert run.engine == plain.engine == "reference"
        counters = runtime.snapshot()["counters"]
        assert any(
            "shard.fallback" in key and "no-program" in key for key in counters
        )
        assert not any("shard.dispatch" in key for key in counters)

    def test_cross_merge_on_a_haloed_shard_falls_back_to_the_whole_graph(self, tmp_path):
        # a used set travels to B and one reply per requester travels
        # back: the scalar halo exchange cannot carry that, so a shard
        # with a halo declines and the vector engine runs the program
        graph = workloads.build("xl-grid", {"rows": 6, "cols": 6}, seed=0)
        extras = _checkerboard_merge_extras(graph)
        reference = run_on_graph(
            graph, CrossMergeAlgorithm(), extras=extras, engine="reference"
        )
        with obs.collect() as runtime:
            with _sharded_scope(graph, tmp_path):
                run = run_on_graph(
                    graph, CrossMergeAlgorithm(), extras=extras, engine="vector"
                )
        assert list(run.outputs.items()) == list(reference.outputs.items())
        assert run.round_messages == reference.round_messages
        assert run.engine == "vector"
        counters = runtime.snapshot()["counters"]
        key = "shard.fallback[algorithm=cross-merge,reason=non-empty halo]"
        assert counters.get(key) == 1, sorted(counters)
        assert not any("shard.dispatch" in key for key in counters)
        assert counters.get("kernel.dispatch[kernel=cross-merge]") == 1

    @pytest.mark.parametrize("palette", [8, 3], ids=["colors", "exhausted"])
    def test_cross_merge_runs_sharded_on_one_shard(self, palette, tmp_path):
        graph = workloads.build("xl-grid", {"rows": 6, "cols": 6}, seed=0)
        extras = dict(_checkerboard_merge_extras(graph), palette=palette)
        plain = _decline_outcome(CrossMergeAlgorithm(), extras, graph)
        reference = _decline_outcome(CrossMergeAlgorithm(), extras, graph, "reference")
        with obs.collect() as runtime:
            with _sharded_scope(graph, tmp_path, num_shards=1):
                sharded = _decline_outcome(CrossMergeAlgorithm(), extras, graph)
        if palette == 8:
            # a result tuple ends in the engine that ran it
            assert sharded[:-1] == plain[:-1] == reference[:-1]
            assert sharded[-1] == "sharded"
        else:
            assert sharded == plain == reference
            assert sharded[2].startswith("merge palette 3 exhausted at ")
        counters = runtime.snapshot()["counters"]
        assert any("shard.dispatch" in key for key in counters)

    def test_foreign_graph_falls_back_disclosed(self, tmp_path):
        graph = workloads.build("xl-grid", {"rows": 6, "cols": 6}, seed=0)
        other = workloads.build("xl-grid", {"rows": 5, "cols": 7}, seed=0)
        extras = {"initial_coloring": {v: v for v in range(other.n)}, "m0": other.n}
        with obs.collect() as runtime:
            with _sharded_scope(graph, tmp_path):
                run = run_on_graph(
                    other, LinialAlgorithm(), extras=extras, engine="vector"
                )
        assert run.engine == "vector"
        counters = runtime.snapshot()["counters"]
        assert any(
            "shard.fallback" in key and "foreign-graph" in key
            for key in counters
        )

    @pytest.mark.parametrize(
        "algorithm,extras",
        [
            (BasicReductionAlgorithm(), {"m": 450, "target": 2}),
            (BlockedReductionAlgorithm(), {"block": 10, "palette": 2}),
        ],
        ids=["basic-reduction", "kw-phase"],
    )
    def test_no_free_color_travels_in_step_stats(self, algorithm, extras, tmp_path):
        # a palette below Delta + 1 runs out mid-sweep: the worker reports
        # the first stuck node and its used-color count, and the
        # coordinator raises the ColoringError the per-node run raises
        graph = _grid()
        extras = {"coloring": _ids(graph), **extras}
        with pytest.raises(ColoringError) as reference:
            run_on_graph(graph, algorithm, extras=extras, engine="reference")
        with pytest.raises(ColoringError) as plain:
            run_on_graph(graph, algorithm, extras=extras, engine="vector")
        with obs.collect() as runtime:
            with _sharded_scope(graph, tmp_path):
                with pytest.raises(ColoringError) as sharded:
                    run_on_graph(graph, algorithm, extras=extras, engine="vector")
        assert str(sharded.value) == str(plain.value)
        assert str(plain.value) == str(reference.value)
        assert str(plain.value).startswith("no free color below 2 (|used|=")
        counters = runtime.snapshot()["counters"]
        assert any("shard.dispatch" in key for key in counters)

    @pytest.mark.parametrize("algorithm,extras,reason", DECLINE_CASES)
    def test_declined_inputs_fall_back_disclosed(
        self, algorithm, extras, reason, tmp_path
    ):
        # every input the kernel declines, the program declines too —
        # with the same reason — and the engine path then produces its
        # authentic outcome (a result or the per-node error), identically
        # with and without the scope.
        plain = _decline_outcome(algorithm, extras)
        with obs.collect() as runtime:
            with _sharded_scope(DECLINE_GRAPH, tmp_path):
                sharded = _decline_outcome(algorithm, extras)
        assert sharded == plain
        counters = runtime.snapshot()["counters"]
        key = f"shard.fallback[algorithm={algorithm.name},reason={reason}]"
        assert counters.get(key) == 1, sorted(counters)
        assert not any(k.startswith("shard.dispatch") for k in counters)


def _checkerboard_merge_extras(graph):
    """Cross-merge extras for a 6-column grid: the checkerboard sides make
    every edge a cross edge, each A labels its neighbors in repr order."""
    side = {v: "AB"[(v // 6 + v % 6) % 2] for v in range(graph.n)}
    labels = {
        v: dict(enumerate(sorted(graph.neighbors(v), key=repr), start=1))
        for v in range(graph.n)
        if side[v] == "A"
    }
    return {
        "side": side,
        "labels": labels,
        "used": {},
        "palette": 2 * graph.max_degree,
        "d": max(len(row) for row in labels.values()),
    }


def _decline_outcome(algorithm, extras, graph=DECLINE_GRAPH, engine="vector"):
    try:
        result = run_on_graph(
            graph,
            algorithm,
            extras=dict(extras),
            max_rounds=DECLINE_MAX_ROUNDS,
            engine=engine,
        )
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome under test
        return ("raised", type(exc), str(exc))
    return (
        "ran",
        result.outputs,
        result.rounds,
        result.messages,
        list(result.round_messages),
        result.engine,
    )


class TestShardCountInsensitivity:
    """Bit-identity must hold for any shard count, including 1 and n-ish."""

    @pytest.mark.parametrize("num_shards", [1, 2, 5, 16])
    def test_linial_across_shard_counts(self, num_shards, tmp_path):
        graph = workloads.build("xl-grid", {"rows": 12, "cols": 11}, seed=0)
        extras = {"initial_coloring": {v: v for v in range(graph.n)}, "m0": graph.n}
        plain = run_on_graph(graph, LinialAlgorithm(), extras=extras, engine="vector")
        bundle = partition(graph, num_shards, tmp_path / f"b{num_shards}")
        with sharding(graph, bundle, inline=True):
            sharded = run_on_graph(
                graph, LinialAlgorithm(), extras=extras, engine="vector"
            )
        assert sharded.outputs == plain.outputs
        assert sharded.round_messages == plain.round_messages

    @pytest.mark.parametrize("num_shards", [1, 2, 5, 16])
    def test_peeler_across_shard_counts(self, num_shards, tmp_path):
        graph = workloads.build(
            "xl-forest-stack",
            {"n_centers": 7, "leaves_per_center": 10, "a": 2},
            seed=1,
        )
        plain = run_on_graph(
            graph, _Peeler(), extras={"threshold": 2}, engine="vector"
        )
        bundle = partition(graph, num_shards, tmp_path / f"b{num_shards}")
        with sharding(graph, bundle, inline=True):
            sharded = run_on_graph(
                graph, _Peeler(), extras={"threshold": 2}, engine="vector"
            )
        assert sharded.outputs == plain.outputs
        assert sharded.round_messages == plain.round_messages

    @pytest.mark.parametrize("num_shards", [1, 2, 5, 16])
    @pytest.mark.parametrize("name", ["cole-vishkin", "basic-reduction", "kw-phase"])
    def test_class_sweeps_and_cole_vishkin_across_shard_counts(
        self, name, num_shards, tmp_path
    ):
        if name == "cole-vishkin":
            graph, algorithm = _tree(), ColeVishkinAlgorithm()
            extras = _cv_extras(graph)
        else:
            graph = workloads.build("xl-grid", {"rows": 12, "cols": 11}, seed=0)
            if name == "basic-reduction":
                algorithm = BasicReductionAlgorithm()
                extras = {"coloring": _ids(graph), "m": graph.n, "target": 5}
            else:
                algorithm = BlockedReductionAlgorithm()
                extras = {"coloring": _ids(graph), "block": 10, "palette": 5}
        plain = run_on_graph(graph, algorithm, extras=extras, engine="vector")
        bundle = partition(graph, num_shards, tmp_path / f"b{num_shards}")
        with sharding(graph, bundle, inline=True):
            sharded = run_on_graph(graph, algorithm, extras=extras, engine="vector")
        assert sharded.engine == "sharded"
        assert sharded.outputs == plain.outputs
        assert sharded.messages == plain.messages
        assert sharded.round_messages == plain.round_messages
