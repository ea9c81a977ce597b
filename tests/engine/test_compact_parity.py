"""CSR-path parity: running on a CompactGraph equals running on networkx.

Two layers of guarantee:

* **Engine level** — ``VectorEngine`` consumes ``CompactGraph`` through
  its native path (no nx conversion); ``ReferenceEngine`` converts. Both
  must produce the same outputs, rounds, and per-round message profile
  on the same compact instance, and the same as the nx original.
* **Registry level** — ``registry.run`` on a compact instance must equal
  ``registry.run`` on the nx original, for every registered algorithm
  (``registry.names()``), the full default campaign grid and both
  engines.
"""

import pytest

from repro import obs, registry, workloads
from repro.analysis.campaign import default_cells
from repro.baselines.greedy import greedy_edge_coloring, greedy_vertex_coloring
from repro.core.arboricity import CrossMergeAlgorithm
from repro.engine import EngineFallbackWarning, get_engine
from repro.graphcore import CompactGraph
from repro.kernels.segments import repr_rank_order
from repro.substrates.cole_vishkin import (
    ColeVishkinAlgorithm,
    cv_iterations,
    root_forest,
)
from repro.substrates.linial import LinialAlgorithm, linial_schedule
from repro.substrates.reduction import (
    BasicReductionAlgorithm,
    BlockedReductionAlgorithm,
)


def _default_grid_cases():
    seen = set()
    for cell in default_cells():
        key = (cell.algorithm, cell.workload)
        if key in seen:
            continue
        seen.add(key)
        yield pytest.param(
            cell.algorithm,
            cell.workload,
            dict(cell.workload_params),
            id=f"{cell.algorithm}-{cell.workload}",
        )


def assert_same_run(a, b):
    assert b.coloring == a.coloring
    assert b.colors_used == a.colors_used
    assert b.rounds_actual == a.rounds_actual
    assert b.rounds_modeled == a.rounds_modeled
    assert b.extra == a.extra


@pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 1000, 1001])
def test_repr_rank_order_is_sorted_by_repr(n):
    # n - 1 has fewer digits than n at 10, 100, 1000: the id strings'
    # width must come from the largest id, never truncate it
    assert repr_rank_order(n).tolist() == sorted(range(n), key=repr)


def test_repr_sorted_nodes_ranks_a_views_own_ids():
    # an Interned view has indptr/indices like a CompactGraph, but its
    # nodes are its ids: ranking dense 0..n-1 would seed Linial wrongly
    import networkx as nx

    from repro.graphcore import Interned
    from repro.kernels.segments import repr_sorted_nodes
    from repro.substrates.linial import linial_coloring

    graph = nx.relabel_nodes(nx.cycle_graph(12), {v: (v % 4, 11 - v) for v in range(12)})
    view = Interned(graph)
    assert repr_sorted_nodes(view) == sorted(graph.nodes(), key=repr)
    assert linial_coloring(view) == linial_coloring(graph)
    compact = CompactGraph.from_networkx(graph)
    assert repr_sorted_nodes(compact) == sorted(range(12), key=repr)


@pytest.mark.parametrize("fn,csr_path,view_refused", [
    (root_forest, "repro.substrates.cole_vishkin._root_forest_csr", True),
    (greedy_vertex_coloring, "repro.kernels.greedy.greedy_vertex_compact", True),
    # reads only nodes() and edges(), which a view lists in its own ids
    (greedy_edge_coloring, "repro.kernels.greedy.greedy_edge_compact", False),
])
def test_csr_branches_take_only_compact_graphs(fn, csr_path, view_refused, monkeypatch):
    # an Interned view has indptr/indices over dense 0..n-1, not over its
    # ids: read as a CompactGraph it would answer under the wrong ids
    import importlib

    import networkx as nx

    from repro.graphcore import Interned

    module, name = csr_path.rsplit(".", 1)
    real = getattr(importlib.import_module(module), name)
    calls = []
    monkeypatch.setattr(csr_path, lambda graph: calls.append(graph) or real(graph))
    tree = nx.balanced_tree(2, 3)
    compact = CompactGraph.from_networkx(tree)
    assert fn(compact) == fn(tree)
    assert calls == [compact]
    graph = nx.relabel_nodes(tree, {v: ("t", v) for v in tree})
    view = Interned(graph)
    if view_refused:
        with pytest.raises(TypeError):
            fn(view)
    else:
        assert fn(view) == fn(graph)
    assert calls == [compact]


class TestRegistryParityOnDefaultGrid:
    @pytest.mark.parametrize("algorithm,workload,params", list(_default_grid_cases()))
    @pytest.mark.parametrize("engine", ["reference", "vector"])
    def test_compact_equals_nx(self, algorithm, workload, params, engine):
        original = workloads.build(workload, params, seed=0)
        compact = CompactGraph.from_networkx(original)
        nx_run = registry.run(algorithm, original, engine=engine)
        compact_run = registry.run(algorithm, compact, engine=engine)
        assert_same_run(nx_run, compact_run)


#: Every registered algorithm: each consumes CompactGraph natively.
ALGORITHMS = sorted(registry.names())

#: The full builtin catalogue at reduced size (same idiom as the invariant
#: fuzz suite): workloads absent here run at their registered defaults.
SMALL_PARAMS = {
    "random-regular": {"n": 16, "d": 4},
    "erdos-renyi": {"n": 16, "p": 0.2},
    "random-tree": {"n": 16},
    "forest-union": {"n": 16, "a": 2},
    "star-forest-stack": {"n_centers": 3, "leaves_per_center": 5, "a": 2},
    "power-law": {"n": 16, "attach": 2},
    "geometric": {"n": 16, "radius": 0.35},
    "bipartite-regular": {"n_each": 8, "d": 3},
    "line-of-regular": {"n": 12, "d": 4},
    "planar-grid": {"rows": 4, "cols": 4},
    "triangular-grid": {"rows": 3, "cols": 4},
    "torus": {"rows": 4, "cols": 4},
    "hypercube": {"dim": 3},
    "complete": {"n": 8},
    "shared-cliques": {"clique_size": 4, "num_cliques": 3},
    "disjoint-cliques": {"count": 3, "size": 4},
    "scale-regular": {"n": 64, "d": 4},
    "scale-power-law": {"n": 64, "attach": 2},
    "scale-forest-stack": {"n_centers": 6, "leaves_per_center": 9, "a": 2},
    "scale-grid": {"rows": 8, "cols": 8},
}

BUILTIN_WORKLOADS = [w for w in workloads.names() if not w.startswith("xl-")]

#: The xl families at sizes where per-node execution is still affordable.
XL_SMALL = [
    ("xl-grid", {"rows": 8, "cols": 8}),
    ("xl-regular", {"n": 64, "d": 4}),
    ("xl-power-law", {"n": 64, "attach": 2}),
    ("xl-forest-stack", {"n_centers": 6, "leaves_per_center": 9, "a": 2}),
]


def assert_parity(algorithm, original, **params):
    """registry.run on the nx graph and on its CompactGraph twin must be
    indistinguishable — same RunResult fields, or the same error (e.g. a
    forest-only algorithm rejecting a cyclic workload on both paths)."""
    compact = CompactGraph.from_networkx(original)
    try:
        nx_run = registry.run(algorithm, original, engine="vector", **params)
    except Exception as exc:
        with pytest.raises(type(exc)) as caught:
            registry.run(algorithm, compact, engine="vector", **params)
        assert str(caught.value) == str(exc)
        return None
    compact_run = registry.run(algorithm, compact, engine="vector", **params)
    assert_same_run(nx_run, compact_run)
    return compact_run


class TestEveryAlgorithm:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_native_path_matches_converted(self, algorithm):
        compact = workloads.build("xl-grid", {"rows": 12, "cols": 12})
        assert_parity(algorithm, compact.to_networkx())


class TestEveryAlgorithmOnEveryWorkload:
    """The flip adjudicator: every registered algorithm, every builtin
    workload family, bit-for-bit vs the networkx original."""

    @pytest.mark.parametrize("workload", BUILTIN_WORKLOADS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_builtin_workloads(self, algorithm, workload):
        original = workloads.build(workload, SMALL_PARAMS.get(workload), seed=0)
        if any(type(v) is not int for v in original.nodes()):
            # Interning relabels non-int nodes to their repr-sorted index,
            # which changes the repr-order tie-breaks algorithms use — so
            # parity is defined on the interned instance, not across the
            # relabeling (line-of-regular is the one such family).
            # ``to_networkx`` restores original labels; rebuild from CSR.
            compact = CompactGraph.from_networkx(original)
            original = compact.subgraph(range(compact.n))
        assert_parity(algorithm, original)

    @pytest.mark.parametrize("workload,params", XL_SMALL)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_xl_families(self, algorithm, workload, params):
        compact = workloads.build(workload, params, seed=1)
        assert_parity(algorithm, compact.to_networkx())


class TestOraclesCatchCorruptedKernelOutput:
    """Planted mutations: if a kernel ever miscomputed, the invariant
    oracles — not just the parity suite — must reject the run."""

    def _kernel_run(self, algorithm, workload="xl-grid", params=None, **kw):
        compact = workloads.build(workload, params or {"rows": 8, "cols": 8})
        return compact, registry.run(algorithm, compact, engine="vector", **kw)

    def test_vertex_conflict_in_kernel_coloring_caught(self):
        from repro.verify import verify_run

        compact, run = self._kernel_run("linial")
        u = 0
        v = int(compact.indices[compact.indptr[0]])
        run.coloring[u] = run.coloring[v]
        verdict = verify_run(compact, run)
        assert verdict.status == "fail"
        assert "monochromatic" in verdict.violation

    def test_edge_conflict_in_kernel_coloring_caught(self):
        from repro.verify import verify_run

        compact, run = self._kernel_run("greedy")
        edges = sorted(run.coloring)
        u, v = edges[0]
        neighbor = next(e for e in edges[1:] if u in e or v in e)
        run.coloring[edges[0]] = run.coloring[neighbor]
        verdict = verify_run(compact, run)
        assert verdict.status == "fail"
        assert "share color" in verdict.violation

    def test_dropped_assignment_in_kernel_coloring_caught(self):
        from repro.verify import verify_run

        compact, run = self._kernel_run("greedy-vertex")
        del run.coloring[0]
        verdict = verify_run(compact, run)
        assert verdict.status == "fail"
        assert "uncolored" in verdict.violation

    def test_flattened_h_partition_caught(self):
        from repro.verify import verify_run

        compact, run = self._kernel_run(
            "h-partition", workload="xl-forest-stack",
            params={"n_centers": 6, "leaves_per_center": 9, "a": 2},
            arboricity=2,
        )
        for v in run.coloring:
            run.coloring[v] = 1
        verdict = verify_run(compact, run, params={"arboricity": 2})
        assert verdict.status == "fail"

    def test_palette_inflation_in_kernel_run_caught(self):
        import dataclasses

        from repro.verify import verify_run

        compact, run = self._kernel_run("greedy-vertex")
        verdict = verify_run(compact, dataclasses.replace(run, colors_used=999))
        assert verdict.status == "fail"
        assert "palette-bound" in verdict.violation


#: The engine-level parity instances: every xl family at a size where the
#: per-node reference run is still affordable.
XL_PARITY = [
    ("xl-grid", {"rows": 15, "cols": 15}),
    ("xl-regular", {"n": 120, "d": 6}),
    ("xl-power-law", {"n": 90, "attach": 3}),
    ("xl-forest-stack", {"n_centers": 5, "leaves_per_center": 8, "a": 2}),
]


def _tuple_ids(compact):
    """The compact instance as networkx with tuple ids, in dense order."""
    return compact.to_networkx(), lambda v: ("v", v)


def _sparse_shuffled_ids(compact):
    """The compact instance as networkx with sparse int ids, nodes and
    edges inserted in a shuffled order (so graph order is neither the
    dense order nor the sorted order of the ids)."""
    import random

    import networkx as nx

    rng = random.Random(7)
    nodes = list(range(compact.n))
    rng.shuffle(nodes)
    edges = list(compact.to_networkx().edges())
    rng.shuffle(edges)
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph, lambda v: 1000 + 37 * v


NX_FORMS = [
    pytest.param(_tuple_ids, id="tuple-ids"),
    pytest.param(_sparse_shuffled_ids, id="sparse-shuffled-ids"),
]


def _relabel(form, compact, extras, node_keyed=(), node_valued=()):
    """``compact`` in networkx ``form``, with the node-keyed extras (and
    the node values of ``node_valued`` maps) relabeled the same way."""
    import networkx as nx

    graph, label = form(compact)
    graph = nx.relabel_nodes(graph, label)
    extras = dict(extras)
    for key in node_keyed:
        extras[key] = {label(v): c for v, c in extras[key].items()}
    for key in node_valued:
        # a node, None for a root, or a {label: node} row
        extras[key] = {
            label(v): (
                None if p is None
                else {i: label(q) for i, q in p.items()} if isinstance(p, dict)
                else label(p)
            )
            for v, p in extras[key].items()
        }
    return graph, extras


def _ordered(outputs):
    """``outputs`` as (node, value) pairs in graph order, a dict value
    (the merge's per-node assignments, which ``merge_cross_edges`` folds
    in that order) listed in its insertion order too."""
    return [
        (v, list(out.items()) if isinstance(out, dict) else out)
        for v, out in outputs.items()
    ]


def _outcome(engine, graph, algorithm, extras):
    try:
        result = get_engine(engine).run(graph, algorithm, extras=extras)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome under test
        return ("raised", type(exc), str(exc))
    return (
        "ran",
        _ordered(result.outputs),
        result.rounds,
        result.messages,
        list(result.round_messages),
    )


class TestEngineLevelParity:
    def _linial_extras(self, graph):
        ordered = sorted(graph.nodes(), key=repr)
        return {
            "initial_coloring": {v: i for i, v in enumerate(ordered)},
            "m0": len(ordered),
        }

    def _reduction_extras(self, graph):
        ordered = sorted(graph.nodes(), key=repr)
        return {
            "coloring": {v: i for i, v in enumerate(ordered)},
            "m": len(ordered),
            "target": graph.max_degree + 1,
        }

    def _kw_extras(self, graph):
        ordered = sorted(graph.nodes(), key=repr)
        palette = graph.max_degree + 1
        return {
            "coloring": {v: i for i, v in enumerate(ordered)},
            "block": 2 * palette,
            "palette": palette,
        }

    def _cole_vishkin_case(self, n):
        # a compact tree with as many nodes as the workload instance
        tree = CompactGraph.from_networkx(
            workloads.build("random-tree", {"n": n}, seed=1)
        )
        extras = {
            "parent": root_forest(tree),
            "initial_coloring": {v: v for v in range(tree.n)},
            "iterations": cv_iterations(tree.n),
        }
        return tree, ColeVishkinAlgorithm(), extras

    def _merge_extras(self, graph, first_label_only=False, palette=None):
        """Lemma 5.1 extras: every third node is an A node labelling its
        B neighbors in repr order (so A nodes with few B neighbors stop
        before ``d``, and B nodes at row ends of a grid see no A node),
        and every fourth node already uses two colors."""
        side = {v: "A" if v % 3 == 0 else "B" for v in graph.nodes()}
        labels = {}
        for v in graph.nodes():
            partners = sorted(
                (u for u in graph.neighbors(v) if side[u] == "B"), key=repr
            )[: 1 if first_label_only else None]
            if side[v] == "A" and partners:
                labels[v] = dict(enumerate(partners, start=1))
        # two used colors at each end plus one per other cross edge:
        # 2 * Delta + 4 never runs out
        if palette is None:
            palette = 2 * graph.max_degree + 4
        used = {
            v: [(3 * v) % palette, (5 * v + 1) % palette]
            for v in graph.nodes()
            if v % 4 == 1
        }
        return {
            "side": side,
            "labels": labels,
            "used": used,
            "palette": palette,
            "d": max(len(row) for row in labels.values()),
        }

    @pytest.mark.parametrize("workload,params", XL_PARITY)
    def test_full_runresult_parity_on_compact(self, workload, params):
        compact = workloads.build(workload, params, seed=1)
        for algorithm, graph, extras, _keyed, _valued in self._program_cases(compact):
            ref = get_engine("reference").run(graph, algorithm, extras=extras)
            with obs.collect() as runtime:
                vec = get_engine("vector").run(graph, algorithm, extras=extras)
            assert _ordered(vec.outputs) == _ordered(ref.outputs)
            assert vec.rounds == ref.rounds
            assert vec.messages == ref.messages
            assert vec.round_messages == ref.round_messages
            assert ref.engine == "reference" and vec.engine == "vector"
            counters = runtime.snapshot()["counters"]
            assert counters.get(f"kernel.dispatch[kernel={algorithm.name}]") == 1

    def _program_cases(self, compact):
        """(algorithm, compact instance, dense extras, node-keyed extras,
        node-valued extras) for all seven registered programs, cross-merge
        with all labels and with one label per A node (d = 1)."""
        import networkx as nx

        from repro.substrates.defective import DefectiveRefinementAlgorithm
        from repro.substrates.hpartition import _Peeler

        degeneracy = max(nx.core_number(compact.to_networkx()).values())
        tree, cv, cv_extras = self._cole_vishkin_case(compact.n)
        linial = self._linial_extras(compact)
        return [
            (LinialAlgorithm(), compact, linial, ("initial_coloring",), ()),
            (DefectiveRefinementAlgorithm(), compact,
             {"initial_coloring": linial["initial_coloring"], "q": 7, "d": 2},
             ("initial_coloring",), ()),
            (BasicReductionAlgorithm(), compact, self._reduction_extras(compact),
             ("coloring",), ()),
            (BlockedReductionAlgorithm(), compact, self._kw_extras(compact),
             ("coloring",), ()),
            (cv, tree, cv_extras, ("initial_coloring",), ("parent",)),
            (_Peeler(), compact, {"threshold": degeneracy}, (), ()),
            (CrossMergeAlgorithm(), compact, self._merge_extras(compact),
             ("side", "used"), ("labels",)),
            (CrossMergeAlgorithm(), compact, self._merge_extras(compact, True),
             ("side", "used"), ("labels",)),
        ]

    @pytest.mark.parametrize("form", NX_FORMS)
    @pytest.mark.parametrize("workload,params", XL_PARITY)
    def test_full_runresult_parity_on_nx(self, workload, params, form):
        # the pipelines' own inputs: networkx graphs whose ids are not
        # 0..n-1 take the same kernels, with the extras interned and
        # the outputs mapped back in graph order
        compact = workloads.build(workload, params, seed=1)
        for algorithm, instance, extras, keyed, valued in self._program_cases(compact):
            graph, extras = _relabel(form, instance, extras, keyed, valued)
            ref = get_engine("reference").run(graph, algorithm, extras=extras)
            with obs.collect() as runtime:
                vec = get_engine("vector").run(graph, algorithm, extras=extras)
            # outputs keyed by the original ids, in graph order
            assert _ordered(vec.outputs) == _ordered(ref.outputs)
            assert vec.rounds == ref.rounds
            assert vec.messages == ref.messages
            assert vec.round_messages == ref.round_messages
            assert vec.engine == "vector"
            counters = runtime.snapshot()["counters"]
            assert counters.get(f"kernel.dispatch[kernel={algorithm.name}]") == 1
            assert not any(k.startswith("kernel.fallback") for k in counters)

    @pytest.mark.parametrize("form", NX_FORMS)
    @pytest.mark.parametrize("workload,params", XL_PARITY)
    def test_no_free_color_matches_reference_on_nx(self, workload, params, form):
        # a palette below Delta + 1 runs out mid-sweep: the kernel raises
        # the per-node error, naming the first stuck node's used colors
        compact = workloads.build(workload, params, seed=1)
        coloring = self._reduction_extras(compact)["coloring"]
        for algorithm, extras in (
            (BasicReductionAlgorithm(),
             {"coloring": coloring, "m": compact.n, "target": 2}),
            (BlockedReductionAlgorithm(),
             {"coloring": coloring, "block": 10, "palette": 2}),
        ):
            graph, extras = _relabel(form, compact, extras, ("coloring",))
            reference = _outcome("reference", graph, algorithm, extras)
            assert reference[0] == "raised"
            with obs.collect() as runtime:
                vector = _outcome("vector", graph, algorithm, extras)
            assert vector == reference
            counters = runtime.snapshot()["counters"]
            assert not any(k.startswith("kernel.fallback") for k in counters)

    @pytest.mark.parametrize("form", NX_FORMS)
    @pytest.mark.parametrize("workload,params", XL_PARITY)
    def test_merge_palette_exhausted_matches_reference(self, workload, params, form):
        # a palette of 2 runs out in the first label round: the program
        # raises the per-node error at the first failing B in graph order
        compact = workloads.build(workload, params, seed=1)
        extras = self._merge_extras(compact, palette=2)
        extras["used"] = {v: [c % 2 for c in used] for v, used in extras["used"].items()}
        for graph, case in (
            (compact, extras),
            _relabel(form, compact, extras, ("side", "used"), ("labels",)),
        ):
            reference = _outcome("reference", graph, CrossMergeAlgorithm(), case)
            assert reference[0] == "raised"
            assert reference[2].startswith("merge palette 2 exhausted at ")
            with obs.collect() as runtime:
                vector = _outcome("vector", graph, CrossMergeAlgorithm(), case)
            assert vector == reference
            counters = runtime.snapshot()["counters"]
            assert not any(k.startswith("kernel.fallback") for k in counters)

    def test_merge_cases_cover_the_protocol_shapes(self):
        # guard against silently-trivial cross-merge cases: over the
        # parity instances, each protocol shape occurs somewhere
        shapes = set()
        for workload, params in XL_PARITY:
            compact = workloads.build(workload, params, seed=1)
            extras = self._merge_extras(compact)
            side, labels = extras["side"], extras["labels"]
            if any(
                side[v] == "B" and all(side[u] == "B" for u in compact.neighbors(v))
                for v in range(compact.n)
            ):
                shapes.add("B node with no cross edge")
            if any(len(row) < extras["d"] for row in labels.values()):
                shapes.add("labels stop before d")
            # a B asked twice in one round: one sweep per inbox position
            requests = [(i, b) for row in labels.values() for i, b in row.items()]
            if len(set(requests)) < len(requests):
                shapes.add("two requests in one inbox")
            if self._merge_extras(compact, first_label_only=True)["d"] == 1:
                shapes.add("d = 1")
        assert len(shapes) == 4, shapes

    def test_linial_actually_rounds_on_the_grid_case(self):
        # guard against a silently-trivial parity case: 225 ids on a
        # Delta=4 grid must need at least one refinement round
        assert linial_schedule(225, 4)[0]

    def test_delegated_run_on_compact_is_the_program_run(self):
        # the same protocol under a name with no program: the vector engine
        # delegates it to the per-node scheduler, on the compact graph as
        # it is, and the result is the program's to the message
        class Unprogrammed(BasicReductionAlgorithm):
            name = "basic-reduction-unprogrammed"

        compact = workloads.build("xl-grid", {"rows": 8, "cols": 8})
        extras = self._reduction_extras(compact)
        program = get_engine("vector").run(compact, BasicReductionAlgorithm(), extras=dict(extras))
        with pytest.warns(EngineFallbackWarning, match="no-program"):
            delegated = get_engine("vector").run(compact, Unprogrammed(), extras=dict(extras))
        assert program.rounds > 5
        assert (program.engine, delegated.engine) == ("vector", "reference")
        assert delegated.outputs == program.outputs
        assert delegated.messages == program.messages
        assert delegated.round_messages == program.round_messages
