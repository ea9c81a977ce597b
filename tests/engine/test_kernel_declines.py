"""Decline parity on the kernel path.

A kernel that declines an input must leave the run exactly as the
per-node semantics define it: ``VectorEngine`` (which tries the kernel
and falls back) and ``ReferenceEngine`` (which never consults kernels)
give an identical ``RunResult`` or raise the same exception type with
the same message. The decline itself is disclosed through the
``kernel.fallback[kernel=...,reason=...]`` counter, whose reason strings
are stable labels.

Every case runs twice: on the compact grid, and on its networkx twin
with tuple ids. Both forms cross into the program's dense arrays at one
boundary (:mod:`repro.kernels.program`), which reads the node-keyed
extras by node lookup on either, so a case declines with the same
reason on both; ``test_intern_boundary.py`` holds generated tables to
that.
"""

import networkx as nx
import pytest

from repro import obs
from repro.core.arboricity import CrossMergeAlgorithm
from repro.engine import get_engine
from repro.graphcore import build_grid
from repro.substrates.cole_vishkin import ColeVishkinAlgorithm, cv_iterations
from repro.substrates.defective import DefectiveRefinementAlgorithm
from repro.substrates.hpartition import _Peeler
from repro.substrates.linial import LinialAlgorithm, linial_schedule
from repro.substrates.reduction import BasicReductionAlgorithm, BlockedReductionAlgorithm

GRAPH = build_grid(20, 20)
N = GRAPH.n
DENSE = {v: v for v in range(N)}
_Q0 = linial_schedule(N, GRAPH.max_degree)[0][0]
# the grid's rows as rooted paths: every node's parent is its left neighbor
ROWS = {v: (v - 1 if v % 20 else None) for v in range(N)}
_CV = {"parent": ROWS, "initial_coloring": DENSE, "iterations": cv_iterations(N)}
# a stalled peel runs to the round budget on the per-node path
MAX_ROUNDS = 50
# Lemma 5.1 on the grid's checkerboard: every edge is a cross edge, and
# every A node labels its neighbors in repr order (d = 4)
_SIDE = {v: "AB"[(v // 20 + v % 20) % 2] for v in range(N)}
_LABELS = {
    v: dict(enumerate(sorted(GRAPH.neighbors(v), key=repr), start=1))
    for v in range(N)
    if _SIDE[v] == "A"
}
_MERGE = {"side": _SIDE, "labels": _LABELS, "used": {}, "palette": 8, "d": 4}

# (algorithm, extras, the decline reason the kernel must disclose)
CASES = [
    pytest.param(LinialAlgorithm(), {"m0": N}, "missing linial extras",
                 id="linial-missing-extras"),
    pytest.param(LinialAlgorithm(), {"initial_coloring": {**DENSE, N + 3: 0}, "m0": N},
                 "per-node table is not a total dense map", id="linial-non-dense"),
    pytest.param(LinialAlgorithm(),
                 {"initial_coloring": {**DENSE, 0: _Q0.q ** (_Q0.d + 1)}, "m0": N},
                 "color does not fit in q^(d+1)", id="linial-color-too-large"),
    pytest.param(DefectiveRefinementAlgorithm(), {"initial_coloring": DENSE, "q": 5},
                 "missing defective-refinement extras", id="defective-missing-extras"),
    pytest.param(DefectiveRefinementAlgorithm(),
                 {"initial_coloring": {**DENSE, N + 3: 0}, "q": 23, "d": 1},
                 "per-node table is not a total dense map", id="defective-non-dense"),
    pytest.param(DefectiveRefinementAlgorithm(),
                 {"initial_coloring": {**DENSE, 0: 23 ** 2}, "q": 23, "d": 1},
                 "color does not fit in q^(d+1)", id="defective-color-too-large"),
    pytest.param(DefectiveRefinementAlgorithm(), {"initial_coloring": DENSE, "q": 0, "d": 1},
                 "degenerate (q, d)", id="defective-degenerate-q"),
    pytest.param(DefectiveRefinementAlgorithm(), {"initial_coloring": DENSE, "q": 23, "d": -1},
                 "degenerate (q, d)", id="defective-degenerate-d"),
    pytest.param(_Peeler(), {}, "missing threshold", id="peel-missing-threshold"),
    pytest.param(_Peeler(), {"threshold": "2"}, "non-numeric threshold",
                 id="peel-string-threshold"),
    pytest.param(_Peeler(), {"threshold": True}, "non-numeric threshold",
                 id="peel-bool-threshold"),
    pytest.param(ColeVishkinAlgorithm(), {"parent": ROWS, "initial_coloring": DENSE},
                 "missing cole-vishkin extras", id="cv-missing-extras"),
    pytest.param(ColeVishkinAlgorithm(), {**_CV, "parent": list(ROWS.values())},
                 "parent map is not a dict", id="cv-non-dict-parent"),
    # node 5's parent is a far-away node: only the CSR shows the decline,
    # so the sharded runtime learns it from the workers' init stats
    pytest.param(ColeVishkinAlgorithm(), {**_CV, "parent": {**ROWS, 5: 300}},
                 "parent is not a neighbor", id="cv-parent-not-neighbor"),
    pytest.param(ColeVishkinAlgorithm(), {**_CV, "iterations": -1},
                 "negative iterations", id="cv-negative-iterations"),
    # node 1 and its parent 0 xor to int64's minimum
    pytest.param(ColeVishkinAlgorithm(),
                 {**_CV, "initial_coloring": {**DENSE, 0: -2 ** 63, 1: 0}},
                 "color bit width out of range", id="cv-wide-colors"),
    pytest.param(BasicReductionAlgorithm(), {"coloring": DENSE, "m": N},
                 "missing basic-reduction extras", id="basic-missing-extras"),
    pytest.param(BasicReductionAlgorithm(), {"coloring": DENSE, "m": N, "target": 0},
                 "non-positive target", id="basic-non-positive-target"),
    pytest.param(BasicReductionAlgorithm(), {"coloring": DENSE, "m": N - 5, "target": 5},
                 "color >= m", id="basic-color-at-least-m"),
    pytest.param(BlockedReductionAlgorithm(), {"coloring": DENSE, "block": 4, "palette": 5},
                 "degenerate (block, palette)", id="kw-degenerate"),
    pytest.param(CrossMergeAlgorithm(), {k: v for k, v in _MERGE.items() if k != "d"},
                 "missing cross-merge extras", id="merge-missing-extras"),
    pytest.param(CrossMergeAlgorithm(), {**_MERGE, "side": {**_SIDE, 7: "C"}},
                 "side is not A or B", id="merge-side-not-a-or-b"),
    pytest.param(CrossMergeAlgorithm(), {**_MERGE, "palette": -1},
                 "palette is not a non-negative int", id="merge-negative-palette"),
    pytest.param(CrossMergeAlgorithm(), {**_MERGE, "used": {1: [3], 2: [8]}},
                 "used color is not an int below the palette", id="merge-used-out-of-range"),
    pytest.param(CrossMergeAlgorithm(), {**_MERGE, "labels": {**_LABELS, 0: {2: 1}}},
                 "label keys are not 1..k", id="merge-label-keys"),
    # node 0's first partner turned A: its request would go unanswered
    pytest.param(CrossMergeAlgorithm(), {**_MERGE, "side": {**_SIDE, 1: "A"}},
                 "label partner is not a B-side neighbor", id="merge-partner-a-side"),
    # a far-away B partner: only the CSR shows the decline
    pytest.param(CrossMergeAlgorithm(), {**_MERGE, "labels": {**_LABELS, 0: {1: 1, 2: 300}}},
                 "label partner is not a B-side neighbor", id="merge-partner-not-neighbor"),
    pytest.param(CrossMergeAlgorithm(), {**_MERGE, "d": 5},
                 "d is not the largest label count", id="merge-d-too-large"),
    pytest.param(CrossMergeAlgorithm(), {**_MERGE, "d": 30},
                 "2d exceeds max_rounds", id="merge-2d-over-max-rounds"),
    pytest.param(CrossMergeAlgorithm(), {**_MERGE, "palette": 10 ** 6},
                 "merge mask too large", id="merge-mask-too-large"),
    pytest.param(CrossMergeAlgorithm(), {**_MERGE, "labels": {}, "d": 0},
                 "no labelled A node", id="merge-no-labels"),
]


def _outcome(engine, algorithm, extras, graph=GRAPH, **kwargs):
    try:
        result = get_engine(engine).run(
            graph, algorithm, extras=dict(extras), max_rounds=MAX_ROUNDS, **kwargs
        )
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome under test
        return ("raised", type(exc), str(exc))
    return (
        "ran",
        list(result.outputs.items()),
        result.rounds,
        result.messages,
        list(result.round_messages),
    )


def _assert_declined(algorithm, extras, reason, graph=GRAPH):
    with obs.collect() as runtime:
        vector = _outcome("vector", algorithm, extras, graph)
    reference = _outcome("reference", algorithm, extras, graph)
    assert vector == reference
    counters = runtime.snapshot()["counters"]
    key = f"kernel.fallback[kernel={algorithm.name},reason={reason}]"
    assert counters.get(key) == 1, sorted(counters)
    assert not any(k.startswith("kernel.dispatch") for k in counters)


@pytest.mark.parametrize("algorithm,extras,reason", CASES)
def test_decline_matches_reference_and_is_disclosed(algorithm, extras, reason):
    _assert_declined(algorithm, extras, reason)


# ---- the same cases on networkx: grid coordinates as tuple ids ----------


def _label(v):
    return divmod(v, 20)


NX_GRID = nx.relabel_nodes(GRAPH.to_networkx(), _label)


def _relabeled(extras):
    """``extras`` for ``NX_GRID``: every key of a node table relabeled
    (ids outside the grid too), and the parent map's and the label rows'
    values as well."""
    out = dict(extras)
    for key in ("initial_coloring", "coloring", "parent", "side", "used", "labels"):
        if isinstance(out.get(key), dict):
            out[key] = {_label(v): c for v, c in out[key].items()}
    if isinstance(out.get("parent"), dict):
        out["parent"] = {
            v: (None if p is None else _label(p)) for v, p in out["parent"].items()
        }
    if isinstance(out.get("labels"), dict):
        out["labels"] = {
            v: {i: _label(p) for i, p in row.items()} for v, row in out["labels"].items()
        }
    return out


@pytest.mark.parametrize("algorithm,extras,reason", CASES)
def test_decline_on_nx_matches_compact(algorithm, extras, reason):
    _assert_declined(algorithm, _relabeled(extras), reason, graph=NX_GRID)


_NX_IDS = {_label(v): v for v in range(N)}
_NX_CV = _relabeled(_CV)
_NX_MERGE = _relabeled(_MERGE)

#: Declines only an nx input can show: the tables are read by node id,
#: so a key set that is not exactly the graph's nodes, or a parent that
#: is not one of them, is declined before the kernel runs.
NX_CASES = [
    pytest.param(LinialAlgorithm(),
                 {"initial_coloring": {k: c for k, c in _NX_IDS.items() if c != 7},
                  "m0": N},
                 "per-node table is not a total dense map", id="table-missing-a-node"),
    pytest.param(LinialAlgorithm(),
                 {"initial_coloring": {**_NX_IDS, ("elsewhere", 0): N}, "m0": N + 1},
                 "per-node table is not a total dense map", id="table-key-outside-graph"),
    # as many keys as nodes, but one of them is not a node
    pytest.param(BasicReductionAlgorithm(),
                 {"coloring": {(k if c != 7 else ("elsewhere", 0)): c
                               for k, c in _NX_IDS.items()},
                  "m": N, "target": 5},
                 "per-node table is not a total dense map", id="table-key-swapped-out"),
    pytest.param(BasicReductionAlgorithm(),
                 {"coloring": {**_NX_IDS, (0, 7): None}, "m": N, "target": 5},
                 "non-int node key or value", id="table-none-value"),
    pytest.param(ColeVishkinAlgorithm(),
                 {**_NX_CV, "parent": {**_NX_CV["parent"], (0, 5): ("elsewhere", 0)}},
                 "parent outside the graph", id="parent-outside-graph"),
    pytest.param(ColeVishkinAlgorithm(),
                 {**_NX_CV, "parent": {**_NX_CV["parent"], (0, 5): [0, 4]}},
                 "parent outside the graph", id="parent-unhashable"),
    pytest.param(CrossMergeAlgorithm(),
                 {**_NX_MERGE, "labels": {**_NX_MERGE["labels"],
                                          (0, 0): {1: (0, 1), 2: ("elsewhere", 0)}}},
                 "label partner is not a B-side neighbor", id="merge-partner-outside-graph"),
    pytest.param(CrossMergeAlgorithm(),
                 {**_NX_MERGE, "labels": {**_NX_MERGE["labels"], (0, 0): {1: [0, 1]}}},
                 "label partner is not a B-side neighbor", id="merge-partner-unhashable"),
]


@pytest.mark.parametrize("algorithm,extras,reason", NX_CASES)
def test_nx_only_decline_matches_reference(algorithm, extras, reason):
    _assert_declined(algorithm, extras, reason, graph=NX_GRID)


@pytest.mark.parametrize(
    "kwargs",
    [{"crashes": {(3, 4): 1}}, {"track_bandwidth": True}],
    ids=["crashes", "bandwidth"],
)
def test_crash_and_bandwidth_runs_on_nx_stay_per_node(kwargs):
    # per-round node state no closed-form replay models: never dispatched
    extras = {"initial_coloring": _NX_IDS, "m0": N}
    with obs.collect() as runtime:
        vector = _outcome("vector", LinialAlgorithm(), extras, NX_GRID, **kwargs)
    reference = _outcome("reference", LinialAlgorithm(), extras, NX_GRID, **kwargs)
    assert vector == reference
    assert vector[0] == "ran"
    counters = runtime.snapshot()["counters"]
    assert not any(k.startswith("kernel.") for k in counters), sorted(counters)


def test_directed_nx_input_is_declined():
    # the programs read symmetric rows; a digraph's rows are successors
    graph = nx.DiGraph(nx.relabel_nodes(nx.path_graph(30), _label))
    graph.remove_edges_from([((0, v + 1), (0, v)) for v in range(19)])
    extras = {"initial_coloring": {v: i for i, v in enumerate(graph)}, "m0": 30}
    _assert_declined(LinialAlgorithm(), extras, "directed graph", graph=graph)
