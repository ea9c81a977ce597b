"""One interning boundary: every graph form reads node tables alike.

A round program sees only dense arrays; node-keyed extras cross into
them, and outputs back out, in :mod:`repro.kernels.program` alone. So a
node table must take the same path on every form of one graph — the
``CompactGraph``, its int-id networkx twin, the twin relabeled to tuple
ids, and a 3-shard scope over the compact graph: the kernel (or the
shard program) dispatches on all of them, or declines on all of them
with the same reason. Whatever the path, each form's run gives the
reference engine's outcome on that form.

The tables are generated: total ones, and ones with a node missing, an
extra key, a key aliased by a hash-equal ``2.0`` or ``True``, a ``None``,
bool, float or wider-than-int64 value, and for Cole–Vishkin stray keys
in the parent map and parents that are aliased, outside the graph or
unhashable.
"""

import re

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.engine import get_engine, use_engine
from repro.graphcore import build_grid
from repro.local.network import run_on_graph
from repro.shard import partition, sharding
from repro.substrates.cole_vishkin import ColeVishkinAlgorithm, cv_iterations
from repro.substrates.linial import LinialAlgorithm
from repro.substrates.reduction import BasicReductionAlgorithm

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.engine.base.EngineFallbackWarning"
)

SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

COLS = 5
GRAPH = build_grid(4, COLS)
N = GRAPH.n
MAX_ROUNDS = 50
TWIN = GRAPH.to_networkx()


def _label(x):
    """A tuple-form id: grid coordinates for a number (``2.0`` and
    ``True`` stay hash-equal aliases of their node's coordinates), any
    other value as it is."""
    return divmod(x, COLS) if isinstance(x, (int, float)) else x


TUPLES = nx.relabel_nodes(TWIN, _label)

#: values a node -> int table may hold that no int64 vector can
ODD_VALUES = [None, True, False, 2.0, 2 ** 63, -(2 ** 63) - 1]
#: the grid's rows as rooted paths: every node's parent is its left neighbor
ROWS = {v: (v - 1 if v % COLS else None) for v in range(N)}


def _aliases(node):
    """Keys hash-equal to ``node`` that are not ints."""
    return [float(node)] + ([bool(node)] if node in (0, 1) else [])


def _realias(draw, table, node):
    if node in table:
        value = table.pop(node)
        table[draw(st.sampled_from(_aliases(node)))] = value


@st.composite
def node_tables(draw, scale=1, bends=2):
    """``{v: scale * v}``, bent up to ``bends`` times."""
    table = {v: scale * v for v in range(N)}
    for _ in range(draw(st.integers(0, bends))):
        kind = draw(st.sampled_from(["missing", "extra", "alias", "value"]))
        node = draw(st.integers(0, N - 1))
        if kind == "missing":
            table.pop(node, None)
        elif kind == "extra":
            key = draw(st.sampled_from([N, N + 3, -1, "x", 2.5]))
            table[key] = draw(st.integers(0, N - 1))
        elif kind == "alias":
            _realias(draw, table, node)
        else:
            table[node] = draw(st.sampled_from(ODD_VALUES))
    return table


@st.composite
def parent_maps(draw):
    """:data:`ROWS`, bent up to twice."""
    parent = dict(ROWS)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(
            ["stray", "alias-key", "alias-value", "root", "any-node", "outside", "unhashable"]
        ))
        node = draw(st.integers(0, N - 1))
        if kind == "stray":
            key = draw(st.sampled_from(["x", N + 4, 2.5, -3]))
            parent[key] = draw(st.sampled_from([0, None, "y"]))
        elif kind == "alias-key":
            _realias(draw, parent, node)
        elif kind == "alias-value":
            if parent.get(node) is not None:
                parent[node] = draw(st.sampled_from(_aliases(parent[node])))
        elif kind == "root":
            parent[node] = None
        elif kind == "any-node":
            parent[node] = draw(st.integers(0, N - 1))
        elif kind == "outside":
            parent[node] = draw(st.sampled_from([N, N + 7, -1, "z", 1.5]))
        else:
            parent[node] = [0, node]
    return parent


def _relabeled(extras):
    """``extras`` for :data:`TUPLES`: every key of a node table through
    :func:`_label`, and the parent map's values too."""
    out = dict(extras)
    for key in ("initial_coloring", "coloring"):
        if key in out:
            out[key] = {_label(v): c for v, c in out[key].items()}
    if "parent" in out:
        out["parent"] = {
            _label(v): (p if p is None or isinstance(p, list) else _label(p))
            for v, p in out["parent"].items()
        }
    return out


def _outcome(run):
    try:
        result = run()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome under test
        return ("raised", type(exc), str(exc))
    return (
        "ran",
        list(result.outputs.items()),
        result.rounds,
        result.messages,
        list(result.round_messages),
    )


def _engine_run(engine, graph, algorithm, extras):
    return _outcome(lambda: get_engine(engine).run(
        graph, algorithm, extras=dict(extras), max_rounds=MAX_ROUNDS
    ))


def _path(counters, layer):
    """``dispatch`` or the decline reason the run disclosed on ``layer``
    (``kernel`` or ``shard``), which must have counted exactly one."""
    taken = {k: c for k, c in counters.items()
             if k.startswith((f"{layer}.dispatch", f"{layer}.fallback"))}
    assert list(taken.values()) == [1], sorted(counters)
    (key,) = taken
    if key.startswith(f"{layer}.dispatch"):
        return "dispatch"
    return re.search(r",reason=(.*)\]$", key).group(1)


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    return partition(GRAPH, 3, tmp_path_factory.mktemp("intern") / "bundle")


def _assert_one_boundary(algorithm, extras, bundle):
    paths = {}
    for form, graph, form_extras in (
        ("compact", GRAPH, extras),
        ("twin", TWIN, extras),
        ("tuples", TUPLES, _relabeled(extras)),
    ):
        with obs.collect() as runtime:
            vector = _engine_run("vector", graph, algorithm, form_extras)
        reference = _engine_run("reference", graph, algorithm, form_extras)
        assert vector == reference, form
        paths[form] = _path(runtime.snapshot()["counters"], "kernel")
    with obs.collect() as runtime, sharding(GRAPH, bundle, inline=True):
        with use_engine("reference"):
            sharded = _outcome(lambda: run_on_graph(
                GRAPH, algorithm, extras=dict(extras), max_rounds=MAX_ROUNDS,
            ))
    assert sharded == _engine_run("reference", GRAPH, algorithm, extras), "sharded"
    paths["sharded"] = _path(runtime.snapshot()["counters"], "shard")
    assert len(set(paths.values())) == 1, paths


@SETTINGS
@given(table=node_tables(scale=7))
def test_linial_tables_take_one_path(table, bundle):
    extras = {"initial_coloring": table, "m0": 7 * N}
    _assert_one_boundary(LinialAlgorithm(), extras, bundle)


@SETTINGS
@given(table=node_tables())
def test_basic_reduction_tables_take_one_path(table, bundle):
    extras = {"coloring": table, "m": N, "target": GRAPH.max_degree + 1}
    _assert_one_boundary(BasicReductionAlgorithm(), extras, bundle)


@SETTINGS
@given(table=node_tables(bends=1), parent=parent_maps())
def test_cole_vishkin_maps_take_one_path(table, parent, bundle):
    extras = {"parent": parent, "initial_coloring": table, "iterations": cv_iterations(N)}
    _assert_one_boundary(ColeVishkinAlgorithm(), extras, bundle)
