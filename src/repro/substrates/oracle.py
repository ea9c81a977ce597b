"""The coloring oracle the paper invokes as reference [17].

The paper uses Fraigniaud–Heinrich–Kosowski's deterministic
(Delta+1)-vertex-coloring (and its (2Delta-1)-edge-coloring corollary) as a
black box. This module provides it as two functions,
:func:`oracle_vertex_coloring` and :func:`oracle_edge_coloring`, with the
*identical output contract* — a proper coloring with at most ``Delta + 1``
(resp. ``2*Delta - 1``) colors, deterministically, from ids or from any
proper initial coloring — built from Linial's algorithm plus the
Kuhn–Wattenhofer reduction. Every call checks a supplied initial coloring,
its own output and the palette bound, and raises ``ColoringError`` on a
violation.

Round accounting is double-entry (see :mod:`repro.local.costmodel`): every
invocation records the rounds the simulator actually executed *and* the
modeled ``O~(sqrt(Delta)) + O(log* n)`` bound of [17], which is what the
paper's running-time rows are stated in.

The oracles also implement the Section 3 optimization: an initial proper
coloring (e.g. the parent graph's O(Delta^2)-coloring restricted to a
subgraph) can be supplied so the O(log* n) Linial phase is paid only once at
the top level.
"""

from __future__ import annotations

from typing import Any, Optional

import networkx as nx
import numpy as np

from repro.errors import ColoringError
from repro.graphcore import CompactGraph, Interned
from repro.graphs.properties import iter_edges, max_degree, number_of_edges
from repro.local import RoundLedger
from repro.local.costmodel import fhk_edge_rounds, fhk_vertex_rounds
from repro.graphs.linegraph import line_view
from repro.substrates.linial import linial_coloring
from repro.substrates.reduction import kuhn_wattenhofer_reduction
from repro.types import EdgeColoring, VertexColoring, edge_key


def _view(graph: Any) -> Any:
    """The one CSR view every pass of an oracle call reads. A digraph
    stays as it is: its Delta counts in- and out-arcs, a view's only the
    successor rows the engines step over."""
    if isinstance(graph, (CompactGraph, Interned)) or graph.is_directed():
        return graph
    return Interned(graph)


def _dense_colors(graph: Any, coloring: VertexColoring) -> Optional[np.ndarray]:
    """``coloring`` as an int64 vector in the view's node order, or None
    when some node is uncolored or some color is not a plain int."""
    colors = list(map(coloring.get, graph.nodes()))
    if set(map(type, colors)) - {int}:
        return None
    try:
        return np.array(colors, dtype=np.int64)
    except OverflowError:
        return None


def _check_proper(graph: Any, coloring: VertexColoring, what: str) -> None:
    """Raise on the first monochromatic edge in ``iter_edges`` order —
    one array comparison over a view's edge slots, an edge walk for a
    digraph or for colors the array cannot hold (that walk raises the
    ``KeyError`` of an uncolored node)."""
    colors = None if isinstance(graph, nx.Graph) else _dense_colors(graph, coloring)
    if colors is None:
        for u, v in iter_edges(graph):
            if coloring[u] == coloring[v]:
                raise ColoringError(f"{what}: edge ({u!r},{v!r}) is monochromatic")
        return
    indptr = np.asarray(graph.indptr)
    indices = np.asarray(graph.indices)
    src = np.repeat(np.arange(colors.size, dtype=np.int64), np.diff(indptr))
    # an edge's slot at its endpoint first in node order, as iter_edges
    # lists it; a self-loop's one slot is its own
    bad = np.flatnonzero((indices >= src) & (colors[src] == colors[indices]))
    if bad.size:
        ids = graph.nodes()
        u, v = ids[int(src[bad[0]])], ids[int(indices[bad[0]])]
        raise ColoringError(f"{what}: edge ({u!r},{v!r}) is monochromatic")


def oracle_vertex_coloring(
    graph: nx.Graph,
    initial: Optional[VertexColoring] = None,
    ledger: Optional[RoundLedger] = None,
    label: str = "oracle-vertex",
) -> VertexColoring:
    """A proper coloring of ``graph`` with at most ``Delta + 1`` colors.

    ``initial`` may carry a proper coloring from an enclosing computation
    (Section 3's "colors instead of ids" trick); otherwise node ids break
    symmetry.
    """
    n = graph.number_of_nodes()
    if n == 0:
        return {}
    delta = max_degree(graph)
    view = _view(graph)
    if initial is not None:
        _check_proper(view, initial, "oracle initial coloring")

    sub = RoundLedger(label=label)
    coloring = linial_coloring(view, initial=initial, ledger=sub)
    coloring = kuhn_wattenhofer_reduction(view, coloring, target=delta + 1, ledger=sub)
    _check_proper(view, coloring, "oracle output")
    used = max(coloring.values(), default=-1) + 1
    if used > delta + 1:
        raise ColoringError(f"oracle used {used} > {delta + 1} colors")
    if ledger is not None:
        ledger.add(
            label,
            actual=sub.total_actual,
            modeled=fhk_vertex_rounds(delta, n),
        )
    return coloring


def oracle_edge_coloring(
    graph: nx.Graph,
    initial: Optional[EdgeColoring] = None,
    ledger: Optional[RoundLedger] = None,
    label: str = "oracle-edge",
) -> EdgeColoring:
    """A proper edge coloring with at most ``2*Delta - 1`` colors, computed
    as a vertex coloring of the line graph — which a LOCAL network
    simulates at O(1) overhead.
    """
    if number_of_edges(graph) == 0:
        return {}
    delta = max_degree(graph)
    target = 2 * delta - 1
    line = line_view(graph)
    initial_vertex: Optional[VertexColoring] = None
    if initial is not None:
        initial_vertex = {edge_key(u, v): c for (u, v), c in initial.items()}
    sub = RoundLedger(label=label)
    coloring = linial_coloring(line, initial=initial_vertex, ledger=sub)
    coloring = kuhn_wattenhofer_reduction(
        line, coloring, target=line.max_degree + 1, ledger=sub
    )
    _check_proper(line, coloring, "edge oracle output")
    used = max(coloring.values(), default=-1) + 1
    if used > target:
        raise ColoringError(f"edge oracle used {used} > {target} colors")
    if ledger is not None:
        ledger.add(
            label,
            actual=sub.total_actual,
            modeled=fhk_edge_rounds(delta, graph.number_of_nodes()),
        )
    return dict(coloring)


# ---------------------------------------------------------------- registry

from repro import registry as _registry
from repro.types import num_colors as _num_colors


def _run_oracle_vertex(graph: nx.Graph) -> _registry.AlgorithmRun:
    ledger = RoundLedger(label="oracle-vertex")
    coloring = oracle_vertex_coloring(graph, ledger=ledger)
    return _registry.AlgorithmRun(
        name="oracle-vertex",
        kind="vertex-coloring",
        coloring=coloring,
        colors_used=_num_colors(coloring),
        rounds_actual=ledger.total_actual,
        rounds_modeled=ledger.total_modeled,
    )


def _run_oracle_edge(graph: nx.Graph) -> _registry.AlgorithmRun:
    ledger = RoundLedger(label="oracle-edge")
    coloring = oracle_edge_coloring(graph, ledger=ledger)
    return _registry.AlgorithmRun(
        name="oracle-edge",
        kind="edge-coloring",
        coloring=coloring,
        colors_used=_num_colors(coloring),
        rounds_actual=ledger.total_actual,
        rounds_modeled=ledger.total_modeled,
    )


_registry.register(
    _registry.AlgorithmSpec(
        name="oracle-vertex",
        family="substrate",
        kind="vertex-coloring",
        summary="The [17] stand-in: Linial + Kuhn-Wattenhofer (Delta+1)-vertex-coloring",
        color_bound="Delta + 1",
        rounds_bound="measured O(Delta*log Delta + log* n); modeled O~(sqrt(Delta)) + O(log* n)",
        runner=_run_oracle_vertex,
        invariants=("proper-vertex-coloring", "palette-bound"),
        palette_bound=lambda ctx: ctx.delta + 1,
    )
)
_registry.register(
    _registry.AlgorithmSpec(
        name="oracle-edge",
        family="substrate",
        kind="edge-coloring",
        summary="The [17] stand-in on the line graph: (2*Delta-1)-edge-coloring",
        color_bound="2*Delta - 1",
        rounds_bound="measured O(Delta*log Delta + log* n); modeled O~(sqrt(Delta)) + O(log* n)",
        runner=_run_oracle_edge,
        invariants=("proper-edge-coloring", "palette-bound"),
        palette_bound=lambda ctx: max(2 * ctx.delta - 1, 0),
    )
)
