"""Centralized greedy colorings — simple correctness and quality references.

Sequential greedy vertex coloring uses at most Delta+1 colors; sequential
greedy edge coloring at most 2*Delta-1 (the palette any distributed
(2Delta-1) algorithm such as Panconesi–Rizzi [33] targets).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import networkx as nx

from repro.errors import ColoringError
from repro.graphcore import CompactGraph
from repro.graphs.properties import iter_edges
from repro.types import Edge, EdgeColoring, NodeId, VertexColoring, edge_key


def greedy_vertex_coloring(
    graph: nx.Graph, order: Optional[Iterable[NodeId]] = None
) -> VertexColoring:
    """First-fit vertex coloring along ``order`` (default: sorted ids).
    Uses at most Delta+1 colors."""
    if order is None:
        if isinstance(graph, CompactGraph):
            # CSR sweep kernel: same repr order, same first-fit rule,
            # same dict insertion order — just no per-node Python sets.
            from repro.kernels.greedy import greedy_vertex_compact

            return greedy_vertex_compact(graph)
        order = sorted(graph.nodes(), key=repr)
    coloring: VertexColoring = {}
    for v in order:
        used = {coloring[u] for u in graph.neighbors(v) if u in coloring}
        color = 0
        while color in used:
            color += 1
        coloring[v] = color
    return coloring


def greedy_edge_coloring(
    graph: nx.Graph, order: Optional[Iterable[Edge]] = None
) -> EdgeColoring:
    """First-fit edge coloring; uses at most 2*Delta-1 colors."""
    if order is None:
        if isinstance(graph, CompactGraph):
            from repro.kernels.greedy import greedy_edge_compact

            return greedy_edge_compact(graph)
        order = sorted(
            (edge_key(u, v) for u, v in iter_edges(graph)),
            key=lambda e: (repr(e[0]), repr(e[1])),
        )
    coloring: EdgeColoring = {}
    incident: Dict[NodeId, set] = {v: set() for v in graph.nodes()}
    for u, v in order:
        used = incident[u] | incident[v]
        color = 0
        while color in used:
            color += 1
        coloring[edge_key(u, v)] = color
        incident[u].add(color)
        incident[v].add(color)
    return coloring


# ---------------------------------------------------------------- registry

from repro import registry as _registry
from repro.types import num_colors as _num_colors


def _run_greedy(graph: nx.Graph) -> _registry.AlgorithmRun:
    coloring = greedy_edge_coloring(graph)
    return _registry.AlgorithmRun(
        name="greedy",
        kind="edge-coloring",
        coloring=coloring,
        colors_used=_num_colors(coloring),
    )


def _run_greedy_vertex(graph: nx.Graph) -> _registry.AlgorithmRun:
    coloring = greedy_vertex_coloring(graph)
    return _registry.AlgorithmRun(
        name="greedy-vertex",
        kind="vertex-coloring",
        coloring=coloring,
        colors_used=_num_colors(coloring),
    )


_registry.register(
    _registry.AlgorithmSpec(
        name="greedy",
        family="baseline",
        kind="edge-coloring",
        summary="Sequential greedy edge coloring (the 2*Delta-1 folklore bound)",
        color_bound="2*Delta - 1",
        rounds_bound="centralized",
        runner=_run_greedy,
        invariants=("proper-edge-coloring", "palette-bound"),
        distributed=False,
        compact_ok=True,  # nodes()/edges()/neighbors() only
    )
)
_registry.register(
    _registry.AlgorithmSpec(
        name="greedy-vertex",
        family="baseline",
        kind="vertex-coloring",
        summary="Sequential greedy vertex coloring",
        color_bound="Delta + 1",
        rounds_bound="centralized",
        runner=_run_greedy_vertex,
        invariants=("proper-vertex-coloring", "palette-bound"),
        distributed=False,
        compact_ok=True,  # nodes()/neighbors() only
    )
)
