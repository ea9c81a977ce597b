"""Misra–Gries (Delta+1)-edge-coloring — the centralized quality reference.

Vizing's theorem ([36] in the paper) guarantees every simple graph admits a
(Delta+1)-edge-coloring; Misra & Gries give a constructive O(nm) algorithm
(maximal fans + cd-path inversion). The paper's contribution is approaching
``Delta + o(Delta)`` *distributedly*; this module provides the color-count
gold standard the benchmarks compare against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.errors import ColoringError
from repro.graphs.properties import iter_edges, max_degree, number_of_edges
from repro.types import Edge, EdgeColoring, NodeId, edge_key


class _State:
    """Edge colors plus, per vertex, the inverse map color -> partner."""

    def __init__(self, graph: nx.Graph, palette: int):
        self.graph = graph
        self.palette = palette
        self.color: Dict[Edge, int] = {}
        self.used: Dict[NodeId, Dict[int, NodeId]] = {v: {} for v in graph.nodes()}

    def first_free(self, v: NodeId) -> int:
        for c in range(self.palette):
            if c not in self.used[v]:
                return c
        raise ColoringError(f"no free color at {v!r} within palette {self.palette}")

    def is_free(self, v: NodeId, c: int) -> bool:
        return c not in self.used[v]

    def set_color(self, u: NodeId, v: NodeId, c: int) -> None:
        if c in self.used[u] or c in self.used[v]:
            raise ColoringError(f"color {c} not free on ({u!r},{v!r})")
        e = edge_key(u, v)
        if e in self.color:
            raise ColoringError(f"edge {e!r} already colored; unset first")
        self.color[e] = c
        self.used[u][c] = v
        self.used[v][c] = u

    def unset(self, u: NodeId, v: NodeId) -> Optional[int]:
        e = edge_key(u, v)
        old = self.color.pop(e, None)
        if old is not None:
            del self.used[u][old]
            del self.used[v][old]
        return old


def _maximal_fan(state: _State, u: NodeId, v: NodeId) -> List[NodeId]:
    """A maximal fan of u starting at v: each subsequent spoke's edge color
    is free at the previous spoke."""
    fan = [v]
    candidates = {
        w
        for w in state.graph.neighbors(u)
        if edge_key(u, w) in state.color and w != v
    }
    extended = True
    while extended:
        extended = False
        last = fan[-1]
        for w in sorted(candidates, key=repr):
            if state.is_free(last, state.color[edge_key(u, w)]):
                fan.append(w)
                candidates.discard(w)
                extended = True
                break
    return fan


def _invert_cd_path(state: _State, u: NodeId, c: int, d: int) -> None:
    """Invert the maximal path starting at u whose edges alternate d, c.

    c is free at u, so u is an endpoint of its c/d alternating component,
    which is therefore a simple path. All path edges are unset before
    re-coloring so the inverse maps never clobber each other.
    """
    path: List[Tuple[Edge, int]] = []
    current = u
    want = d
    while True:
        partner = state.used[current].get(want)
        if partner is None:
            break
        e = edge_key(current, partner)
        path.append((e, want))
        current = partner
        want = c if want == d else d
    for (a, b), _ in path:
        state.unset(a, b)
    for (a, b), old in path:
        state.set_color(a, b, c if old == d else d)


def _rotate_fan(state: _State, u: NodeId, fan: List[NodeId]) -> None:
    """Shift each fan edge's color one spoke backwards; (u, fan[-1]) ends up
    uncolored. Valid because color(u, fan[i+1]) is free at fan[i]."""
    shifted = [state.color[edge_key(u, w)] for w in fan[1:]]
    for w in fan[1:]:
        state.unset(u, w)
    for w, c in zip(fan[:-1], shifted):
        state.set_color(u, w, c)


def _color_edge(state: _State, u: NodeId, v: NodeId) -> None:
    fan = _maximal_fan(state, u, v)
    c = state.first_free(u)
    d = state.first_free(fan[-1])
    if c != d and not state.is_free(u, d):
        _invert_cd_path(state, u, c, d)
    # d is now free at u (the inversion recolored u's d-edge to c, and the
    # path cannot return to u). Find a prefix fan ending at a spoke where d
    # is free; the Misra-Gries invariant guarantees one exists.
    chosen = None
    for i, w in enumerate(fan):
        if i > 0:
            col = state.color.get(edge_key(u, fan[i]))
            if col is None or not state.is_free(fan[i - 1], col):
                break  # inversion broke the fan beyond this point
        if state.is_free(w, d):
            chosen = i
            break
    if chosen is None:
        raise ColoringError("Misra-Gries: no valid fan prefix found")
    prefix = fan[: chosen + 1]
    _rotate_fan(state, u, prefix)
    state.set_color(u, prefix[-1], d)


def misra_gries_edge_coloring(graph: nx.Graph) -> EdgeColoring:
    """A proper edge coloring with at most Delta+1 colors (Vizing bound)."""
    delta = max_degree(graph)
    if number_of_edges(graph) == 0:
        return {}
    state = _State(graph, palette=delta + 1)
    # edges() yields traversal-dependent orientations; canonicalize through
    # edge_key so the sweep order and each fan's center are representation-
    # independent (CompactGraph vs networkx, any insertion order).
    canonical = sorted(
        (edge_key(u, v) for u, v in iter_edges(graph)),
        key=lambda e: (repr(e[0]), repr(e[1])),
    )
    for u, v in canonical:
        if edge_key(u, v) not in state.color:
            _color_edge(state, u, v)
    for u, v in iter_edges(graph):
        if edge_key(u, v) not in state.color:
            raise ColoringError(f"edge ({u!r},{v!r}) left uncolored")
    return dict(state.color)


# ---------------------------------------------------------------- registry

from repro import registry as _registry
from repro.types import num_colors as _num_colors


def _run_vizing(graph: nx.Graph) -> _registry.AlgorithmRun:
    coloring = misra_gries_edge_coloring(graph)
    return _registry.AlgorithmRun(
        name="vizing",
        kind="edge-coloring",
        coloring=coloring,
        colors_used=_num_colors(coloring),
    )


_registry.register(
    _registry.AlgorithmSpec(
        name="vizing",
        family="baseline",
        kind="edge-coloring",
        summary="Misra-Gries constructive Vizing: the centralized color-count reference",
        color_bound="Delta + 1",
        rounds_bound="centralized",
        runner=_run_vizing,
        invariants=("proper-edge-coloring", "palette-bound"),
        palette_bound=lambda ctx: ctx.delta + 1,
    )
)
