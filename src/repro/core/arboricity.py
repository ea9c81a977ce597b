"""Section 5: edge-coloring with Delta + o(Delta) colors for graphs of
bounded arboricity.

Pipeline:

* **Lemma 5.1** — ``merge_cross_edges``: given two pre-colored sides A
  (degree <= d) and B, color the A-B cross edges with a palette of
  ``Delta + d`` in O(d) rounds. Every A-vertex labels its cross edges
  ``1..d``; in label-round i, the B-endpoints assign colors (no two active
  edges share an A-endpoint, and a shared B-endpoint assigns distinct colors
  itself). Runs as a genuine LOCAL request/reply protocol.
* **Theorem 5.2** — ``edge_color_bounded_arboricity``: H-partition ([4]),
  color intra-set edges in parallel with the Section 4 star-partition
  (vertex-disjoint across sets, so one shared O(a) palette), then merge the
  cross edges level by level from the top: ``Delta + O(a)`` colors in
  ``O(a log n)`` rounds.
* **Theorem 5.3** — ``edge_color_orientation_connector``: the Figure 3
  connector with ``sqrt(Delta)``-size in-groups and ``sqrt(a_hat)``-size
  out-groups; coloring it with Theorem 5.2 splits G into classes of degree
  ``~sqrt(Delta)`` and arboricity ``~sqrt(a_hat)``, recolored in parallel
  with Theorem 5.2: ``Delta + O(sqrt(Delta a)) + O(a)`` colors.
* **Theorem 5.4** — ``edge_color_recursive``: the bipartite orientation
  connector applied ``x - 1`` times, each level costing a factor
  ``Delta^(1/x) + a_hat^(1/x) + 3`` of colors, the final classes colored by
  Theorem 5.2.
* **Corollary 5.5** — ``edge_color_delta_plus_o_delta``: the parameter
  choice giving ``Delta (1 + o(1))`` colors in O(log n) time whenever
  ``a = O(Delta^(1 - eps))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.errors import ColoringError, InvalidParameterError
from repro.graphs.orientation import Orientation
from repro.graphs.properties import (
    arboricity_bounds,
    iter_edges,
    max_degree,
    number_of_edges,
)
from repro.local import Context, Message, Node, NodeAlgorithm, RoundLedger, run_on_graph
from repro.core.connectors import OrientationConnector, build_orientation_connector
from repro.core.params import Section5Params, choose_section5_params
from repro.core.star_partition import _edge_subgraph, star_partition_edge_coloring
from repro.substrates.hpartition import h_partition
from repro.types import Edge, EdgeColoring, NodeId, dense_colors, edge_key, num_colors


# --------------------------------------------------------------------------
# Lemma 5.1 — cross-edge merge
# --------------------------------------------------------------------------


class CrossMergeAlgorithm(NodeAlgorithm):
    """The label-round protocol of Lemma 5.1.

    Context extras:
        side: node -> "A" | "B".
        labels: A-node -> {label (1-based) -> B-neighbor} for its cross edges.
        used: node -> iterable of palette colors already on incident edges.
        palette: palette size.
        d: the global maximum label.

    Schedule (round 0 = initialize): A sends the label-i request at round
    2i - 2, B assigns and replies at round 2i - 1, A records at round 2i.
    Total 2d rounds — O(d), matching the lemma.
    """

    name = "cross-merge"

    def initialize(self, node: Node, ctx: Context) -> None:
        node.state["used"] = set(ctx.node_input(node.id, "used", ()))
        node.state["assigned"] = {}
        node.state["output"] = node.state["assigned"]
        side = ctx.node_input(node.id, "side")
        node.state["side"] = side
        if side == "A":
            labels = ctx.node_input(node.id, "labels", {})
            node.state["labels"] = labels
            if not labels:
                node.halt()
                return
            self._send_request(node, 1)
        else:
            has_cross = any(
                ctx.extras["side"].get(u) == "A" for u in node.neighbors
            )
            if not has_cross:
                node.halt()

    def _send_request(self, node: Node, label: int) -> None:
        neighbor = node.state["labels"].get(label)
        if neighbor is not None:
            node.send(neighbor, ("req", label, tuple(node.state["used"])))

    def step(self, node: Node, inbox: List[Message], round_no: int, ctx: Context) -> None:
        d = ctx.extras["d"]
        if node.state["side"] == "A":
            if round_no % 2 == 1:
                return  # replies arrive on even rounds only
            # Even rounds: record the label-(round/2) reply, send next request.
            for msg in inbox:
                kind, label, color = msg.payload
                if kind != "rep":
                    raise ColoringError(f"A-node got unexpected {kind!r}")
                edge = edge_key(node.id, msg.sender)
                node.state["assigned"][edge] = color
                node.state["used"].add(color)
            next_label = round_no // 2 + 1
            if next_label <= d:
                self._send_request(node, next_label)
            if round_no >= 2 * max(node.state["labels"]):
                node.halt()
        else:
            if round_no % 2 == 0:
                return  # requests arrive on odd rounds only
            palette = ctx.extras["palette"]
            for msg in sorted(inbox, key=lambda m: repr(m.sender)):
                kind, label, their_used = msg.payload
                if kind != "req":
                    raise ColoringError(f"B-node got unexpected {kind!r}")
                blocked = node.state["used"] | set(their_used)
                color = next((c for c in range(palette) if c not in blocked), None)
                if color is None:
                    raise ColoringError(
                        f"merge palette {palette} exhausted at {node.id!r} "
                        f"(|blocked|={len(blocked)})"
                    )
                node.state["used"].add(color)
                edge = edge_key(node.id, msg.sender)
                node.state["assigned"][edge] = color
                node.send(msg.sender, ("rep", label, color))
            if round_no >= 2 * d - 1:
                node.halt()


def merge_cross_edges(
    graph: nx.Graph,
    side: Dict[NodeId, str],
    coloring: EdgeColoring,
    palette: int,
    ledger: Optional[RoundLedger] = None,
    label: str = "cross-merge",
) -> EdgeColoring:
    """Color the A-B cross edges of ``graph`` on top of the existing partial
    ``coloring`` (which must cover every non-cross edge of ``graph``),
    using colors below ``palette``. Returns the extended coloring."""
    cross: List[Edge] = []
    for u, v in iter_edges(graph):
        e = edge_key(u, v)
        if side[u] != side[v]:
            if e in coloring:
                raise InvalidParameterError(f"cross edge {e!r} already colored")
            cross.append(e)
        elif e not in coloring:
            raise InvalidParameterError(f"non-cross edge {e!r} is uncolored")
    if not cross:
        return dict(coloring)

    labels: Dict[NodeId, Dict[int, NodeId]] = {}
    for u, v in cross:
        a, b = (u, v) if side[u] == "A" else (v, u)
        labels.setdefault(a, {})
    for a in labels:
        partners = sorted(
            (v for v in graph.neighbors(a) if side[v] != side[a]), key=repr
        )
        labels[a] = {i: p for i, p in enumerate(partners, start=1)}
    d = max(len(m) for m in labels.values())

    used: Dict[NodeId, List[int]] = {}
    for (u, v), c in coloring.items():
        if graph.has_edge(u, v):
            used.setdefault(u, []).append(c)
            used.setdefault(v, []).append(c)

    result = run_on_graph(
        graph,
        CrossMergeAlgorithm(),
        extras={
            "side": side,
            "labels": labels,
            "used": used,
            "palette": palette,
            "d": d,
        },
    )
    merged = dict(coloring)
    for v, assigned in result.outputs.items():
        for e, c in assigned.items():
            previous = merged.get(e)
            if previous is not None and previous != c:
                raise ColoringError(f"conflicting merge assignment on {e!r}")
            merged[e] = c
    missing = [e for e in cross if e not in merged]
    if missing:
        raise ColoringError(f"merge left {len(missing)} cross edges uncolored")
    if ledger is not None:
        ledger.add(label, actual=result.rounds, modeled=2 * d)
    return merged


# --------------------------------------------------------------------------
# Results container
# --------------------------------------------------------------------------


@dataclass
class ArboricityColoringResult:
    """Outcome of a Section 5 edge coloring."""

    coloring: EdgeColoring
    colors_used: int
    palette_bound: int
    delta: int
    arboricity: int
    dhat: int
    ledger: RoundLedger = field(repr=False)
    params: Optional[Section5Params] = None

    @property
    def rounds_actual(self) -> float:
        return self.ledger.total_actual

    @property
    def rounds_modeled(self) -> float:
        return self.ledger.total_modeled

    @property
    def overhead_over_delta(self) -> float:
        """(colors - Delta) / Delta — the o(Delta) term, empirically."""
        if self.delta == 0:
            return 0.0
        return (self.colors_used - self.delta) / self.delta


def _resolve_arboricity(graph: nx.Graph, arboricity: Optional[int]) -> int:
    if arboricity is not None:
        if arboricity < 1:
            raise InvalidParameterError("arboricity bound must be >= 1")
        return arboricity
    return max(1, arboricity_bounds(graph).upper)


# --------------------------------------------------------------------------
# Theorem 5.2
# --------------------------------------------------------------------------


def edge_color_bounded_arboricity(
    graph: nx.Graph,
    arboricity: Optional[int] = None,
    q: float = 3.0,
    ledger: Optional[RoundLedger] = None,
    internal_x: int = 1,
) -> ArboricityColoringResult:
    """Theorem 5.2: a ``(Delta + O(a))``-edge-coloring in O(a log n) rounds.

    ``internal_x`` is the star-partition recursion depth for the intra-set
    edges — the paper notes this step "can be computed much faster in the
    expense of increasing the constant" (Theorem 4.1); deeper recursion
    trades intra-set colors for rounds.
    """
    own = RoundLedger(label="thm-5.2")
    a = _resolve_arboricity(graph, arboricity)
    delta = max_degree(graph)
    if number_of_edges(graph) == 0:
        return ArboricityColoringResult(
            coloring={}, colors_used=0, palette_bound=0, delta=delta,
            arboricity=a, dhat=0, ledger=own,
        )
    hp = h_partition(graph, arboricity=a, q=q, ledger=own)
    dhat = hp.threshold

    # Intra-set edges are vertex-disjoint across sets: one shared palette.
    # A cross edge is merged at the stage of its lower endpoint's level.
    internal: List[Edge] = []
    cross_levels = set()
    for u, v in iter_edges(graph):
        iu, iv = hp.index[u], hp.index[v]
        if iu == iv:
            internal.append(edge_key(u, v))
        else:
            cross_levels.add(min(iu, iv))
    coloring: EdgeColoring = {}
    internal_colors = 0
    if internal:
        internal_graph = _edge_subgraph(internal)
        internal_result = star_partition_edge_coloring(
            internal_graph, x=internal_x, ledger=own
        )
        coloring = dict(internal_result.coloring)
        internal_colors = internal_result.colors_used

    palette = max(delta + dhat, internal_colors)
    for i in sorted(cross_levels, reverse=True):
        members = [v for v in graph.nodes() if hp.index[v] >= i]
        stage_graph = graph.subgraph(members)
        side = {
            v: "A" if hp.index[v] == i else "B" for v in stage_graph.nodes()
        }
        stage_coloring = {
            e: c
            for e, c in coloring.items()
            if min(hp.index[e[0]], hp.index[e[1]]) >= i
        }
        merged = merge_cross_edges(
            stage_graph, side, stage_coloring, palette, ledger=own,
            label=f"merge-stage-{i}",
        )
        coloring.update(merged)

    if ledger is not None:
        ledger.add("thm-5.2", actual=own.total_actual, modeled=own.total_modeled)
    return ArboricityColoringResult(
        coloring=coloring,
        colors_used=num_colors(coloring),
        palette_bound=palette,
        delta=delta,
        arboricity=a,
        dhat=dhat,
        ledger=own,
    )


# --------------------------------------------------------------------------
# Theorem 5.3
# --------------------------------------------------------------------------


def edge_color_orientation_connector(
    graph: nx.Graph,
    arboricity: Optional[int] = None,
    q: float = 3.0,
    ledger: Optional[RoundLedger] = None,
) -> ArboricityColoringResult:
    """Theorem 5.3: ``Delta + O(sqrt(Delta * a)) + O(a)`` colors in
    ``O(sqrt(a) log n)`` rounds via the Figure 3 orientation connector."""
    own = RoundLedger(label="thm-5.3")
    a = _resolve_arboricity(graph, arboricity)
    delta = max_degree(graph)
    if number_of_edges(graph) == 0:
        return ArboricityColoringResult(
            coloring={}, colors_used=0, palette_bound=0, delta=delta,
            arboricity=a, dhat=0, ledger=own,
        )
    hp = h_partition(graph, arboricity=a, q=q, ledger=own)
    dhat = hp.threshold
    orientation = hp.orientation()

    k_in = max(1, math.isqrt(delta))
    g_in = max(1, math.ceil(delta / k_in))
    g_out = max(1, math.isqrt(dhat) + (0 if math.isqrt(dhat) ** 2 == dhat else 1))
    connector = build_orientation_connector(
        graph, orientation, in_group_size=g_in, out_group_size=g_out
    )
    phi = edge_color_bounded_arboricity(
        connector.graph, arboricity=g_out, q=q, ledger=own
    )
    class_arboricity = max(1, math.ceil(dhat / g_out))

    def color_class(edges: List[Edge], branch: RoundLedger) -> Dict[Edge, Tuple[int]]:
        psi = edge_color_bounded_arboricity(
            _edge_subgraph(edges), arboricity=class_arboricity, q=q, ledger=branch
        )
        return {e: (c,) for e, c in psi.coloring.items()}

    product = own.per_class(
        "thm-5.3-classes", connector.classes(phi.coloring), color_class
    )
    coloring = dense_colors(product)
    width = max((psi for _, psi in product.values()), default=0) + 1
    bound = phi.palette_bound * width
    if ledger is not None:
        ledger.add("thm-5.3", actual=own.total_actual, modeled=own.total_modeled)
    return ArboricityColoringResult(
        coloring=coloring,
        colors_used=num_colors(coloring),
        palette_bound=bound,
        delta=delta,
        arboricity=a,
        dhat=dhat,
        ledger=own,
    )


# --------------------------------------------------------------------------
# Theorem 5.4
# --------------------------------------------------------------------------


def _bipartite_connector_coloring(
    connector: OrientationConnector,
    g_in: int,
    g_out: int,
    ledger: RoundLedger,
) -> EdgeColoring:
    """Edge-color the bipartite connector with ``g_in + g_out - 1`` colors in
    O(g_out) rounds via the Lemma 5.1 protocol with empty pre-colorings
    (A = out-virtuals, the low-degree side)."""
    side = {v: ("A" if s == "out" else "B") for v, s in (connector.side or {}).items()}
    return merge_cross_edges(
        connector.graph,
        side,
        coloring={},
        palette=g_in + g_out - 1,
        ledger=ledger,
        label="bipartite-connector",
    )


def edge_color_recursive(
    graph: nx.Graph,
    x: int,
    arboricity: Optional[int] = None,
    q: float = 3.0,
    ledger: Optional[RoundLedger] = None,
) -> ArboricityColoringResult:
    """Theorem 5.4: a ``(Delta^(1/x) + a_hat^(1/x) + 3)^x``-edge-coloring in
    ``O(a_hat^(1/x) (x + log n / log q))`` rounds: ``x - 1`` bipartite
    connector levels, then Theorem 5.2 on the residual classes."""
    if x < 1:
        raise InvalidParameterError("x must be >= 1")
    own = RoundLedger(label="thm-5.4")
    a = _resolve_arboricity(graph, arboricity)
    delta = max_degree(graph)
    if number_of_edges(graph) == 0:
        return ArboricityColoringResult(
            coloring={}, colors_used=0, palette_bound=0, delta=delta,
            arboricity=a, dhat=0, ledger=own, params=Section5Params(x=x, q=q),
        )
    hp = h_partition(graph, arboricity=a, q=q, ledger=own)
    orientation = hp.orientation()
    dhat = hp.threshold

    def recurse(
        sub: nx.Graph,
        sub_orientation: Orientation,
        beta: int,
        levels: int,
        sub_ledger: RoundLedger,
    ) -> Dict[Edge, Tuple[int, ...]]:
        if number_of_edges(sub) == 0:
            return {}
        sub_delta = max_degree(sub)
        if levels == 0 or sub_delta <= 3:
            result = edge_color_bounded_arboricity(
                sub, arboricity=max(1, beta), q=q, ledger=sub_ledger
            )
            return {e: (c,) for e, c in result.coloring.items()}
        exponent = 1.0 / (levels + 1)
        g_in = max(2, math.ceil(sub_delta**exponent) + 1)
        g_out = max(1, math.ceil(max(beta, 1) ** exponent) + 1)
        connector = build_orientation_connector(
            sub, sub_orientation, in_group_size=g_in, out_group_size=g_out,
            bipartite=True,
        )
        phi = _bipartite_connector_coloring(connector, g_in, g_out, sub_ledger)
        new_beta = max(1, math.ceil(max(beta, 1) / g_out))

        def color_class(edges: List[Edge], branch: RoundLedger) -> Dict[Edge, Tuple[int, ...]]:
            class_graph = _edge_subgraph(edges)
            class_orientation = sub_orientation.restrict(class_graph)
            return recurse(class_graph, class_orientation, new_beta, levels - 1, branch)

        return sub_ledger.per_class(
            f"thm-5.4-classes(l={levels})", connector.classes(phi), color_class
        )

    coloring = dense_colors(recurse(graph, orientation, dhat, x - 1, own))

    factor = math.ceil(delta ** (1.0 / x)) + math.ceil(dhat ** (1.0 / x)) + 3
    if ledger is not None:
        ledger.add("thm-5.4", actual=own.total_actual, modeled=own.total_modeled)
    return ArboricityColoringResult(
        coloring=coloring,
        colors_used=num_colors(coloring),
        palette_bound=factor**x,
        delta=delta,
        arboricity=a,
        dhat=dhat,
        ledger=own,
        params=Section5Params(x=x, q=q),
    )


# --------------------------------------------------------------------------
# Corollary 5.5
# --------------------------------------------------------------------------


def edge_color_delta_plus_o_delta(
    graph: nx.Graph,
    arboricity: Optional[int] = None,
    ledger: Optional[RoundLedger] = None,
) -> ArboricityColoringResult:
    """Corollary 5.5: auto-parameterized ``Delta (1 + o(1))``-edge-coloring
    for ``a = o(Delta)`` (falls back to Theorem 5.2 when the recursion depth
    formula selects x = 1)."""
    a = _resolve_arboricity(graph, arboricity)
    delta = max_degree(graph)
    params = choose_section5_params(max(delta, 1), a)
    if params.x == 1:
        result = edge_color_bounded_arboricity(
            graph, arboricity=a, q=params.q, ledger=ledger
        )
    else:
        result = edge_color_recursive(
            graph, x=params.x, arboricity=a, q=params.q, ledger=ledger
        )
    result.params = params
    return result


# ---------------------------------------------------------------- registry

from repro import registry as _registry


def _arboricity_run(name: str, result: ArboricityColoringResult) -> _registry.AlgorithmRun:
    return _registry.AlgorithmRun(
        name=name,
        kind="edge-coloring",
        coloring=result.coloring,
        colors_used=result.colors_used,
        rounds_actual=result.rounds_actual,
        rounds_modeled=result.rounds_modeled,
        extra={
            "palette_bound": result.palette_bound,
            "delta": result.delta,
            "arboricity": result.arboricity,
            "dhat": result.dhat,
        },
    )


def _run_thm52(
    graph: nx.Graph, arboricity: Optional[int] = None, q: float = 3.0
) -> _registry.AlgorithmRun:
    return _arboricity_run(
        "thm52", edge_color_bounded_arboricity(graph, arboricity=arboricity, q=q)
    )


def _run_thm53(
    graph: nx.Graph, arboricity: Optional[int] = None, q: float = 3.0
) -> _registry.AlgorithmRun:
    return _arboricity_run(
        "thm53", edge_color_orientation_connector(graph, arboricity=arboricity, q=q)
    )


def _run_thm54(
    graph: nx.Graph, x: int = 2, arboricity: Optional[int] = None, q: float = 3.0
) -> _registry.AlgorithmRun:
    return _arboricity_run(
        "thm54", edge_color_recursive(graph, x=x, arboricity=arboricity, q=q)
    )


def _run_cor55(
    graph: nx.Graph, arboricity: Optional[int] = None
) -> _registry.AlgorithmRun:
    return _arboricity_run(
        "cor55", edge_color_delta_plus_o_delta(graph, arboricity=arboricity)
    )


def _claimed_palette(ctx) -> Optional[int]:
    """Section 5's exact palette for the instance, which the result
    computes and carries as ``extra['palette_bound']``."""
    bound = ctx.extra.get("palette_bound")
    return int(bound) if bound is not None else None


_registry.register(
    _registry.AlgorithmSpec(
        name="thm52",
        family="core",
        kind="edge-coloring",
        summary="Theorem 5.2: H-partition + star partition + level-by-level cross merge",
        color_bound="Delta + O(a)",
        rounds_bound="O(a * log n)",
        runner=_run_thm52,
        invariants=("proper-edge-coloring", "palette-bound"),
        palette_bound=_claimed_palette,
        requires=("bounded-arboricity",),
        params=("arboricity", "q"),
    )
)
_registry.register(
    _registry.AlgorithmSpec(
        name="thm53",
        family="core",
        kind="edge-coloring",
        summary="Theorem 5.3: Figure 3 orientation connector, recolored with Theorem 5.2",
        color_bound="Delta + O(sqrt(Delta*a)) + O(a)",
        rounds_bound="O(sqrt(a) * log n)",
        runner=_run_thm53,
        invariants=("proper-edge-coloring", "palette-bound"),
        palette_bound=_claimed_palette,
        requires=("bounded-arboricity",),
        params=("arboricity", "q"),
    )
)
_registry.register(
    _registry.AlgorithmSpec(
        name="thm54",
        family="core",
        kind="edge-coloring",
        summary="Theorem 5.4: x-1 bipartite connector levels over Theorem 5.2",
        color_bound="(Delta^(1/x) + a_hat^(1/x) + 3)^x",
        rounds_bound="O(a_hat^(1/x) * (x + log n / log q))",
        runner=_run_thm54,
        invariants=("proper-edge-coloring", "palette-bound"),
        palette_bound=_claimed_palette,
        requires=("bounded-arboricity",),
        params=("x", "arboricity", "q"),
    )
)
_registry.register(
    _registry.AlgorithmSpec(
        name="cor55",
        family="core",
        kind="edge-coloring",
        summary="Corollary 5.5: auto-parameterized Delta(1+o(1))-edge-coloring",
        color_bound="Delta * (1 + o(1)) for a = o(Delta)",
        rounds_bound="O(log n) for a = O(Delta^(1-eps))",
        runner=_run_cor55,
        invariants=("proper-edge-coloring", "palette-bound"),
        palette_bound=_claimed_palette,
        requires=("bounded-arboricity",),
        params=("arboricity",),
    )
)
