"""CD-Coloring — the paper's Algorithm 1 (Sections 2 and 3).

Recursively: build the clique connector, color it with the [17] oracle
(``D*(t-1)+1`` colors — Lemma 2.1), recurse on the subgraphs induced by the
connector's color classes (whose identified cliques shrank by a factor of
``t`` — Lemmas 2.2/2.3), and color the level-x subgraphs directly. The
combined hierarchical color ``<phi_1, ..., phi_x, psi>`` is proper
(Theorem 2.5) and uses at most ``D^(x+1) * S`` colors for the Section 3
parameter choice (Theorem 3.3(i)); edge-coloring a graph is CD-Coloring its
line graph, giving ``(2^(x+1) Delta)``-edge-coloring (Theorem 3.3(ii)).

The O(log* n) symmetry-breaking cost is paid once: a single top-level Linial
coloring seeds every oracle invocation (the "colors instead of ids" trick of
Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.errors import InvalidParameterError
from repro.graphs.cliques import CliqueCover
from repro.graphs.linegraph import line_graph_with_cover
from repro.graphs.properties import max_degree, number_of_edges
from repro.local import RoundLedger
from repro.core.connectors import build_clique_connector
from repro.core.params import (
    cd_palette_bound,
    cd_target_colors,
    choose_t_clique,
    choose_x_polylog,
)
from repro.substrates.linial import linial_coloring
from repro.substrates.oracle import oracle_vertex_coloring
from repro.substrates.reduction import basic_color_reduction
from repro.types import (
    EdgeColoring,
    NodeId,
    VertexColoring,
    color_classes,
    dense_colors,
    num_colors,
)


@dataclass
class CDColoringResult:
    """Outcome of a CD-Coloring run."""

    coloring: VertexColoring
    colors_used: int
    palette_bound: int
    target_colors: int
    diversity: int
    clique_size: int
    t: int
    x: int
    ledger: RoundLedger = field(repr=False)

    @property
    def rounds_actual(self) -> float:
        return self.ledger.total_actual

    @property
    def rounds_modeled(self) -> float:
        return self.ledger.total_modeled


def _restrict(coloring: VertexColoring, graph: nx.Graph) -> VertexColoring:
    return {v: coloring[v] for v in graph.nodes()}


def _recurse(
    graph: nx.Graph,
    cover: CliqueCover,
    t: int,
    x: int,
    seed: VertexColoring,
    ledger: RoundLedger,
) -> Dict[NodeId, Tuple[int, ...]]:
    """Algorithm 1. Returns the hierarchical color tuples."""
    if graph.number_of_nodes() == 0:
        return {}
    connector = build_clique_connector(graph, cover, t)
    phi = oracle_vertex_coloring(
        connector,
        initial=_restrict(seed, connector),
        ledger=ledger,
        label=f"connector-coloring(x={x})",
    )

    def color_class(members: List[NodeId], branch: RoundLedger) -> Dict[NodeId, Tuple[int, ...]]:
        subgraph = graph.subgraph(members)
        if x > 1:
            return _recurse(subgraph, cover.restricted(members), t, x - 1, seed, branch)
        base = oracle_vertex_coloring(
            subgraph,
            initial=_restrict(seed, subgraph),
            ledger=branch,
            label="base-coloring",
        )
        return {v: (base[v],) for v in members}

    return ledger.per_class(f"classes(x={x})", color_classes(phi), color_class)


def cd_coloring(
    graph: nx.Graph,
    cover: CliqueCover,
    x: int,
    t: Optional[int] = None,
    ledger: Optional[RoundLedger] = None,
    trim: bool = True,
) -> CDColoringResult:
    """Vertex-color a bounded-diversity graph with Algorithm 1.

    Args:
        graph: the input graph.
        cover: a consistent clique identification of ``graph``.
        x: number of recursion levels (>= 1).
        t: connector group size; defaults to Section 3's ``floor(S^(1/(x+1)))``.
        ledger: optional round ledger to account into.
        trim: apply the basic color reduction down to ``D^(x+1) * S`` when the
            flattened coloring exceeds it (the final step of Theorem 3.2).

    Returns:
        A :class:`CDColoringResult` whose coloring is proper on ``graph`` and
        uses at most ``cd_palette_bound(D, S, t, x)`` colors.
    """
    if x < 1:
        raise InvalidParameterError("recursion depth x must be >= 1")
    own_ledger = RoundLedger(label="cd-coloring")
    diversity = max(1, cover.diversity())
    clique_size = max(1, cover.max_clique_size())
    if t is None:
        t = choose_t_clique(clique_size, x)
    if t < 2:
        raise InvalidParameterError("connector group size t must be >= 2")

    if graph.number_of_nodes() == 0:
        coloring: VertexColoring = {}
    else:
        seed = linial_coloring(graph, ledger=own_ledger)
        coloring = dense_colors(_recurse(graph, cover, t, x, seed, own_ledger))

    bound = cd_palette_bound(diversity, clique_size, t, x)
    target = cd_target_colors(diversity, clique_size, x)
    delta = max_degree(graph)
    if trim and coloring and target >= delta + 1 and num_colors(coloring) > target:
        coloring = basic_color_reduction(graph, coloring, target, ledger=own_ledger)

    if ledger is not None:
        ledger.add(
            "cd-coloring",
            actual=own_ledger.total_actual,
            modeled=own_ledger.total_modeled,
        )
    return CDColoringResult(
        coloring=coloring,
        colors_used=num_colors(coloring),
        palette_bound=bound,
        target_colors=target,
        diversity=diversity,
        clique_size=clique_size,
        t=t,
        x=x,
        ledger=own_ledger,
    )


def cd_coloring_polylog(
    graph: nx.Graph,
    cover: CliqueCover,
    eps: float = 1.0,
    ledger: Optional[RoundLedger] = None,
) -> CDColoringResult:
    """Section 3's polylogarithmic-time corollary: pick ``x = log S /
    (eps log log S)`` so the modeled running time is ``O~((log S)^(1+eps/2)
    + log* n)`` at the cost of ``~2 S^(1 + 1/(eps log log S))`` colors."""
    clique_size = max(1, cover.max_clique_size())
    x = choose_x_polylog(clique_size, eps)
    # The headline D^(x+1) S target is meaningless at this depth (it grows
    # with x); keep the raw hierarchical palette instead.
    return cd_coloring(graph, cover, x=x, ledger=ledger, trim=False)


@dataclass
class CDEdgeColoringResult:
    """Edge coloring obtained by CD-Coloring the line graph (Thm 3.3(ii))."""

    coloring: EdgeColoring
    colors_used: int
    target_colors: int
    x: int
    ledger: RoundLedger = field(repr=False)


def cd_edge_coloring(
    graph: nx.Graph,
    x: int,
    ledger: Optional[RoundLedger] = None,
) -> CDEdgeColoringResult:
    """Theorem 3.3(ii): a ``(2^(x+1) Delta)``-edge-coloring of a general
    graph via CD-Coloring of its line graph (diversity 2, clique size
    ``max(Delta, 3)``). The line-graph simulation costs O(1) overhead in the
    LOCAL model."""
    delta = max_degree(graph)
    if number_of_edges(graph) == 0:
        return CDEdgeColoringResult(
            coloring={},
            colors_used=0,
            target_colors=0,
            x=x,
            ledger=RoundLedger(label="cd-edge-coloring"),
        )
    line, cover = line_graph_with_cover(graph)
    result = cd_coloring(line, cover, x=x, ledger=ledger)
    return CDEdgeColoringResult(
        coloring=dict(result.coloring),
        colors_used=result.colors_used,
        target_colors=2 ** (x + 1) * delta,
        x=x,
        ledger=result.ledger,
    )


# ---------------------------------------------------------------- registry

from repro import registry as _registry


def _run_cd(graph: nx.Graph, x: int = 1) -> _registry.AlgorithmRun:
    result = cd_edge_coloring(graph, x=x)
    return _registry.AlgorithmRun(
        name="cd",
        kind="edge-coloring",
        coloring=result.coloring,
        colors_used=result.colors_used,
        rounds_actual=result.ledger.total_actual,
        rounds_modeled=result.ledger.total_modeled,
        extra={"target_colors": result.target_colors, "x": x},
    )


def _cd_bound(ctx) -> int:
    # Theorem 3.3(ii) runs CD-Coloring on the line graph: diversity 2,
    # clique size max(Delta, 3) (the line-graph cover pads tiny stars).
    if ctx.m == 0:
        return 0
    x = ctx.extra.get("x", ctx.params.get("x", 1))
    return cd_target_colors(2, max(ctx.delta, 3), int(x) if x is not None else 1)


_registry.register(
    _registry.AlgorithmSpec(
        name="cd",
        family="core",
        kind="edge-coloring",
        summary="Theorem 3.3(ii): CD-Coloring of the line graph (Algorithm 1)",
        color_bound="2^(x+1) * Delta",
        rounds_bound="O~(x * Delta^(1/(2x+2)) + log* n)",
        runner=_run_cd,
        params=("x",),
        invariants=("proper-edge-coloring", "palette-bound", "clique-decomposition"),
        palette_bound=_cd_bound,
    )
)
