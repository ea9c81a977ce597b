"""Star-partition edge coloring (Section 4, Theorem 4.1).

Avoids simulating the line graph: the *edge-connector* splits every vertex
into virtual vertices owning at most ``t`` incident edges, so the connector
has maximum degree ``t`` and is edge-colored with ``2t - 1`` colors by the
[17] oracle. Grouping the original edges by connector color yields a
``(2t-1, ceil(Delta/t))``-star-partition: each class has stars of size at
most ``ceil(Delta/t)``, i.e. maximum degree ``ceil(Delta/t)``. Recursing
``x`` times with ``t = Delta^(1/(x+1))`` and coloring the final classes
directly gives a ``(2^(x+1) Delta)``-edge-coloring in
``O~(x * Delta^(1/(2x+2)) + log* n)`` time; ``x = 1`` with
``t = floor(sqrt(Delta))`` is the headline ``4 Delta`` result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.errors import InvalidParameterError
from repro.graphs.linegraph import line_view
from repro.graphs.properties import max_degree, number_of_edges
from repro.local import RoundLedger
from repro.core.connectors import build_edge_connector
from repro.core.params import choose_t_star, star_palette_bound, star_target_colors
from repro.substrates.oracle import ColoringOracle
from repro.substrates.reduction import basic_color_reduction
from repro.types import Edge, EdgeColoring, VertexColoring, num_colors


def reduce_edge_coloring(
    graph: nx.Graph,
    coloring: EdgeColoring,
    target: int,
    ledger: Optional[RoundLedger] = None,
) -> EdgeColoring:
    """Basic color reduction for edge colorings: from m to ``target`` colors
    in ``m - target`` rounds, ``target >= 2*Delta - 1`` required. Implemented
    as the basic vertex reduction on the line graph (each color class is a
    matching, so simultaneous re-picks never conflict)."""
    delta = max_degree(graph)
    if delta >= 1 and target < 2 * delta - 1:
        raise InvalidParameterError(
            f"edge reduction needs target >= 2*Delta-1 = {2 * delta - 1}"
        )
    if not coloring:
        return {}
    as_vertex: VertexColoring = dict(coloring)
    reduced = basic_color_reduction(line_view(graph), as_vertex, target, ledger=ledger)
    return dict(reduced)


@dataclass
class StarPartitionResult:
    """Outcome of the recursive star-partition edge coloring."""

    coloring: EdgeColoring
    colors_used: int
    palette_bound: int
    target_colors: int
    x: int
    delta: int
    ledger: RoundLedger = field(repr=False)

    @property
    def rounds_actual(self) -> float:
        return self.ledger.total_actual

    @property
    def rounds_modeled(self) -> float:
        return self.ledger.total_modeled


def _edge_subgraph(edges: List[Edge]) -> nx.Graph:
    sub = nx.Graph()
    sub.add_edges_from(edges)
    return sub


def _recurse(
    graph: nx.Graph,
    x: int,
    oracle: ColoringOracle,
    ledger: RoundLedger,
    t_override: Optional[int],
) -> Dict[Edge, Tuple[int, ...]]:
    """Returns hierarchical color tuples per (canonical) edge."""
    if number_of_edges(graph) == 0:
        return {}
    delta = max_degree(graph)
    if x == 0 or delta <= 3:
        direct = oracle.edge_coloring(graph, ledger=ledger, label="direct-edge-coloring")
        return {e: (c,) for e, c in direct.items()}
    t = t_override if t_override is not None else choose_t_star(delta, x)
    if delta <= t:
        direct = oracle.edge_coloring(graph, ledger=ledger, label="direct-edge-coloring")
        return {e: (c,) for e, c in direct.items()}

    connector = build_edge_connector(graph, t)
    phi_connector = oracle.edge_coloring(
        connector.graph, ledger=ledger, label=f"edge-connector-coloring(x={x})"
    )
    classes = connector.classes(phi_connector)

    combined: Dict[Edge, Tuple[int, ...]] = {}
    with ledger.parallel(f"star-classes(x={x})") as scope:
        for c, edges in sorted(classes.items()):
            branch = scope.branch(f"class-{c}")
            sub = _edge_subgraph(edges)
            psi = _recurse(sub, x - 1, oracle, branch, None)
            for e in edges:
                combined[e] = (c,) + psi[e]
    return combined


def star_partition_edge_coloring(
    graph: nx.Graph,
    x: int = 1,
    t: Optional[int] = None,
    oracle: Optional[ColoringOracle] = None,
    ledger: Optional[RoundLedger] = None,
    trim: bool = True,
) -> StarPartitionResult:
    """Theorem 4.1: a ``(2^(x+1) Delta)``-edge-coloring by recursive
    star-partition.

    Args:
        graph: input graph.
        x: recursion depth (x = 1 with default t is the 4*Delta algorithm).
        t: top-level group size override (defaults to ``Delta^(1/(x+1))``;
            recursive levels always use their own default).
        oracle: the [17] stand-in.
        ledger: optional ledger to account into.
        trim: reduce to exactly ``2^(x+1) * Delta`` colors when the raw
            product palette slightly exceeds it (the paper's "additional
            round" trim).
    """
    if x < 1:
        raise InvalidParameterError("recursion depth x must be >= 1")
    oracle = oracle or ColoringOracle()
    own = RoundLedger(label="star-partition")
    delta = max_degree(graph)

    tuples = _recurse(graph, x, oracle, own, t)
    palette = sorted(set(tuples.values()))
    index = {tup: i for i, tup in enumerate(palette)}
    coloring: EdgeColoring = {e: index[tup] for e, tup in tuples.items()}

    target = star_target_colors(delta, x)
    if (
        trim
        and coloring
        and num_colors(coloring) > target
        and target >= 2 * delta - 1
    ):
        coloring = reduce_edge_coloring(graph, coloring, target, ledger=own)

    if ledger is not None:
        ledger.add("star-partition", actual=own.total_actual, modeled=own.total_modeled)
    return StarPartitionResult(
        coloring=coloring,
        colors_used=num_colors(coloring),
        palette_bound=star_palette_bound(delta, x) if delta else 0,
        target_colors=target,
        x=x,
        delta=delta,
        ledger=own,
    )


def four_delta_edge_coloring(
    graph: nx.Graph,
    oracle: Optional[ColoringOracle] = None,
    ledger: Optional[RoundLedger] = None,
) -> StarPartitionResult:
    """The headline Section 4 result: ``4*Delta`` colors in
    ``O~(Delta^(1/4) + log* n)`` time (x = 1, ``t = floor(sqrt(Delta))``)."""
    delta = max_degree(graph)
    t = max(2, int(math.isqrt(delta))) if delta >= 4 else None
    return star_partition_edge_coloring(graph, x=1, t=t, oracle=oracle, ledger=ledger)


# ---------------------------------------------------------------- registry

from repro import registry as _registry


def _run_star4(graph: nx.Graph) -> _registry.AlgorithmRun:
    result = four_delta_edge_coloring(graph)
    return _registry.AlgorithmRun(
        name="star4",
        kind="edge-coloring",
        coloring=result.coloring,
        colors_used=result.colors_used,
        rounds_actual=result.rounds_actual,
        rounds_modeled=result.rounds_modeled,
        extra={"target_colors": result.target_colors, "delta": result.delta},
    )


def _run_star(graph: nx.Graph, x: int = 1, t: Optional[int] = None) -> _registry.AlgorithmRun:
    result = star_partition_edge_coloring(graph, x=x, t=t)
    return _registry.AlgorithmRun(
        name="star",
        kind="edge-coloring",
        coloring=result.coloring,
        colors_used=result.colors_used,
        rounds_actual=result.rounds_actual,
        rounds_modeled=result.rounds_modeled,
        extra={"target_colors": result.target_colors, "x": x},
    )


_registry.register(
    _registry.AlgorithmSpec(
        name="star4",
        family="core",
        kind="edge-coloring",
        summary="Section 4 headline: star-partition edge coloring at x=1, t=floor(sqrt(Delta))",
        color_bound="4*Delta",
        rounds_bound="O~(Delta^(1/4) + log* n)",
        runner=_run_star4,
        invariants=("proper-edge-coloring", "palette-bound", "star-partition"),
        compact_ok=True,  # connectors are built from duck-typed reads
    )
)
_registry.register(
    _registry.AlgorithmSpec(
        name="star",
        family="core",
        kind="edge-coloring",
        summary="Theorem 4.1: recursive star-partition edge coloring",
        color_bound="2^(x+1) * Delta",
        rounds_bound="O~(x * Delta^(1/(2x+2)) + log* n)",
        runner=_run_star,
        params=("x", "t"),
        invariants=("proper-edge-coloring", "palette-bound", "star-partition"),
        compact_ok=True,  # connectors are built from duck-typed reads
    )
)
