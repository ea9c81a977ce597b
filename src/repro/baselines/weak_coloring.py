"""Executable prior-art baseline: Delta^(1+eps) colors in very few rounds.

The paper's introduction cites [6, 7]: "the most recent results make it
possible to color vertices and edges of general graphs using Delta^(1+eps)
colors in deterministic polylogarithmic time". The engine of those results
is recursive *defective* partitioning: one defective-refinement round splits
the graph into ``q^2`` classes whose induced degree drops to
``floor(Delta*d/q)``; recursing until the degree is tiny and finishing with
the (Delta'+1) oracle costs only a handful of rounds, at the price of a
product palette of roughly ``Delta^(1+eps)`` colors.

This module implements that skeleton (with the simplifications documented
in DESIGN.md — full [7] machinery uses arbdefective colorings to bring the
palette down to O(Delta)) so Table 1's "previous results" regime has an
executable representative at the fast/many-colors end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import networkx as nx

from repro.errors import InvalidParameterError
from repro.graphs.linegraph import line_graph_with_cover
from repro.graphs.properties import max_degree, number_of_edges
from repro.local import RoundLedger
from repro.substrates.defective import defective_coloring
from repro.substrates.linial import linial_coloring
from repro.substrates.oracle import oracle_vertex_coloring
from repro.substrates.primes import next_prime
from repro.types import NodeId, VertexColoring, dense_colors, num_colors


@dataclass
class WeakColoringResult:
    coloring: VertexColoring
    colors_used: int
    delta: int
    levels: int
    ledger: RoundLedger = field(repr=False)

    @property
    def rounds_actual(self) -> float:
        return self.ledger.total_actual

    @property
    def rounds_modeled(self) -> float:
        return self.ledger.total_modeled

    @property
    def color_exponent(self) -> float:
        """Empirical eps in colors ~ Delta^(1+eps)."""
        if self.delta <= 1 or self.colors_used <= 1:
            return 0.0
        return math.log(self.colors_used) / math.log(self.delta) - 1.0


def _recurse(
    graph: nx.Graph,
    exponent: float,
    threshold: int,
    seed: VertexColoring,
    ledger: RoundLedger,
) -> Dict[NodeId, Tuple[int, ...]]:
    delta = max_degree(graph)
    if delta <= threshold:
        base = oracle_vertex_coloring(
            graph,
            initial={v: seed[v] for v in graph.nodes()},
            ledger=ledger,
            label="weak-base",
        )
        return {v: (c,) for v, c in base.items()}
    q = next_prime(max(3, math.ceil(delta**exponent)))
    refined = defective_coloring(
        graph, q, initial={v: seed[v] for v in graph.nodes()}, ledger=ledger
    )
    return ledger.per_class(
        "weak-classes",
        refined.classes(),
        lambda members, branch: _recurse(
            graph.subgraph(members), exponent, threshold, seed, branch
        ),
    )


def weak_vertex_coloring(
    graph: nx.Graph,
    exponent: float = 0.75,
    threshold: int = 6,
    ledger: Optional[RoundLedger] = None,
) -> WeakColoringResult:
    """Recursive defective partitioning: ~Delta^(1+eps) colors, few rounds.

    ``exponent`` controls q = Delta^exponent per level: larger q means fewer
    levels and lower defect but a bigger q^2 palette factor.
    """
    if not 0.5 <= exponent < 1.0:
        raise InvalidParameterError("exponent must lie in [0.5, 1)")
    if threshold < 1:
        raise InvalidParameterError("threshold must be >= 1")
    own = RoundLedger(label="weak-coloring")
    delta = max_degree(graph)
    if graph.number_of_nodes() == 0:
        return WeakColoringResult(
            coloring={}, colors_used=0, delta=0, levels=0, ledger=own
        )
    seed = linial_coloring(graph, ledger=own)
    tuples = _recurse(graph, exponent, threshold, seed, own)
    coloring = dense_colors(tuples)
    levels = max((len(t) for t in tuples.values()), default=1) - 1
    if ledger is not None:
        ledger.add("weak-coloring", actual=own.total_actual, modeled=own.total_modeled)
    return WeakColoringResult(
        coloring=coloring,
        colors_used=num_colors(coloring),
        delta=delta,
        levels=levels,
        ledger=own,
    )


def weak_edge_coloring(
    graph: nx.Graph,
    exponent: float = 0.75,
    threshold: int = 6,
    ledger: Optional[RoundLedger] = None,
) -> WeakColoringResult:
    """The edge version (on the line graph): the intro's prior-art
    Delta^(1+eps)-edge-coloring regime [6, 7]."""
    if number_of_edges(graph) == 0:
        return WeakColoringResult(
            coloring={}, colors_used=0,
            delta=max_degree(graph),
            levels=0, ledger=RoundLedger(label="weak-coloring"),
        )
    line, _ = line_graph_with_cover(graph)
    result = weak_vertex_coloring(line, exponent=exponent, threshold=threshold, ledger=ledger)
    return WeakColoringResult(
        coloring=dict(result.coloring),
        colors_used=result.colors_used,
        delta=max_degree(graph),
        levels=result.levels,
        ledger=result.ledger,
    )


# ---------------------------------------------------------------- registry

from repro import registry as _registry


def _run_weak(graph: nx.Graph, exponent: float = 0.75) -> _registry.AlgorithmRun:
    result = weak_edge_coloring(graph, exponent=exponent)
    return _registry.AlgorithmRun(
        name="weak",
        kind="edge-coloring",
        coloring=result.coloring,
        colors_used=result.colors_used,
        rounds_actual=result.rounds_actual,
        rounds_modeled=result.rounds_modeled,
        extra={"levels": result.levels, "delta": result.delta},
    )


def _run_weak_vertex(graph: nx.Graph, exponent: float = 0.75) -> _registry.AlgorithmRun:
    result = weak_vertex_coloring(graph, exponent=exponent)
    return _registry.AlgorithmRun(
        name="weak-vertex",
        kind="vertex-coloring",
        coloring=result.coloring,
        colors_used=result.colors_used,
        rounds_actual=result.rounds_actual,
        rounds_modeled=result.rounds_modeled,
        extra={"levels": result.levels, "delta": result.delta},
    )


_registry.register(
    _registry.AlgorithmSpec(
        name="weak",
        family="baseline",
        kind="edge-coloring",
        summary="Recursive defective partitioning, edge version ([6, 7] regime)",
        color_bound="Delta^(1+eps)",
        rounds_bound="O(log* n) per level",
        runner=_run_weak,
        invariants=("proper-edge-coloring",),
        params=("exponent",),
    )
)
_registry.register(
    _registry.AlgorithmSpec(
        name="weak-vertex",
        family="baseline",
        kind="vertex-coloring",
        summary="Recursive defective partitioning, vertex version",
        color_bound="Delta^(1+eps)",
        rounds_bound="O(log* n) per level",
        runner=_run_weak_vertex,
        invariants=("proper-vertex-coloring",),
        params=("exponent",),
    )
)
