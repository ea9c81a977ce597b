"""Linial's deterministic O(Delta^2)-coloring in O(log* n) rounds.

Reference [30] of the paper. One communication round transforms a proper
m-coloring into a proper q^2-coloring using a Delta-cover-free set system
built from polynomials over GF(q): colors are encoded as polynomials of
degree <= d, vertex v's set is ``{(i, p_v(i)) : i in GF(q)}``, and v adopts a
pair ``(i, p_v(i))`` avoided by all of its (at most Delta*d) collisions with
neighbors' polynomials. Iterating with adaptively chosen ``(q, d)`` drives m
down to O(Delta^2) within O(log* m) rounds.

The round schedule depends only on the globally known ``(m, Delta)``, so all
nodes compute it locally and stay in lockstep — no extra coordination rounds
are needed, exactly as in the paper.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.errors import ColoringError, InvalidParameterError
from repro.graphs.properties import max_degree
from repro.local import Context, Message, Node, NodeAlgorithm, RoundLedger, run_on_graph
from repro.local.costmodel import linial_rounds
from repro.substrates.primes import next_prime
from repro.types import NodeId, VertexColoring


@dataclass(frozen=True)
class LinialStep:
    """One round of the schedule: reduce an m-coloring to q^2 colors using
    degree-<= d polynomials over GF(q)."""

    m: int
    q: int
    d: int

    @property
    def new_m(self) -> int:
        return self.q * self.q


def _best_step(m: int, delta: int) -> Optional[LinialStep]:
    """The (q, d) choice minimizing the resulting color count q^2, or None
    when no choice makes progress (the O(Delta^2) fixed point)."""
    if m <= 1:
        return None
    best: Optional[LinialStep] = None
    max_d = max(1, math.ceil(math.log2(max(m, 2))))
    for d in range(1, max_d + 1):
        # q must exceed Delta*d (cover-freeness) and satisfy q^(d+1) >= m
        # (enough polynomials to encode every current color). Jump straight
        # to ceil(m^(1/(d+1))) rather than walking primes one by one.
        root = max(1, int(round(m ** (1.0 / (d + 1)))))
        while root > 1 and (root - 1) ** (d + 1) >= m:
            root -= 1
        while root ** (d + 1) < m:
            root += 1
        q = next_prime(max(delta * d + 1, root, 2))
        while q ** (d + 1) < m:
            q = next_prime(q + 1)
        candidate = LinialStep(m=m, q=q, d=d)
        if candidate.new_m < m and (best is None or candidate.new_m < best.new_m):
            best = candidate
    return best


# Small LRU: the memo is keyed per (m0, Delta), and xl sweeps present a
# new m0 for every graph size — an uncapped (or generously capped) memo
# grows without limit across a campaign. Any single run touches only a
# handful of (m0, Delta) pairs (one per recursion level), so a small
# window keeps the hit rate while bounding memory.
@functools.lru_cache(maxsize=64)
def _schedule_cached(m0: int, delta: int) -> Tuple[Tuple[LinialStep, ...], int]:
    schedule: List[LinialStep] = []
    m = m0
    while True:
        step = _best_step(m, delta)
        if step is None:
            return tuple(schedule), m
        schedule.append(step)
        m = step.new_m


def linial_schedule(m0: int, delta: int) -> Tuple[List[LinialStep], int]:
    """The full iteration schedule from an m0-coloring and the final color
    count at the fixed point.

    The schedule is a pure function of the globally known ``(m0, Delta)``
    — exactly why the paper needs no coordination rounds — so it is cached:
    every node of a run (and every oracle invocation on same-shaped
    subgraphs) reuses one computation.
    """
    schedule, final_m = _schedule_cached(m0, delta)
    return list(schedule), final_m


def _poly_eval(coeffs: Tuple[int, ...], x: int, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def _encode(color: int, q: int, d: int) -> Tuple[int, ...]:
    """Base-q digits of ``color`` as d+1 polynomial coefficients."""
    coeffs = []
    value = color
    for _ in range(d + 1):
        coeffs.append(value % q)
        value //= q
    if value:
        raise InvalidParameterError(f"color {color} does not fit in q^(d+1)")
    return tuple(coeffs)


def _refine(color: int, neighbor_colors: List[int], step: LinialStep) -> int:
    """One cover-free refinement: the new color of a vertex given its own and
    its neighbors' current colors."""
    q, d = step.q, step.d
    own = _encode(color, q, d)
    others = [_encode(c, q, d) for c in neighbor_colors if c != color]
    for i in range(q):
        own_val = _poly_eval(own, i, q)
        if all(_poly_eval(o, i, q) != own_val for o in others):
            return i * q + own_val
    raise ColoringError(
        "cover-free refinement failed: no uncovered evaluation point "
        f"(q={q}, d={d}, degree={len(neighbor_colors)})"
    )


class LinialAlgorithm(NodeAlgorithm):
    """Per-node implementation: broadcast current color, refine, repeat.

    Context extras:
        initial_coloring: node -> color (proper, values in [0, m0)).
        m0: the initial palette size.
    """

    name = "linial"

    def initialize(self, node: Node, ctx: Context) -> None:
        color = ctx.node_input(node.id, "initial_coloring")
        if color is None:
            raise InvalidParameterError(f"node {node.id!r} has no initial color")
        schedule, final_m = linial_schedule(ctx.extras["m0"], ctx.max_degree)
        node.state["color"] = color
        node.state["schedule"] = schedule
        node.state["output"] = color
        if schedule:
            node.broadcast(color)
        else:
            node.halt()

    def step(self, node: Node, inbox: List[Message], round_no: int, ctx: Context) -> None:
        schedule: List[LinialStep] = node.state["schedule"]
        step = schedule[round_no - 1]
        neighbor_colors = [msg.payload for msg in inbox]
        new_color = _refine(node.state["color"], neighbor_colors, step)
        node.state["color"] = new_color
        node.state["output"] = new_color
        if round_no == len(schedule):
            node.halt()
        else:
            node.broadcast(new_color)


def linial_coloring(
    graph: nx.Graph,
    initial: Optional[VertexColoring] = None,
    ledger: Optional[RoundLedger] = None,
) -> VertexColoring:
    """Run Linial's algorithm on ``graph`` and return an O(Delta^2)-coloring.

    ``initial`` defaults to the identity coloring on dense ids (the node-id
    symmetry breaking of the LOCAL model). The result is proper; the number
    of colors is the fixed point of :func:`linial_schedule`.
    """
    if graph.number_of_nodes() == 0:
        return {}
    if initial is None:
        from repro.kernels.segments import repr_sorted_nodes

        initial = {v: i for i, v in enumerate(repr_sorted_nodes(graph))}
    m0 = max(initial.values()) + 1
    result = run_on_graph(
        graph,
        LinialAlgorithm(),
        extras={"initial_coloring": initial, "m0": m0},
    )
    if ledger is not None:
        delta = max_degree(graph)
        ledger.add(
            "linial",
            actual=result.rounds,
            modeled=linial_rounds(graph.number_of_nodes(), delta),
        )
    # every engine builds a fresh outputs dict: hand it over, not a copy
    # (at a million nodes a copy is a third live node-keyed dict)
    return result.outputs


# ---------------------------------------------------------------- registry

from repro import registry as _registry
from repro.types import num_colors as _num_colors


def _run_linial(graph: nx.Graph) -> _registry.AlgorithmRun:
    ledger = RoundLedger(label="linial")
    coloring = linial_coloring(graph, ledger=ledger)
    return _registry.AlgorithmRun(
        name="linial",
        kind="vertex-coloring",
        coloring=coloring,
        colors_used=_num_colors(coloring),
        rounds_actual=ledger.total_actual,
        rounds_modeled=ledger.total_modeled,
    )


_registry.register(
    _registry.AlgorithmSpec(
        name="linial",
        family="substrate",
        kind="vertex-coloring",
        summary="Linial's cover-free-set coloring from ids ([30])",
        color_bound="O(Delta^2)",
        rounds_bound="O(log* n)",
        runner=_run_linial,
        invariants=("proper-vertex-coloring", "palette-bound"),
        # Touches only nodes()/degree()/run_on_graph — runs on CompactGraph
        # natively; the million-node walkthrough leans on this.
        compact_ok=True,
    )
)
