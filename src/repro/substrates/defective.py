"""One-round defective colorings (references [27], [6, 7] machinery).

A *d-defective* coloring allows every vertex up to ``d`` same-colored
neighbors. The polynomial set-system behind Linial's algorithm yields a
one-round defective refinement: encode the current proper m-coloring as
degree-<= d polynomials over GF(q); each vertex evaluates all q points and
adopts the pair ``(i, p_v(i))`` with the *fewest* collisions among its
neighbors. Summed over all points a neighbor collides on at most d of them,
so by pigeonhole the best point has at most ``floor(deg(v) * d / q)``
collisions — a ``floor(Delta*d/q)``-defective q^2-coloring in one round.

This is the partitioning engine of the previously-known Delta^(1+eps)
colorings ([6, 7]) that the paper's introduction compares against; the
executable prior-art baseline `repro.baselines.weak_coloring` recurses on
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import networkx as nx

from repro.errors import ColoringError, InvalidParameterError
from repro.graphs.properties import max_degree
from repro.local import Context, Message, Node, NodeAlgorithm, RoundLedger, run_on_graph
from repro.substrates.linial import _encode, _poly_eval
from repro.substrates.primes import next_prime
from repro.types import NodeId, VertexColoring


@dataclass
class DefectiveColoring:
    """A coloring together with its certified defect bound."""

    coloring: VertexColoring
    num_colors: int
    defect_bound: int
    q: int
    d: int

    def classes(self) -> Dict[int, List[NodeId]]:
        groups: Dict[int, List[NodeId]] = {}
        for v, c in self.coloring.items():
            groups.setdefault(c, []).append(v)
        return groups

    def measured_defect(self, graph: nx.Graph) -> int:
        worst = 0
        for v in graph.nodes():
            same = sum(
                1 for u in graph.neighbors(v) if self.coloring[u] == self.coloring[v]
            )
            worst = max(worst, same)
        return worst


class DefectiveRefinementAlgorithm(NodeAlgorithm):
    """One broadcast round, then the min-collision point selection.

    Context extras:
        initial_coloring: proper coloring, values in [0, m).
        q, d: the polynomial family parameters (q prime, q^(d+1) >= m).
    """

    name = "defective-refinement"

    def initialize(self, node: Node, ctx: Context) -> None:
        color = ctx.node_input(node.id, "initial_coloring")
        if color is None:
            raise InvalidParameterError(f"node {node.id!r} has no initial color")
        node.state["color"] = color
        node.state["output"] = color
        node.broadcast(color)

    def step(self, node: Node, inbox: List[Message], round_no: int, ctx: Context) -> None:
        q, d = ctx.extras["q"], ctx.extras["d"]
        own = _encode(node.state["color"], q, d)
        neighbor_polys = [_encode(msg.payload, q, d) for msg in inbox]
        best_point, best_collisions = 0, len(neighbor_polys) + 1
        for i in range(q):
            own_val = _poly_eval(own, i, q)
            collisions = sum(
                1 for poly in neighbor_polys if _poly_eval(poly, i, q) == own_val
            )
            if collisions < best_collisions:
                best_point, best_collisions = i, collisions
        node.state["output"] = best_point * q + _poly_eval(own, best_point, q)
        node.halt()


def defective_coloring(
    graph: nx.Graph,
    q: int,
    initial: Optional[VertexColoring] = None,
    ledger: Optional[RoundLedger] = None,
) -> DefectiveColoring:
    """A ``floor(Delta*d/q)``-defective q^2-coloring in one round.

    ``q`` must be prime; ``initial`` defaults to dense ids. ``d`` is chosen
    minimally so that ``q^(d+1)`` covers the initial palette.
    """
    if next_prime(q) != q:
        raise InvalidParameterError(f"q = {q} must be prime")
    if graph.number_of_nodes() == 0:
        return DefectiveColoring(coloring={}, num_colors=0, defect_bound=0, q=q, d=1)
    if initial is None:
        from repro.kernels.segments import repr_sorted_nodes

        initial = {v: i for i, v in enumerate(repr_sorted_nodes(graph))}
    m = max(initial.values()) + 1
    d = 1
    while q ** (d + 1) < m:
        d += 1
    delta = max_degree(graph)
    result = run_on_graph(
        graph,
        DefectiveRefinementAlgorithm(),
        extras={"initial_coloring": initial, "q": q, "d": d},
    )
    coloring = dict(result.outputs)
    defect_bound = (delta * d) // q
    refined = DefectiveColoring(
        coloring=coloring,
        num_colors=q * q,
        defect_bound=defect_bound,
        q=q,
        d=d,
    )
    measured = refined.measured_defect(graph)
    if measured > defect_bound:
        raise ColoringError(
            f"defective refinement exceeded its bound: {measured} > {defect_bound}"
        )
    if ledger is not None:
        ledger.add("defective-refinement", actual=result.rounds, modeled=1)
    return refined
