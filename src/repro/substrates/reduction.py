"""Color-reduction subroutines.

Two classical reductions used throughout the paper:

* **Basic reduction** (Appendix B of the paper): from an m-coloring to a
  T-coloring (T >= Delta + 1) in m - T rounds, by letting each color class
  ``m-1, m-2, ..., T`` — an independent set — simultaneously re-pick the
  smallest color unused in its neighborhood.
* **Kuhn–Wattenhofer reduction**: from an m-coloring to (Delta+1) colors in
  ``O(Delta * log(m / Delta))`` rounds, by splitting the palette into blocks
  of ``2*(Delta+1)`` colors, basic-reducing every block to ``Delta+1`` colors
  *in parallel* (blocks do not interact: the block index stays part of the
  color), which halves the palette per phase.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import networkx as nx

from repro.errors import ColoringError, InvalidParameterError
from repro.graphs.properties import max_degree
from repro.local import Context, Message, Node, NodeAlgorithm, RoundLedger, run_on_graph
from repro.local.costmodel import kuhn_wattenhofer_rounds
from repro.types import NodeId, VertexColoring


def _mex(used: set, limit: int) -> int:
    for c in range(limit):
        if c not in used:
            return c
    raise ColoringError(f"no free color below {limit} (|used|={len(used)})")


class BasicReductionAlgorithm(NodeAlgorithm):
    """One class per round, highest class first.

    Context extras:
        coloring: node -> current color, values in [0, m).
        m: current palette size.
        target: desired palette size, >= Delta + 1.
    """

    name = "basic-reduction"

    def initialize(self, node: Node, ctx: Context) -> None:
        color = ctx.node_input(node.id, "coloring")
        node.state["color"] = color
        node.state["output"] = color
        node.state["nbr_colors"] = {}
        node.broadcast(color)
        if color < ctx.extras["target"]:
            node.halt()

    def step(self, node: Node, inbox: List[Message], round_no: int, ctx: Context) -> None:
        nbr_colors: Dict[NodeId, int] = node.state["nbr_colors"]
        for msg in inbox:
            nbr_colors[msg.sender] = msg.payload
        m, target = ctx.extras["m"], ctx.extras["target"]
        # Round r handles color class m - r.
        if node.state["color"] == m - round_no:
            new_color = _mex(set(nbr_colors.values()), target)
            node.state["color"] = new_color
            node.state["output"] = new_color
            node.broadcast(new_color)
            node.halt()


class BlockedReductionAlgorithm(NodeAlgorithm):
    """One Kuhn–Wattenhofer phase: every block of ``block`` colors reduces to
    ``palette`` colors in parallel; only same-block neighbors constrain the
    re-pick, because the block index is retained in the final color.

    Context extras:
        coloring: node -> current color.
        block: block size (2 * (Delta + 1)).
        palette: per-block target (Delta + 1).
    """

    name = "kw-phase"

    def initialize(self, node: Node, ctx: Context) -> None:
        color = ctx.node_input(node.id, "coloring")
        node.state["color"] = color
        node.state["output"] = color
        node.state["nbr_colors"] = {}
        node.broadcast(color)
        if color % ctx.extras["block"] < ctx.extras["palette"]:
            node.halt()

    def step(self, node: Node, inbox: List[Message], round_no: int, ctx: Context) -> None:
        nbr_colors: Dict[NodeId, int] = node.state["nbr_colors"]
        for msg in inbox:
            nbr_colors[msg.sender] = msg.payload
        block, palette = ctx.extras["block"], ctx.extras["palette"]
        my_block, rel = divmod(node.state["color"], block)
        # Round r handles in-block class block - r, counting down to palette.
        if rel == block - round_no:
            same_block_used = {
                c % block for c in nbr_colors.values() if c // block == my_block
            }
            new_rel = _mex(same_block_used, palette)
            new_color = my_block * block + new_rel
            node.state["color"] = new_color
            node.state["output"] = new_color
            node.broadcast(new_color)
            node.halt()


def _validate_inputs(graph: nx.Graph, coloring: VertexColoring, target: int) -> int:
    delta = max_degree(graph)
    if target < delta + 1:
        raise InvalidParameterError(
            f"cannot reduce below Delta+1 = {delta + 1} colors (asked for {target})"
        )
    missing = set(graph.nodes()) - set(coloring)
    if missing:
        raise InvalidParameterError(f"coloring misses vertices {missing!r}")
    return delta


def basic_color_reduction(
    graph: nx.Graph,
    coloring: VertexColoring,
    target: int,
    ledger: Optional[RoundLedger] = None,
) -> VertexColoring:
    """Reduce a proper coloring to ``target`` colors in (m - target) rounds."""
    _validate_inputs(graph, coloring, target)
    m = max(coloring.values(), default=-1) + 1
    if m <= target:
        return dict(coloring)
    result = run_on_graph(
        graph,
        BasicReductionAlgorithm(),
        extras={"coloring": coloring, "m": m, "target": target},
    )
    if ledger is not None:
        ledger.add("basic-reduction", actual=result.rounds, modeled=m - target)
    return dict(result.outputs)


def kuhn_wattenhofer_reduction(
    graph: nx.Graph,
    coloring: VertexColoring,
    target: Optional[int] = None,
    ledger: Optional[RoundLedger] = None,
) -> VertexColoring:
    """Reduce a proper m-coloring to ``target`` (default Delta+1) colors in
    ``O(Delta * log(m/Delta)) + (target overshoot)`` rounds."""
    delta = max_degree(graph)
    if target is None:
        target = delta + 1
    _validate_inputs(graph, coloring, target)
    current = dict(coloring)
    m = max(current.values(), default=-1) + 1
    palette = delta + 1
    block = 2 * palette
    total_actual = 0.0
    m0 = m
    while m > target:
        if m <= block:
            reduced = basic_color_reduction(graph, current, target)
            total_actual += max(0, m - target)
            current = reduced
            m = target
            break
        result = run_on_graph(
            graph,
            BlockedReductionAlgorithm(),
            extras={"coloring": current, "block": block, "palette": palette},
        )
        total_actual += result.rounds
        # Re-densify: keep (block index, in-block color) as the new color.
        current = {
            v: (c // block) * palette + (c % block) for v, c in result.outputs.items()
        }
        new_m = math.ceil(m / block) * palette
        m = new_m
    if ledger is not None:
        ledger.add(
            "kuhn-wattenhofer",
            actual=total_actual,
            modeled=kuhn_wattenhofer_rounds(m0, delta),
        )
    return current
