"""Cole–Vishkin 3-coloring of rooted forests in O(log* n) rounds.

References [12] (Cole & Vishkin) and [21] (Goldberg, Plotkin, Shannon) of
the paper: deterministic coin tossing colors oriented trees with 3 colors in
O(log* n) rounds. The paper's Section 5 pipeline rests on forest-like
structure (H-partitions, bounded out-degree orientations); this substrate
supplies the classic fast coloring for the forest case and powers the
``forest_edge_coloring`` baseline.

Algorithm:

1. **Bit reduction.** Every vertex holds a color (initially its id). Each
   round, a non-root vertex compares its color with its parent's: if ``i``
   is the lowest bit position where they differ and ``b`` is its own bit
   there, the new color is ``2i + b``. Adjacent colors stay distinct, and an
   m-color palette shrinks to ``2 * ceil(log2 m)`` colors per round — after
   O(log* n) rounds the palette is {0..5}.
2. **Shift-down + reduce.** Three phases remove colors 5, 4, 3: first every
   vertex adopts its parent's previous color (roots re-pick against their
   now-uniform children), then the eliminated class re-picks from {0, 1, 2}
   (only two constraints remain: the parent color and the single shared
   children color).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import networkx as nx

from repro.errors import InvalidParameterError
from repro.graphcore import CompactGraph
from repro.local import Context, Message, Node, NodeAlgorithm, RoundLedger, run_on_graph
from repro.local.costmodel import log_star
from repro.types import NodeId, VertexColoring


def root_forest(forest: nx.Graph) -> Dict[NodeId, Optional[NodeId]]:
    """Root every tree of the forest at its maximum-repr vertex and return
    the parent map (None for roots).

    In the oriented-tree LOCAL model of [12, 21] the orientation is given;
    here we derive one deterministically. The rooting itself would cost
    O(diameter) distributedly — callers who already own an orientation
    (H-partitions, forest decompositions) pass their own parent map instead.
    """
    if isinstance(forest, CompactGraph):
        return _root_forest_csr(forest)
    if not nx.is_forest(forest):
        raise InvalidParameterError("root_forest requires a forest")
    parent: Dict[NodeId, Optional[NodeId]] = {}
    for component in nx.connected_components(forest):
        root = max(component, key=repr)
        parent[root] = None
        for child, par in nx.bfs_predecessors(forest.subgraph(component), root):
            parent[child] = par
    return parent


def _root_forest_csr(forest) -> Dict[NodeId, Optional[NodeId]]:
    """The CSR twin of the networkx branch: same parent map (parents in a
    tree are traversal-independent — the unique neighbor toward the root),
    same roots (each component's maximum-repr vertex), with the forest
    check folded into the traversal (a visited non-parent neighbor is a
    cycle)."""
    from collections import deque

    from repro.kernels.segments import repr_rank_order

    n = forest.n
    flat = forest.indices.tolist()
    bounds = forest.indptr.tolist()
    parent: Dict[NodeId, Optional[NodeId]] = {}
    visited = [False] * n
    # Descending repr order: the first unvisited vertex of a component is
    # exactly max(component, key=repr).
    for start in repr_rank_order(n).tolist()[::-1]:
        if visited[start]:
            continue
        parent[start] = None
        visited[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            par = parent[u]
            for w in flat[bounds[u] : bounds[u + 1]]:
                if w == par:
                    continue
                if visited[w]:
                    raise InvalidParameterError("root_forest requires a forest")
                visited[w] = True
                parent[w] = u
                queue.append(w)
    return parent


def _lowest_differing_bit(a: int, b: int) -> int:
    diff = a ^ b
    if diff == 0:
        raise InvalidParameterError("colors must differ between parent and child")
    return (diff & -diff).bit_length() - 1


def cv_iterations(m0: int) -> int:
    """Bit-reduction rounds needed from an m0-palette to the {0..5} fixed
    point, plus one safety round (extra rounds preserve properness)."""
    iterations = 0
    m = max(m0, 2)
    while m > 6:
        m = 2 * math.ceil(math.log2(m))
        iterations += 1
    return iterations + 1


class ColeVishkinAlgorithm(NodeAlgorithm):
    """One bit-reduction iteration per round, `iterations` rounds total.

    Context extras:
        parent: node -> parent id (None for roots).
        initial_coloring: node -> starting color.
        iterations: globally computed round count (all nodes know n).
    """

    name = "cole-vishkin"

    def _send_to_tree_neighbors(self, node: Node, ctx: Context, color: int) -> None:
        parent = ctx.extras["parent"].get(node.id)
        for nbr in node.neighbors:
            if nbr == parent or ctx.extras["parent"].get(nbr) == node.id:
                node.send(nbr, color)

    def initialize(self, node: Node, ctx: Context) -> None:
        color = ctx.node_input(node.id, "initial_coloring")
        node.state["color"] = color
        node.state["output"] = color
        node.state["parent_color"] = None
        if ctx.extras["iterations"] == 0:
            node.halt()
            return
        self._send_to_tree_neighbors(node, ctx, color)

    def step(self, node: Node, inbox: List[Message], round_no: int, ctx: Context) -> None:
        parent = ctx.extras["parent"].get(node.id)
        for msg in inbox:
            if msg.sender == parent:
                node.state["parent_color"] = msg.payload
        color = node.state["color"]
        if parent is None:
            new_color = color & 1  # roots re-encode as (bit position 0, own bit)
        else:
            i = _lowest_differing_bit(color, node.state["parent_color"])
            new_color = 2 * i + ((color >> i) & 1)
        node.state["color"] = new_color
        node.state["output"] = new_color
        if round_no >= ctx.extras["iterations"]:
            node.halt()
        else:
            self._send_to_tree_neighbors(node, ctx, new_color)


def _shift_down_and_reduce(
    forest: nx.Graph,
    parent: Dict[NodeId, Optional[NodeId]],
    coloring: VertexColoring,
) -> VertexColoring:
    """Three 2-round phases eliminating colors 5, 4, 3 (all local steps:
    each vertex consults only its parent and children)."""
    children: Dict[NodeId, List[NodeId]] = {v: [] for v in forest.nodes()}
    for child, par in parent.items():
        if par is not None:
            children[par].append(child)
    for eliminated in (5, 4, 3):
        # Shift down: everyone adopts the parent's previous color; roots
        # re-pick against their now-uniform children.
        shifted: VertexColoring = {}
        for v in forest.nodes():
            par = parent[v]
            if par is not None:
                shifted[v] = coloring[par]
        for v in forest.nodes():
            if parent[v] is None:
                blocked = {shifted[ch] for ch in children[v]}
                shifted[v] = next(c for c in range(3) if c not in blocked)
        coloring = shifted
        # The eliminated class re-picks from {0, 1, 2}: at most two
        # constraints (parent color; the single shared children color).
        for v in sorted(forest.nodes(), key=repr):
            if coloring[v] == eliminated:
                blocked = {coloring[ch] for ch in children[v]}
                par = parent[v]
                if par is not None:
                    blocked.add(coloring[par])
                coloring[v] = next(c for c in range(3) if c not in blocked)
    return coloring


def cole_vishkin_forest_coloring(
    forest: nx.Graph,
    parent: Optional[Dict[NodeId, Optional[NodeId]]] = None,
    ledger: Optional[RoundLedger] = None,
) -> VertexColoring:
    """A proper 3-coloring of a forest in O(log* n) rounds.

    ``parent`` may carry a precomputed rooting (every non-root points to its
    parent); otherwise each tree is rooted deterministically.
    """
    if forest.number_of_nodes() == 0:
        return {}
    if parent is None:
        parent = root_forest(forest)
    missing = set(forest.nodes()) - set(parent)
    if missing:
        raise InvalidParameterError(f"parent map misses vertices {missing!r}")

    from repro.kernels.segments import repr_sorted_nodes

    ordered = repr_sorted_nodes(forest)
    initial = {v: i for i, v in enumerate(ordered)}
    iterations = cv_iterations(len(ordered))
    result = run_on_graph(
        forest,
        ColeVishkinAlgorithm(),
        extras={
            "parent": parent,
            "initial_coloring": initial,
            "iterations": iterations,
        },
    )
    coloring = _shift_down_and_reduce(forest, parent, dict(result.outputs))
    if ledger is not None:
        ledger.add(
            "cole-vishkin",
            actual=result.rounds + 6,
            modeled=log_star(forest.number_of_nodes()) + 6,
        )
    return coloring


# ---------------------------------------------------------------- registry

from repro import registry as _registry
from repro.types import num_colors as _num_colors


def _run_cole_vishkin(forest: nx.Graph) -> _registry.AlgorithmRun:
    ledger = RoundLedger(label="cole-vishkin")
    coloring = cole_vishkin_forest_coloring(forest, ledger=ledger)
    return _registry.AlgorithmRun(
        name="cole-vishkin",
        kind="vertex-coloring",
        coloring=coloring,
        colors_used=_num_colors(coloring),
        rounds_actual=ledger.total_actual,
        rounds_modeled=ledger.total_modeled,
    )


_registry.register(
    _registry.AlgorithmSpec(
        name="cole-vishkin",
        family="substrate",
        kind="vertex-coloring",
        summary="Cole-Vishkin 3-coloring of rooted forests",
        color_bound="3",
        rounds_bound="O(log* n)",
        runner=_run_cole_vishkin,
        invariants=("proper-vertex-coloring", "palette-bound"),
        palette_bound=lambda ctx: min(3, ctx.n),
        requires=("forest",),
    )
)
