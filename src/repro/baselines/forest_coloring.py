"""Forest-decomposition edge coloring — the "fast but many colors" endpoint.

Decompose the graph into ``k = degeneracy`` rooted forests (every vertex has
at most one parent per forest, straight from the smallest-last elimination
order), 3-color each forest's vertices with Cole–Vishkin in O(log* n)
rounds, and color each edge by *(its label at the parent endpoint, the
parent's CV color, its forest index)*:

* two edges sharing their parent endpoint get distinct labels;
* two adjacent edges with different assigners have adjacent assigners,
  whose CV colors differ;
* edges in different forests differ in the third coordinate.

Palette: at most ``3 * Delta * k = O(a * Delta)`` — far more colors than the
paper's algorithms, but in O(log* n) rounds. This is the opposite end of the
color/time tradeoff curve the paper's Table 1 moves along, in the spirit of
Panconesi–Rizzi [33] and Barenboim–Elkin [4].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.graphs.properties import degeneracy_ordering, max_degree, number_of_edges
from repro.local import RoundLedger
from repro.local.costmodel import log_star
from repro.substrates.cole_vishkin import cole_vishkin_forest_coloring
from repro.types import Edge, EdgeColoring, NodeId, edge_key


@dataclass
class ForestColoringResult:
    coloring: EdgeColoring
    colors_used: int
    num_forests: int
    delta: int
    ledger: RoundLedger = field(repr=False)

    @property
    def rounds_actual(self) -> float:
        return self.ledger.total_actual

    @property
    def rounds_modeled(self) -> float:
        return self.ledger.total_modeled


def forest_edge_coloring(
    graph: nx.Graph, ledger: Optional[RoundLedger] = None
) -> ForestColoringResult:
    """An O(a * Delta)-edge-coloring in O(log* n) rounds."""
    own = RoundLedger(label="forest-edge-coloring")
    delta = max_degree(graph)
    if number_of_edges(graph) == 0:
        return ForestColoringResult(
            coloring={}, colors_used=0, num_forests=0, delta=delta, ledger=own
        )

    order, k = degeneracy_ordering(graph)
    position = {v: i for i, v in enumerate(order)}
    # forest index f holds each vertex's f-th forward edge; the forward
    # endpoint (later in the order) is the *parent*.
    forests: List[nx.Graph] = [nx.Graph() for _ in range(max(k, 1))]
    parents: List[Dict[NodeId, Optional[NodeId]]] = [
        {v: None for v in graph.nodes()} for _ in range(max(k, 1))
    ]
    for f in forests:
        f.add_nodes_from(graph.nodes())
    counter: Dict[NodeId, int] = {v: 0 for v in graph.nodes()}
    for v in order:
        for u in sorted(graph.neighbors(v), key=repr):
            if position[u] > position[v]:
                idx = counter[v]
                forests[idx].add_edge(v, u)
                parents[idx][v] = u
                counter[v] += 1

    coloring: Dict[Edge, Tuple[int, int, int]] = {}
    with own.parallel("forest-cv") as scope:
        for idx, (forest, parent) in enumerate(zip(forests, parents)):
            branch = scope.branch(f"forest-{idx}")
            cv = cole_vishkin_forest_coloring(forest, parent=parent, ledger=branch)
            # the parent endpoint labels its child edges 1..(#children) and
            # stamps them with its own CV color
            per_parent: Dict[NodeId, int] = {}
            for child in sorted(forest.nodes(), key=repr):
                par = parent[child]
                if par is None:
                    continue
                per_parent[par] = per_parent.get(par, 0) + 1
                coloring[edge_key(child, par)] = (per_parent[par], cv[par], idx)

    palette = sorted(set(coloring.values()))
    index = {p: i for i, p in enumerate(palette)}
    flat: EdgeColoring = {e: index[p] for e, p in coloring.items()}
    own.add("labeling", actual=1, modeled=1)
    if ledger is not None:
        ledger.add(
            "forest-edge-coloring",
            actual=own.total_actual,
            modeled=log_star(graph.number_of_nodes()) + 7,
        )
    return ForestColoringResult(
        coloring=flat,
        colors_used=len(set(flat.values())),
        num_forests=len(forests),
        delta=delta,
        ledger=own,
    )


# ---------------------------------------------------------------- registry

from repro import registry as _registry


def _run_forest(graph: nx.Graph) -> _registry.AlgorithmRun:
    result = forest_edge_coloring(graph)
    return _registry.AlgorithmRun(
        name="forest",
        kind="edge-coloring",
        coloring=result.coloring,
        colors_used=result.colors_used,
        rounds_actual=result.rounds_actual,
        rounds_modeled=result.rounds_modeled,
        extra={"num_forests": result.num_forests, "delta": result.delta},
    )


_registry.register(
    _registry.AlgorithmSpec(
        name="forest",
        family="baseline",
        kind="edge-coloring",
        summary="Forest decomposition + Cole-Vishkin per forest",
        color_bound="O(a * Delta)",
        rounds_bound="O(log* n)",
        runner=_run_forest,
        invariants=("proper-edge-coloring", "palette-bound"),
        # Reads the input duck-typed; the per-forest CV runs happen on
        # freshly built networkx forests either way.
        compact_ok=True,
    )
)
