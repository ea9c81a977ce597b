"""Degree-splitting edge coloring — the Karloff–Shmoys / Ghaffari–Su [20]
style baseline.

An Euler partition splits the edge set into two subgraphs whose maximum
degree is at most ``ceil(Delta/2) + 1``; recursing ``h`` times and coloring
the ``2^h`` leaf subgraphs greedily with disjoint palettes yields roughly
``2 Delta (1 + eps)`` colors. The split itself needs global coordination
(an Eulerian circuit); Ghaffari–Su show how to emulate it in O(log n)
distributed rounds, which is what the modeled round count charges — the
executable split here is centralized, as documented in DESIGN.md.

The split consumes only the duck read API (``nodes``/``neighbors``/
``degree``), so :class:`~repro.graphcore.CompactGraph` inputs run
natively (``compact_ok``) — and because the Euler walk is
order-canonical, CSR and networkx representations of the same graph
color identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.errors import InvalidParameterError
from repro.graphs.properties import max_degree, number_of_edges
from repro.local import RoundLedger
from repro.local.costmodel import log_star
from repro.baselines.greedy import greedy_edge_coloring
from repro.types import Edge, EdgeColoring, edge_key


def euler_split(graph) -> Tuple[nx.Graph, nx.Graph]:
    """Split the edges into two subgraphs of maximum degree at most
    ``ceil(Delta/2) + 1`` by 2-coloring each Eulerian circuit alternately.

    Odd-degree vertices are paired through a virtual vertex per connected
    component so every degree becomes even; virtual edges are discarded
    after the walk (they still advance the alternation parity, which is
    what keeps the two halves' degrees within the classic +1 of Delta/2).

    ``graph`` may be any object with the duck read API
    (``nodes()``/``neighbors()``) — :class:`nx.Graph` or
    :class:`~repro.graphcore.CompactGraph`. The walk is order-canonical:
    nodes are ranked by ``repr`` and the circuit always leaves a vertex
    along its lowest-ranked unused edge, so both representations of the
    same graph split identically (the compact-parity suite holds the
    whole ``split`` pipeline to bit-identical colorings).
    """
    order = sorted(graph.nodes(), key=repr)
    rank = {v: i for i, v in enumerate(order)}
    n = len(order)
    # Edge-instance adjacency over ranks: adj[u] = [(v, edge_id), ...],
    # sorted so "next unused edge" always means lowest-ranked neighbor.
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    num_edges = 0
    for u in range(n):
        for w in graph.neighbors(order[u]):
            v = rank[w]
            if v > u:
                adj[u].append((v, num_edges))
                adj[v].append((u, num_edges))
                num_edges += 1
    for entries in adj:
        entries.sort()

    halves = (nx.Graph(), nx.Graph())
    for half in halves:
        half.add_nodes_from(order)

    # Component discovery in canonical order, then one Euler circuit per
    # component (dummy vertex n pairing the odd-degree vertices).
    seen = [False] * n
    used = [False] * num_edges
    for root in range(n):
        if seen[root] or not adj[root]:
            seen[root] = True
            continue
        component: List[int] = []
        stack = [root]
        seen[root] = True
        while stack:
            v = stack.pop()
            component.append(v)
            for w, _ in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        component.sort()
        odd = [v for v in component if len(adj[v]) % 2 == 1]
        dummy = n
        local_adj = {v: list(adj[v]) for v in component}
        if odd:
            local_adj[dummy] = []
            for v in odd:
                eid = len(used)
                used.append(False)
                local_adj[dummy].append((v, eid))
                local_adj[v].append((dummy, eid))
        start = dummy if odd else component[0]
        # Iterative Hierholzer: the reversed pop order of the vertex
        # stack is the circuit's vertex sequence.
        ptr = {v: 0 for v in local_adj}
        walk = [start]
        path: List[int] = []
        while walk:
            v = walk[-1]
            entries = local_adj[v]
            i = ptr[v]
            while i < len(entries) and used[entries[i][1]]:
                i += 1
            ptr[v] = i
            if i == len(entries):
                path.append(walk.pop())
            else:
                w, eid = entries[i]
                used[eid] = True
                walk.append(w)
        path.reverse()
        for parity in range(len(path) - 1):
            a, b = path[parity], path[parity + 1]
            if dummy in (a, b):
                continue
            halves[parity % 2].add_edge(order[a], order[b])
    return halves


@dataclass
class DegreeSplittingResult:
    coloring: EdgeColoring
    colors_used: int
    delta: int
    levels: int
    ledger: RoundLedger = field(repr=False)

    @property
    def rounds_modeled(self) -> float:
        return self.ledger.total_modeled


def degree_splitting_edge_coloring(
    graph: nx.Graph,
    threshold: int = 8,
    ledger: Optional[RoundLedger] = None,
) -> DegreeSplittingResult:
    """Recursively Euler-split until the maximum degree is at most
    ``threshold``, then greedily (2*Delta'-1)-color every leaf with its own
    palette. Colors: about ``2 Delta (1 + O(levels * threshold / Delta))``."""
    if threshold < 1:
        raise InvalidParameterError("threshold must be >= 1")
    own = RoundLedger(label="degree-splitting")
    delta = max_degree(graph)
    n = graph.number_of_nodes()

    leaves: List[nx.Graph] = [graph]
    levels = 0
    while max(
        (max_degree(leaf) for leaf in leaves),
        default=0,
    ) > threshold:
        next_leaves: List[nx.Graph] = []
        for leaf in leaves:
            next_leaves.extend(euler_split(leaf))
        leaves = next_leaves
        levels += 1
        own.add(f"euler-split-{levels}", actual=0.0, modeled=math.log2(max(n, 2)))

    coloring: EdgeColoring = {}
    offset = 0
    for leaf in leaves:
        if number_of_edges(leaf) == 0:
            continue
        local = greedy_edge_coloring(leaf)
        width = max(local.values()) + 1
        for e, c in local.items():
            coloring[e] = offset + c
        offset += width
    own.add(
        "leaf-coloring",
        actual=0.0,
        modeled=threshold + log_star(max(n, 2)),
    )
    if ledger is not None:
        ledger.add("degree-splitting", actual=own.total_actual, modeled=own.total_modeled)
    return DegreeSplittingResult(
        coloring=coloring,
        colors_used=len(set(coloring.values())) if coloring else 0,
        delta=delta,
        levels=levels,
        ledger=own,
    )


# ---------------------------------------------------------------- registry

from repro import registry as _registry


def _run_split(graph: nx.Graph, threshold: int = 8) -> _registry.AlgorithmRun:
    result = degree_splitting_edge_coloring(graph, threshold=threshold)
    return _registry.AlgorithmRun(
        name="split",
        kind="edge-coloring",
        coloring=result.coloring,
        colors_used=result.colors_used,
        rounds_modeled=result.rounds_modeled,
        extra={"levels": result.levels, "delta": result.delta},
    )


_registry.register(
    _registry.AlgorithmSpec(
        name="split",
        family="baseline",
        kind="edge-coloring",
        summary="Recursive Euler degree splitting ([20, 25] regime)",
        color_bound="2*Delta * (1 + O(levels*threshold/Delta))",
        rounds_bound="modeled only (Euler splits are global)",
        runner=_run_split,
        invariants=("proper-edge-coloring", "palette-bound"),
        params=("threshold",),
        compact_ok=True,
    )
)
