"""(Delta+1)-vertex-coloring of bounded-arboricity graphs — reference [6].

The paper's related-work section contrasts its edge-coloring results with
Barenboim–Elkin [6]: for ``a = O(Delta^(1-eps))`` a (Delta+1)-VERTEX-coloring
is computable in deterministic polylogarithmic time, but this does *not*
give edge colorings (line graphs have arboricity Theta(Delta)). We include
the vertex result so the boundary the paper draws is executable:

1. H-partition with degree ``d_hat = ceil(q*a)`` ([4], O(log n) rounds).
2. Sweep levels from the top. For level i, color ``G[H_i]`` (degree <=
   d_hat) with the oracle, then remap its ``<= d_hat + 1`` color classes one
   round at a time into the global ``[Delta + 1]`` palette: a re-picking
   vertex sees at most Delta colored neighbors (higher levels plus
   already-remapped classmates), so a free color always exists, and each
   class is independent inside its level, so simultaneous re-picks are safe.

Total: ``Delta + 1`` colors in ``O((oracle(d_hat) + d_hat) * log n)`` rounds
— polylogarithmic whenever ``a`` (and hence ``d_hat``) is polylogarithmic,
exactly the regime [6] claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import networkx as nx

from repro.errors import ColoringError, InvalidParameterError
from repro.graphs.properties import max_degree
from repro.local import RoundLedger
from repro.substrates.hpartition import HPartition, h_partition
from repro.substrates.oracle import ColoringOracle
from repro.types import NodeId, VertexColoring, num_colors


@dataclass
class VertexArboricityResult:
    """Outcome of the [6]-style (Delta+1)-vertex-coloring."""

    coloring: VertexColoring
    colors_used: int
    delta: int
    arboricity: int
    dhat: int
    levels: int
    ledger: RoundLedger = field(repr=False)

    @property
    def rounds_actual(self) -> float:
        return self.ledger.total_actual

    @property
    def rounds_modeled(self) -> float:
        return self.ledger.total_modeled


def vertex_color_bounded_arboricity(
    graph: nx.Graph,
    arboricity: Optional[int] = None,
    q: float = 3.0,
    oracle: Optional[ColoringOracle] = None,
    ledger: Optional[RoundLedger] = None,
) -> VertexArboricityResult:
    """A proper (Delta+1)-vertex-coloring via H-partition level sweeps."""
    oracle = oracle or ColoringOracle()
    own = RoundLedger(label="vertex-arboricity")
    delta = max_degree(graph)
    if graph.number_of_nodes() == 0:
        return VertexArboricityResult(
            coloring={}, colors_used=0, delta=0, arboricity=arboricity or 0,
            dhat=0, levels=0, ledger=own,
        )
    if arboricity is not None and arboricity < 1:
        raise InvalidParameterError("arboricity bound must be >= 1")
    hp: HPartition = h_partition(graph, arboricity=arboricity, q=q, ledger=own)
    dhat = hp.threshold
    palette = delta + 1

    coloring: VertexColoring = {}
    for level in range(hp.num_levels, 0, -1):
        members = [v for v, i in hp.index.items() if i == level]
        if not members:
            continue
        subgraph = graph.subgraph(members)
        local = oracle.vertex_coloring(
            subgraph, ledger=own, label=f"level-{level}-local"
        )
        classes: Dict[int, List[NodeId]] = {}
        for v, c in local.items():
            classes.setdefault(c, []).append(v)
        # One round per local class: classmates are independent within the
        # level, and every already-colored neighbor is visible.
        for c in sorted(classes):
            for v in classes[c]:
                used = {
                    coloring[u] for u in graph.neighbors(v) if u in coloring
                }
                free = next((col for col in range(palette) if col not in used), None)
                if free is None:
                    raise ColoringError(
                        f"palette {palette} exhausted at {v!r} "
                        f"({len(used)} neighbors colored)"
                    )
                coloring[v] = free
        own.add(f"level-{level}-remap", actual=len(classes), modeled=len(classes))

    if ledger is not None:
        ledger.add(
            "vertex-arboricity", actual=own.total_actual, modeled=own.total_modeled
        )
    return VertexArboricityResult(
        coloring=coloring,
        colors_used=num_colors(coloring),
        delta=delta,
        arboricity=arboricity or dhat,
        dhat=dhat,
        levels=hp.num_levels,
        ledger=own,
    )


# ---------------------------------------------------------------- registry

from repro import registry as _registry


def _run_vertex_arboricity(
    graph: nx.Graph, arboricity: Optional[int] = None, q: float = 3.0
) -> _registry.AlgorithmRun:
    result = vertex_color_bounded_arboricity(graph, arboricity=arboricity, q=q)
    return _registry.AlgorithmRun(
        name="vertex-arboricity",
        kind="vertex-coloring",
        coloring=result.coloring,
        colors_used=result.colors_used,
        rounds_actual=result.rounds_actual,
        rounds_modeled=result.rounds_modeled,
        extra={"dhat": result.dhat, "levels": result.levels, "delta": result.delta},
    )


_registry.register(
    _registry.AlgorithmSpec(
        name="vertex-arboricity",
        family="core",
        kind="vertex-coloring",
        summary="Related-work boundary [6]: (Delta+1)-vertex-coloring of bounded-arboricity graphs",
        color_bound="Delta + 1",
        rounds_bound="O((sqrt(d_hat) + d_hat) * log n)",
        runner=_run_vertex_arboricity,
        invariants=("proper-vertex-coloring", "palette-bound"),
        requires=("bounded-arboricity",),
        params=("arboricity", "q"),
        compact_ok=True,  # level sweeps use CompactGraph.subgraph
    )
)
