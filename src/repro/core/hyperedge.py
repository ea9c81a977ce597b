"""Hyperedge coloring — the bounded-diversity application beyond graphs.

The paper's Table 2 family includes line graphs of c-uniform hypergraphs
(diversity c). Coloring the *hyperedges* of a hypergraph so that
intersecting hyperedges get distinct colors is exactly vertex-coloring that
line graph, so CD-Coloring yields a ``(c^(x+1) * S)``-hyperedge-coloring,
where S is the maximum number of hyperedges sharing one vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from repro.core.cd_coloring import CDColoringResult, cd_coloring
from repro.errors import ColoringError
from repro.graphs.hypergraphs import Hypergraph
from repro.local import RoundLedger
from repro.types import NodeId


@dataclass
class HyperedgeColoringResult:
    """A proper hyperedge coloring plus the paper's bound for it."""

    hypergraph: Hypergraph
    coloring: Dict[FrozenSet[NodeId], int]
    colors_used: int
    target_colors: int
    diversity: int
    clique_size: int
    x: int
    ledger: RoundLedger = field(repr=False)

    @property
    def rounds_actual(self) -> float:
        return self.ledger.total_actual

    @property
    def rounds_modeled(self) -> float:
        return self.ledger.total_modeled


def cd_hyperedge_coloring(
    hypergraph: Hypergraph,
    x: int = 1,
    ledger: Optional[RoundLedger] = None,
) -> HyperedgeColoringResult:
    """Color the hyperedges with at most ``D^(x+1) * S`` colors, where
    D <= uniformity and S is the maximum per-vertex hyperedge load
    (Theorem 3.3(i) applied to the hypergraph's line graph)."""
    line, cover = hypergraph.line_graph_with_cover()
    result: CDColoringResult = cd_coloring(line, cover, x=x, ledger=ledger)
    coloring = {
        hypergraph.edges[idx]: color for idx, color in result.coloring.items()
    }
    return HyperedgeColoringResult(
        hypergraph=hypergraph,
        coloring=coloring,
        colors_used=result.colors_used,
        target_colors=result.target_colors,
        diversity=result.diversity,
        clique_size=result.clique_size,
        x=x,
        ledger=result.ledger,
    )


def verify_hyperedge_coloring(
    hypergraph: Hypergraph,
    coloring: Dict[FrozenSet[NodeId], int],
    strict: bool = True,
) -> bool:
    """Check that every hyperedge is colored and intersecting hyperedges
    have distinct colors."""
    try:
        missing = [e for e in hypergraph.edges if e not in coloring]
        if missing:
            raise ColoringError(f"{len(missing)} hyperedges uncolored")
        edges = list(hypergraph.edges)
        for i, e in enumerate(edges):
            for f in edges[i + 1 :]:
                if e & f and coloring[e] == coloring[f]:
                    raise ColoringError(
                        f"intersecting hyperedges share color {coloring[e]}: "
                        f"{sorted(e)!r} and {sorted(f)!r}"
                    )
    except ColoringError:
        if strict:
            raise
        return False
    return True
