"""Randomized trial edge coloring — the intro's randomized contrast.

The paper stresses that *randomized* (1+eps)Delta-edge-colorings were known
([14, 16, 22]) while the deterministic landscape stood at 2Delta-1. The
classic simple randomized algorithm: every round, each uncolored edge
proposes a uniformly random color from its currently-free palette and keeps
it if no adjacent edge proposed the same color that round. With a
``2*Delta`` palette a constant fraction of edges succeeds per round, so it
terminates in O(log m) rounds with high probability.

Deterministic per seed (the rng is seeded), so tests and benchmarks are
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

import networkx as nx

from repro.errors import InvalidParameterError, RoundLimitExceeded
from repro.graphs.properties import iter_edges, max_degree
from repro.local import RoundLedger
from repro.types import Edge, EdgeColoring, NodeId, edge_key


@dataclass
class RandomizedColoringResult:
    coloring: EdgeColoring
    colors_used: int
    rounds: int
    delta: int
    palette: int
    ledger: RoundLedger = field(repr=False)


def randomized_edge_coloring(
    graph: nx.Graph,
    palette_factor: float = 2.0,
    seed: int = 0,
    max_rounds: int = 10_000,
    ledger: Optional[RoundLedger] = None,
) -> RandomizedColoringResult:
    """Propose-and-keep randomized edge coloring with a
    ``ceil(palette_factor * Delta)`` palette.

    With ``palette_factor >= 2`` every uncolored edge always has a free
    color and the winner rule guarantees progress, so the run terminates
    (O(log m) rounds with high probability). Below ``2*Delta - 1`` colors,
    free lists can empty out and the simple scheme may stall — precisely the
    gap the nibble-method papers [14, 16, 22] close; such runs raise
    :class:`RoundLimitExceeded` rather than hang.
    """
    own = RoundLedger(label="randomized-edge-coloring")
    delta = max_degree(graph)
    palette = max(int(palette_factor * delta + 0.5), delta + 1, 1)
    if palette_factor <= 1.0:
        raise InvalidParameterError("palette_factor must exceed 1")
    rng = random.Random(seed)

    coloring: EdgeColoring = {}
    used: Dict[NodeId, Set[int]] = {v: set() for v in graph.nodes()}
    uncolored = sorted(
        (edge_key(u, v) for u, v in iter_edges(graph)),
        key=lambda e: (repr(e[0]), repr(e[1])),
    )
    rounds = 0
    while uncolored:
        if rounds >= max_rounds:
            raise RoundLimitExceeded(max_rounds, len(uncolored))
        rounds += 1
        proposals: Dict[Edge, int] = {}
        for e in uncolored:
            u, v = e
            free = [c for c in range(palette) if c not in used[u] and c not in used[v]]
            if free:  # with palette >= 2*Delta-1 this is always non-empty
                proposals[e] = rng.choice(free)
        survivors = []
        accepted = []
        for e in uncolored:
            if e not in proposals:
                survivors.append(e)
                continue
            u, v = e
            color = proposals[e]
            # Contested colors go to the smallest edge key among adjacent
            # proposers — the standard symmetry-breaking that guarantees
            # progress (the globally smallest proposing edge always wins).
            loses = any(
                other != e and proposals.get(other) == color and other < e
                for w in (u, v)
                for x in graph.neighbors(w)
                if (other := edge_key(w, x)) in proposals
            )
            if loses:
                survivors.append(e)
            else:
                accepted.append((e, color))
        for e, color in accepted:
            coloring[e] = color
            used[e[0]].add(color)
            used[e[1]].add(color)
        uncolored = survivors
    own.add("trial-rounds", actual=rounds, modeled=rounds)
    if ledger is not None:
        ledger.add("randomized-edge-coloring", actual=rounds, modeled=rounds)
    return RandomizedColoringResult(
        coloring=coloring,
        colors_used=len(set(coloring.values())) if coloring else 0,
        rounds=rounds,
        delta=delta,
        palette=palette,
        ledger=own,
    )


# ---------------------------------------------------------------- registry

from repro import registry as _registry


def _run_randomized(
    graph: nx.Graph, palette_factor: float = 2.0, seed: int = 0
) -> _registry.AlgorithmRun:
    result = randomized_edge_coloring(graph, palette_factor=palette_factor, seed=seed)
    return _registry.AlgorithmRun(
        name="randomized",
        kind="edge-coloring",
        coloring=result.coloring,
        colors_used=result.colors_used,
        rounds_actual=float(result.rounds),
        rounds_modeled=float(result.rounds),
        extra={"palette": result.palette, "delta": result.delta, "seed": seed},
    )


_registry.register(
    _registry.AlgorithmSpec(
        name="randomized",
        family="baseline",
        kind="edge-coloring",
        summary="Propose-and-keep randomized 2*Delta trial ([14, 16, 22] regime)",
        color_bound="ceil(palette_factor * Delta)",
        rounds_bound="O(log m) w.h.p.",
        runner=_run_randomized,
        invariants=("proper-edge-coloring", "palette-bound"),
        params=("palette_factor", "seed"),
        compact_ok=True,  # degree()/nodes()/edges()/neighbors() only
    )
)
