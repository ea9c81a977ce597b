"""Link scheduling in a sensor network (the paper's motivating application,
[19] in its bibliography).

An edge coloring is a TDMA schedule: edges with the same color transmit in
the same time slot without interference at any shared node. Fewer colors
means a shorter frame and proportionally higher throughput.

This example builds a random geometric sensor field, schedules it with the
paper's 4*Delta star-partition algorithm, and compares frame lengths against
the greedy (2*Delta-1) schedule and the centralized Vizing optimum.

Run:  python examples/link_scheduling.py
"""

import math
import random
from collections import defaultdict

import networkx as nx

from repro.verify import verify_edge_coloring
from repro.baselines import greedy_edge_coloring, misra_gries_edge_coloring
from repro.core import four_delta_edge_coloring, star_partition_edge_coloring
from repro.graphs import max_degree
from repro.local import RoundLedger


def sensor_field(n: int = 120, radius: float = 0.16, seed: int = 7) -> nx.Graph:
    """Sensors scattered uniformly in the unit square; links within radius."""
    rng = random.Random(seed)
    positions = {i: (rng.random(), rng.random()) for i in range(n)}
    graph = nx.Graph()
    graph.add_nodes_from(positions)
    for u in range(n):
        for v in range(u + 1, n):
            (x1, y1), (x2, y2) = positions[u], positions[v]
            if math.hypot(x1 - x2, y1 - y2) <= radius:
                graph.add_edge(u, v)
    return graph


def frame_stats(name: str, coloring, m: int) -> None:
    slots = len(set(coloring.values()))
    per_slot = defaultdict(int)
    for c in coloring.values():
        per_slot[c] += 1
    busiest = max(per_slot.values())
    print(
        f"  {name:<28} frame={slots:>3} slots  "
        f"avg links/slot={m / slots:5.1f}  busiest slot={busiest}"
    )


def main() -> None:
    graph = sensor_field()
    delta = max_degree(graph)
    m = graph.number_of_edges()
    print(
        f"sensor field: {graph.number_of_nodes()} nodes, {m} links, "
        f"max contention Delta={delta}"
    )

    ledger = RoundLedger()
    ours = four_delta_edge_coloring(graph, ledger=ledger)
    verify_edge_coloring(graph, ours.coloring)
    deeper = star_partition_edge_coloring(graph, x=2)
    verify_edge_coloring(graph, deeper.coloring)
    greedy = greedy_edge_coloring(graph)
    vizing = misra_gries_edge_coloring(graph)

    print("\nschedules (shorter frame = higher throughput):")
    frame_stats("star-partition x=1 (4Δ)", ours.coloring, m)
    frame_stats("star-partition x=2 (8Δ)", deeper.coloring, m)
    frame_stats("greedy distributed (2Δ-1)", greedy, m)
    frame_stats("Vizing centralized (Δ+1)", vizing, m)

    print(
        f"\ndistributed cost of the 4Δ schedule: "
        f"{ours.rounds_actual:.0f} simulated rounds "
        f"({ours.rounds_modeled:.0f} with the paper's [17] oracle)"
    )


if __name__ == "__main__":
    main()
