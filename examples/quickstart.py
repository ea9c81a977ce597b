"""Quickstart: color a small network every way the paper provides.

Run:  python examples/quickstart.py
"""

from repro.verify import verify_edge_coloring, verify_vertex_coloring
from repro.baselines import greedy_edge_coloring, misra_gries_edge_coloring
from repro.core import (
    cd_coloring,
    edge_color_bounded_arboricity,
    four_delta_edge_coloring,
)
from repro.graphs import line_graph_with_cover, max_degree, random_regular
from repro.local import RoundLedger


def main() -> None:
    # A 12-regular communication network on 60 nodes.
    graph = random_regular(n=60, d=12, seed=42)
    delta = max_degree(graph)
    print(f"network: n={graph.number_of_nodes()} m={graph.number_of_edges()} Delta={delta}")

    # --- Section 4: the headline 4*Delta edge coloring --------------------
    ledger = RoundLedger()
    result = four_delta_edge_coloring(graph, ledger=ledger)
    verify_edge_coloring(graph, result.coloring, palette=result.target_colors)
    print(
        f"star-partition 4Delta: {result.colors_used} colors "
        f"(bound {result.target_colors}), rounds measured={result.rounds_actual:.0f} "
        f"modeled={result.rounds_modeled:.0f}"
    )

    # --- Section 2/3: CD-Coloring of the line graph (diversity 2) ---------
    line, cover = line_graph_with_cover(graph)
    cd = cd_coloring(line, cover, x=1)
    verify_vertex_coloring(line, cd.coloring)
    print(
        f"CD-coloring (line graph, D={cd.diversity}, S={cd.clique_size}, x=1): "
        f"{cd.colors_used} colors (bound D^2*S = {cd.target_colors})"
    )

    # --- Section 5: Delta + O(a) for the low-arboricity regime ------------
    arb = edge_color_bounded_arboricity(graph)
    verify_edge_coloring(graph, arb.coloring)
    print(
        f"Theorem 5.2 (a<= {arb.arboricity}): {arb.colors_used} colors "
        f"= Delta + {arb.colors_used - delta}"
    )

    # --- Baselines ----------------------------------------------------------
    vizing = misra_gries_edge_coloring(graph)
    greedy = greedy_edge_coloring(graph)
    print(
        f"baselines: Vizing(Delta+1)={len(set(vizing.values()))}, "
        f"greedy(2Delta-1)={len(set(greedy.values()))}"
    )

    # --- The registry + engine route (what the CLI does) -------------------
    # Any registered algorithm by name, every simulated round on the fast
    # vector engine; identical results to the reference engine, enforced by
    # the engine-parity suite. CLI equivalent:
    #   python -m repro run --workload random-regular --workload-param n=60 \
    #       --workload-param d=12 --algorithm star4 --engine vector
    from repro import registry
    from repro.engine import use_engine

    with use_engine("vector"):
        fast = registry.run("star4", graph)
    assert fast.coloring == result.coloring
    print(
        f"registry + vector engine: star4 -> {fast.colors_used} colors "
        f"(identical to the reference run)"
    )


if __name__ == "__main__":
    main()
