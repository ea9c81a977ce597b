"""Channel allocation for multi-party links — vertex coloring a bounded
diversity graph (Table 2's regime beyond line graphs).

Conference links connect c = 3 stations at a time (a 3-uniform hypergraph).
Two links interfere when they share a station, so the interference graph is
the hypergraph's line graph: diversity D <= 3, clique size S = the busiest
station's load. CD-Coloring assigns channels with at most D^(x+1) * S
channels — far fewer than the interference graph's Delta would suggest.

Run:  python examples/hypergraph_channel_allocation.py
"""

from repro.verify import verify_vertex_coloring
from repro.baselines import greedy_vertex_coloring
from repro.core import cd_coloring
from repro.graphs import max_degree, random_uniform_hypergraph
from repro.local import RoundLedger


def main() -> None:
    hyper = random_uniform_hypergraph(n=30, num_edges=120, c=3, seed=21)
    interference, cover = hyper.line_graph_with_cover()
    diversity = cover.diversity()
    clique_size = cover.max_clique_size()
    delta = max_degree(interference)
    print(
        f"{len(hyper.edges)} three-party links over {len(hyper.vertices)} stations;"
        f" interference graph: Delta={delta}, D={diversity}, S={clique_size}"
    )

    for x in (1, 2):
        ledger = RoundLedger()
        result = cd_coloring(interference, cover, x=x, ledger=ledger)
        verify_vertex_coloring(interference, result.coloring)
        print(
            f"CD-coloring x={x}: {result.colors_used} channels "
            f"(paper bound D^{x + 1}*S = {result.target_colors}), "
            f"rounds measured={result.rounds_actual:.0f} "
            f"modeled={result.rounds_modeled:.0f}"
        )

    greedy = greedy_vertex_coloring(interference)
    print(f"centralized greedy reference: {len(set(greedy.values()))} channels")
    print(
        "note: D*(S-1)+1 ="
        f" {diversity * (clique_size - 1) + 1} is the chromatic-number cap the"
        " paper derives for bounded-diversity graphs (footnote 4)."
    )


if __name__ == "__main__":
    main()
