"""A tour of the LOCAL simulator: write your own distributed algorithm.

The library's algorithms are all built on `repro.local`; this example shows
the full per-node programming model on a self-contained problem — a
*maximal independent set* via the deterministic coloring-to-MIS reduction:

1. color the graph with the (Delta+1)-oracle,
2. sweep the color classes: class-c vertices join the MIS if no neighbor
   joined earlier, and announce it.

Step 2 is written as a `NodeAlgorithm` from scratch, so you can see
initialize/step/halt, message passing, per-round accounting, bandwidth
tracking, and crash injection in one place.

Run:  python examples/simulator_tour.py
"""

import networkx as nx

from repro.graphs import erdos_renyi, max_degree
from repro.local import Network, NodeAlgorithm, estimate_payload_bits, is_congest_width
from repro.substrates import oracle_vertex_coloring


class ColorClassMIS(NodeAlgorithm):
    """Sweep color classes; earlier classes have priority.

    Context extras:
        coloring: node -> color (proper).
        num_colors: palette size (the number of sweep rounds).
    """

    name = "color-class-mis"

    def initialize(self, node, ctx):
        node.state["color"] = ctx.node_input(node.id, "coloring")
        node.state["blocked"] = False
        node.state["output"] = None
        if node.state["color"] == 0:  # class 0 joins immediately
            node.state["output"] = True
            node.broadcast("joined")
            node.halt()

    def step(self, node, inbox, round_no, ctx):
        if any(msg.payload == "joined" for msg in inbox):
            node.state["blocked"] = True
        if node.state["color"] == round_no:  # my class's turn
            joined = not node.state["blocked"]
            node.state["output"] = joined
            if joined:
                node.broadcast("joined")
            node.halt()
        if round_no >= ctx.extras["num_colors"]:
            node.state["output"] = not node.state["blocked"]
            node.halt()


def main() -> None:
    graph = erdos_renyi(80, 0.08, seed=13)
    delta = max_degree(graph)
    print(f"graph: n={graph.number_of_nodes()} m={graph.number_of_edges()} Delta={delta}")

    # Step 1: the (Delta+1)-coloring oracle from the library.
    coloring = oracle_vertex_coloring(graph)
    num_colors = max(coloring.values()) + 1
    print(f"oracle coloring: {num_colors} colors")

    # Step 2: our own NodeAlgorithm, driven by the simulator.
    net = Network(graph)
    ctx = net.make_context(coloring=coloring, num_colors=num_colors)
    result = net.run(ColorClassMIS(), ctx, track_bandwidth=True)

    mis = {v for v, joined in result.outputs.items() if joined}
    # verify: independent and maximal
    assert all(not (u in mis and v in mis) for u, v in graph.edges())
    assert all(v in mis or any(u in mis for u in graph.neighbors(v)) for v in graph.nodes())
    print(
        f"MIS of size {len(mis)} in {result.rounds} rounds, "
        f"{result.messages} messages "
        f"(peak {result.peak_round_messages}/round, "
        f"max payload {result.max_message_bits} bits, "
        f"CONGEST-ok: {is_congest_width(result.max_message_bits, net.n)})"
    )

    # Crash injection: fail two nodes mid-sweep; the survivors' output must
    # still be independent (they only ever react to delivered messages).
    result2 = net.run(ColorClassMIS(), ctx, crashes={0: 2, 5: 3})
    alive = set(graph.nodes()) - set(result2.crashed)
    mis2 = {v for v in alive if result2.outputs[v]}
    assert all(
        not (u in mis2 and v in mis2) for u, v in graph.edges() if u in alive and v in alive
    )
    print(
        f"with crashes {sorted(result2.crashed)}: surviving MIS of size "
        f"{len(mis2)} remains independent"
    )


if __name__ == "__main__":
    main()
