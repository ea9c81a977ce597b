"""A tour of the LOCAL simulator: write your own distributed algorithm.

The library's algorithms are all built on `repro.local`; this example shows
the full per-node programming model on a self-contained problem — a
*maximal independent set* via the deterministic coloring-to-MIS reduction:

1. color the graph with the (Delta+1)-oracle,
2. sweep the color classes: class-c vertices join the MIS if no neighbor
   joined earlier, and announce it.

Step 2 is written as a `NodeAlgorithm` from scratch, so you can see
initialize/step/halt, message passing and per-round message accounting
in one place.

Run:  python examples/simulator_tour.py
"""

from repro.graphs import erdos_renyi, max_degree
from repro.local import Network, NodeAlgorithm
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
    # The oracle's class 0 is already a maximal independent set here, so
    # sweep the classes in reverse to give every round something to do.
    coloring = {v: num_colors - 1 - c for v, c in coloring.items()}

    # Step 2: our own NodeAlgorithm, driven by the simulator.
    net = Network(graph)
    ctx = net.make_context(coloring=coloring, num_colors=num_colors)
    result = net.run(ColorClassMIS(), ctx)

    mis = {v for v, joined in result.outputs.items() if joined}
    # verify: independent and maximal
    assert all(not (u in mis and v in mis) for u, v in graph.edges())
    assert all(v in mis or any(u in mis for u in graph.neighbors(v)) for v in graph.nodes())
    print(
        f"MIS of size {len(mis)} in {result.rounds} rounds, "
        f"{result.messages} messages (peak {result.peak_round_messages}/round)"
    )

    # The per-round message profile: round_messages[r] messages are
    # delivered at the start of round r + 1, so the announcements of the
    # class-c joiners arrive in round c + 1.
    print("messages delivered per round:")
    for round_no, delivered in enumerate(result.round_messages, start=1):
        print(f"  round {round_no:2d}: {delivered:4d} {'#' * (delivered // 4)}")

if __name__ == "__main__":
    main()
