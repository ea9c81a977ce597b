"""Link scheduling a fat-tree datacenter fabric, with trace and DOT export.

Fat-trees are the canonical datacenter switch topology; an edge coloring of
the fabric is a contention-free link schedule. This example schedules a
k=6 fat-tree with the paper's 4Δ algorithm, compares against Vizing, traces
the rounds of one distributed run of the Linial substrate, and writes a
colored DOT file you can render with graphviz.

Run:  python examples/datacenter_fat_tree.py
"""

import tempfile
from pathlib import Path

from repro import obs
from repro.analysis import verify_edge_coloring
from repro.baselines import misra_gries_edge_coloring
from repro.core import four_delta_edge_coloring
from repro.engine import get_engine
from repro.graphs import fat_tree, max_degree
from repro.io import write_colored_dot
from repro.substrates.linial import LinialAlgorithm


def main() -> None:
    fabric = fat_tree(6)
    delta = max_degree(fabric)
    print(
        f"fat-tree k=6 fabric: {fabric.number_of_nodes()} switches, "
        f"{fabric.number_of_edges()} links, Delta={delta}"
    )

    result = four_delta_edge_coloring(fabric)
    verify_edge_coloring(fabric, result.coloring, palette=4 * delta)
    vizing = misra_gries_edge_coloring(fabric)
    print(
        f"schedule: {result.colors_used} slots "
        f"(paper bound {4 * delta}, Vizing optimum <= {len(set(vizing.values()))}), "
        f"{result.rounds_actual:.0f} simulated rounds"
    )

    # Trace one substrate run: the engine emits one engine.round point
    # per round, carrying the number of messages delivered in it.
    # Spread ids like real O(log n)-bit identifiers so Linial has work to do.
    initial = {v: 7919 * i + 13 for i, v in enumerate(sorted(fabric.nodes()))}
    extras = {"initial_coloring": initial, "m0": max(initial.values()) + 1}
    sink = obs.MemorySink()
    with obs.collect(trace=sink):
        get_engine("reference").run(fabric, LinialAlgorithm(), extras=extras)
    print("\nrounds of Linial on the fabric:")
    print(obs.render_events(sink.events, name_prefix="engine."))

    out = Path(tempfile.gettempdir()) / "fat_tree_schedule.dot"
    write_colored_dot(fabric, out, edge_coloring=result.coloring, name="fat-tree")
    print(f"\nwrote {out} (render with: dot -Tsvg {out} -o schedule.svg)")


if __name__ == "__main__":
    main()
