"""Reproductions of the paper's Figures 1-3 (the connector gadgets).

The paper's figures are schematic drawings of the three connector
constructions. These builders create the exact gadget instances the captions
describe, apply the construction, and summarize the result as a one-line
degree-bound check, so the structural claims pictured in the appendix are
checkable:

* Figure 1 — clique connector with t = 4 on two cliques sharing a vertex.
* Figure 2 — edge-connector with t = 3.
* Figure 3 — orientation connector on an acyclically oriented gadget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import networkx as nx

from repro.graphs.cliques import CliqueCover
from repro.graphs.generators import shared_vertex_cliques
from repro.graphs.orientation import orient_acyclic_by_order
from repro.graphs.properties import max_degree
from repro.core.connectors import (
    build_clique_connector,
    build_edge_connector,
    build_orientation_connector,
)


@dataclass
class FigureReport:
    """A rendered figure: the gadget, the connector, and the bound check."""

    name: str
    description: str
    base_nodes: int
    base_edges: int
    connector_nodes: int
    connector_edges: int
    base_max_degree: int
    connector_max_degree: int
    degree_bound: int

    @property
    def within_bound(self) -> bool:
        return self.connector_max_degree <= self.degree_bound

    def summary(self) -> str:
        status = "OK" if self.within_bound else "VIOLATED"
        return (
            f"{self.name}: base |V|={self.base_nodes} |E|={self.base_edges} "
            f"Delta={self.base_max_degree}; connector |V|={self.connector_nodes} "
            f"|E|={self.connector_edges} Delta={self.connector_max_degree} "
            f"(bound {self.degree_bound}, {status})"
        )


def figure1_clique_connector(t: int = 4, clique_size: int = 8) -> FigureReport:
    """Figure 1: two cliques Q, R sharing a vertex v; the connector with
    t = 4 keeps only within-group edges, so the shared vertex's degree drops
    to at most D * (t - 1) = 2 * (t - 1)."""
    graph = shared_vertex_cliques(clique_size=clique_size, num_cliques=2)
    cover = CliqueCover.from_maximal_cliques(graph)
    connector = build_clique_connector(graph, cover, t)
    diversity = cover.diversity()
    return FigureReport(
        name="figure-1-clique-connector",
        description=(
            f"Two cliques of size {clique_size} sharing one vertex, t={t}: "
            "each clique is split into groups of size t and only "
            "within-group edges survive (Lemma 2.1)."
        ),
        base_nodes=graph.number_of_nodes(),
        base_edges=graph.number_of_edges(),
        connector_nodes=connector.number_of_nodes(),
        connector_edges=connector.number_of_edges(),
        base_max_degree=max_degree(graph),
        connector_max_degree=max_degree(connector),
        degree_bound=diversity * (t - 1),
    )


def figure2_edge_connector(t: int = 3, star_size: int = 7) -> FigureReport:
    """Figure 2: the edge-connector with t = 3 on a star plus a path; every
    virtual vertex owns at most t edges, so the connector's maximum degree
    is exactly min(t, Delta)."""
    graph = nx.star_graph(star_size)
    path_nodes = list(range(star_size + 1, star_size + 5))
    nx.add_path(graph, [star_size] + path_nodes)
    connector = build_edge_connector(graph, t)
    return FigureReport(
        name="figure-2-edge-connector",
        description=(
            f"A star of size {star_size} with a pendant path, t={t}: the "
            "center splits into ceil(deg/t) virtual vertices each owning at "
            "most t edges (Section 4)."
        ),
        base_nodes=graph.number_of_nodes(),
        base_edges=graph.number_of_edges(),
        connector_nodes=connector.graph.number_of_nodes(),
        connector_edges=connector.graph.number_of_edges(),
        base_max_degree=max_degree(graph),
        connector_max_degree=max_degree(connector.graph),
        degree_bound=t,
    )


def figure3_orientation_connector(
    in_group: int = 3, out_group: int = 2
) -> FigureReport:
    """Figure 3: the orientation connector on a DAG-oriented gadget — one
    hub receiving many edges and emitting a few. In-groups bound the degree,
    out-groups bound the out-degree (hence the arboricity)."""
    graph = nx.Graph()
    hub = 0
    sources = list(range(1, 10))
    sinks = [10, 11, 12]
    for s in sources:
        graph.add_edge(s, hub)
    for k in sinks:
        graph.add_edge(hub, k)
    order = sources + [hub] + sinks
    orientation = orient_acyclic_by_order(graph, order)
    connector = build_orientation_connector(
        graph, orientation, in_group_size=in_group, out_group_size=out_group
    )
    bound = in_group + out_group
    return FigureReport(
        name="figure-3-orientation-connector",
        description=(
            f"A hub with {len(sources)} incoming and {len(sinks)} outgoing "
            f"edges, in-groups of {in_group}, out-groups of {out_group}: "
            "virtual vertices carry at most in_group + out_group edges and "
            "the inherited orientation stays acyclic (Section 5)."
        ),
        base_nodes=graph.number_of_nodes(),
        base_edges=graph.number_of_edges(),
        connector_nodes=connector.graph.number_of_nodes(),
        connector_edges=connector.graph.number_of_edges(),
        base_max_degree=max_degree(graph),
        connector_max_degree=max_degree(connector.graph),
        degree_bound=bound,
    )


def all_figures() -> List[FigureReport]:
    return [
        figure1_clique_connector(),
        figure2_edge_connector(),
        figure3_orientation_connector(),
    ]
