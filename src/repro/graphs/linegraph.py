"""Line graphs with the canonical clique identification (diversity 2).

Edge-coloring a graph is vertex-coloring its line graph. The line graph of
``G`` has one vertex per edge of ``G``; each vertex ``v`` of ``G`` identifies
a clique in ``L(G)``: the set of edges incident on ``v``. Every vertex of
``L(G)`` (an edge ``(u, v)`` of ``G``) belongs to exactly the two cliques of
``u`` and ``v``, so the diversity of the identification is 2, and the maximum
clique size equals ``max(Delta(G), 3)`` (triangles also form cliques of size
3 in the line graph, but the star identification already covers all line
graph adjacencies).
"""

from __future__ import annotations

from typing import Dict, Tuple

import networkx as nx

from repro.graphs.cliques import CliqueCover
from repro.graphs.properties import iter_edges
from repro.types import Edge, EdgeColoring, VertexColoring, edge_key


def line_graph_with_cover(graph: nx.Graph) -> Tuple[nx.Graph, CliqueCover]:
    """Build ``L(G)`` plus the star clique cover.

    Line-graph vertices are the canonical edge keys of ``G``. The returned
    cover has one clique per vertex of ``G`` with degree >= 1 (its incident
    edges), so ``cover.diversity() <= 2`` and
    ``cover.max_clique_size() == Delta(G)`` (for ``Delta >= 1``).
    """
    line = nx.Graph()
    line.add_nodes_from(edge_key(u, v) for u, v in iter_edges(graph))
    cliques = []
    for v in graph.nodes():
        incident = [edge_key(v, u) for u in graph.neighbors(v)]
        if not incident:
            continue
        cliques.append(incident)
        for i, e in enumerate(incident):
            for f in incident[i + 1 :]:
                line.add_edge(e, f)
    return line, CliqueCover.from_cliques(cliques)


def edge_coloring_from_vertex_coloring(coloring: VertexColoring) -> EdgeColoring:
    """Project a vertex coloring of ``L(G)`` back to an edge coloring of ``G``.

    Line-graph vertices *are* canonical edge keys, so this is a re-typing.
    """
    return {edge: color for edge, color in coloring.items()}


def vertex_coloring_from_edge_coloring(coloring: EdgeColoring) -> VertexColoring:
    """Lift an edge coloring of ``G`` to a vertex coloring of ``L(G)``."""
    return dict(coloring)
