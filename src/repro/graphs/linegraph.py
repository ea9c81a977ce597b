"""Line graphs with the canonical clique identification (diversity 2).

Edge-coloring a graph is vertex-coloring its line graph. The line graph of
``G`` has one vertex per edge of ``G``; each vertex ``v`` of ``G`` identifies
a clique in ``L(G)``: the set of edges incident on ``v``. Every vertex of
``L(G)`` (an edge ``(u, v)`` of ``G``) belongs to exactly the two cliques of
``u`` and ``v``, so the diversity of the identification is 2, and the maximum
clique size equals ``max(Delta(G), 3)`` (triangles also form cliques of size
3 in the line graph, but the star identification already covers all line
graph adjacencies).

``L(G)`` is built once, as CSR arrays over ``G``'s CSR view
(:func:`line_view`): edge ids follow ``iter_edges`` order, and the row of
edge ``e = (a, b)``, ``a`` first in node order, is the star of ``a``
without ``e`` followed by the star of ``b`` without ``e`` — the node
order and rows an edge-by-edge networkx build produces, without building
it. :func:`line_graph_with_cover` derives the networkx graph and the star
cover from the same arrays.
"""

from __future__ import annotations

from typing import Any, Tuple

import networkx as nx
import numpy as np

from repro import obs
from repro.graphcore import CompactGraph, Interned
from repro.graphs.cliques import CliqueCover
from repro.types import EdgeColoring, VertexColoring, edge_key


def _line_arrays(graph: Any) -> Tuple[Interned, np.ndarray, np.ndarray]:
    """``L(G)`` as a view, plus the base CSR's ``indptr`` and the edge id
    of every base slot: base row ``v`` relabelled by edge ids is the star
    of ``v``, in ``graph.neighbors(v)`` order."""
    with obs.span("graphs.line_graph"):
        base = graph if isinstance(graph, (CompactGraph, Interned)) else Interned(graph)
        ids = list(base.nodes())
        n = len(ids)
        indptr = np.asarray(base.indptr, dtype=np.int64)
        dst = np.asarray(base.indices, dtype=np.int64)
        degree = np.diff(indptr)
        src = np.repeat(np.arange(n, dtype=np.int64), degree)
        # An edge is named by the first slot that lists it (a digraph may
        # list an edge twice, once per arc), so edge ids follow iter_edges.
        pair = np.minimum(src, dst) * n + np.maximum(src, dst)
        _, first, inverse = np.unique(pair, return_index=True, return_inverse=True)
        by_first = np.argsort(first)
        rank = np.empty_like(by_first)
        rank[by_first] = np.arange(by_first.size)
        edge_of_slot = rank[inverse]
        named = first[by_first]
        # edge_key refuses a self-loop at the first one in iter_edges order
        line_ids = [
            edge_key(ids[a], ids[b])
            for a, b in zip(src[named].tolist(), dst[named].tolist())
        ]
        # Slot k in row w hands its edge the star of w minus itself; slots
        # are in row order, so a stable sort by edge keeps the stars of an
        # edge's endpoints in node order and each star in row order.
        width = degree[src]
        total = int(width.sum())
        owner = np.repeat(np.arange(src.size, dtype=np.int64), width)
        slot = np.arange(total, dtype=np.int64) + np.repeat(
            indptr[src] - (np.cumsum(width) - width), width
        )
        keep = slot != owner
        heads = edge_of_slot[owner[keep]]
        tails = edge_of_slot[slot[keep]]
        rows = np.argsort(heads, kind="stable")
        line_indptr = np.zeros(len(line_ids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=len(line_ids)), out=line_indptr[1:])
        line = Interned.from_arrays(line_ids, line_indptr, tails[rows])
    return line, indptr, edge_of_slot


def line_view(graph: Any) -> Interned:
    """``L(G)`` as the CSR view the engines run over: node ``i`` is the
    canonical key of ``G``'s ``i``-th edge in ``iter_edges`` order."""
    return _line_arrays(graph)[0]


def line_graph_with_cover(graph: Any) -> Tuple[nx.Graph, CliqueCover]:
    """Build ``L(G)`` plus the star clique cover.

    Line-graph vertices are the canonical edge keys of ``G``. The returned
    cover has one clique per vertex of ``G`` with degree >= 1 (its incident
    edges), so ``cover.diversity() <= 2`` and
    ``cover.max_clique_size() == Delta(G)`` (for ``Delta >= 1``).
    """
    line, indptr, edge_of_slot = _line_arrays(graph)
    ids, bounds, stars = line.ids, indptr.tolist(), edge_of_slot.tolist()
    cliques = [
        [ids[e] for e in stars[bounds[v] : bounds[v + 1]]]
        for v in range(len(bounds) - 1)
        if bounds[v + 1] > bounds[v]
    ]
    return line.to_networkx(), CliqueCover.from_cliques(cliques)


def edge_coloring_from_vertex_coloring(coloring: VertexColoring) -> EdgeColoring:
    """Project a vertex coloring of ``L(G)`` back to an edge coloring of ``G``.

    Line-graph vertices *are* canonical edge keys, so this is a re-typing.
    """
    return {edge: color for edge, color in coloring.items()}


def vertex_coloring_from_edge_coloring(coloring: EdgeColoring) -> VertexColoring:
    """Lift an edge coloring of ``G`` to a vertex coloring of ``L(G)``."""
    return dict(coloring)
