"""Structural graph parameters the paper's bounds are stated in.

Exact arboricity is a matroid-union computation; for the sizes this library
targets we provide the standard sandwich
``max_H ceil(m_H / (n_H - 1)) <= a(G) <= degeneracy(G)`` (the upper bound
because a k-degenerate graph decomposes into k forests via the elimination
order, and degeneracy <= 2a - 1 always), with the Nash-Williams density
evaluated on the whole graph and on every k-core.

Both sides come from one CSR view and one core peel
(:func:`~repro.kernels.cores.core_numbers_csr`, Batagelj & Zaversnik):
the degeneracy is the maximum core number (Matula & Beck), and every
k-core's node and edge counts are reverse cumulative sums over the core
numbers. A :class:`~repro.graphcore.CompactGraph` is read as it is; a
networkx graph is interned once by :class:`~repro.graphcore.Interned`.

:func:`max_degree`, :func:`number_of_edges` and :func:`iter_edges` read a
networkx graph's adjacency dicts only. ``graph.degree()`` and
``graph.edges()`` (and ``number_of_edges()``, which sums the degree view)
cache a view that points back at the graph, so a transient subgraph or
line graph read that way outlives its last reference until the cyclic
collector runs; read through these helpers it is freed by refcount.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

import networkx as nx
import numpy as np

from repro.errors import InvalidParameterError
from repro.types import NodeId

#: ``nx.core_number``'s refusal, raised verbatim for the same inputs.
_SELF_LOOPS = (
    "Input graph has self loops which is not permitted; "
    "Consider using G.remove_edges_from(nx.selfloop_edges(G))."
)


def max_degree(graph: Any) -> int:
    """Delta(G); 0 for the empty graph. A digraph's degree is in + out."""
    if not isinstance(graph, nx.Graph):
        return graph.max_degree
    # ``_adj``/``_succ``/``_pred`` are the dicts (or filtered views) the
    # nx views themselves read; ``graph.adj`` would wrap every row in an
    # AtlasView, several times slower than the DegreeView it replaces
    if graph.is_directed():
        pred = graph._pred
        return max((len(row) + len(pred[v]) for v, row in graph._succ.items()), default=0)
    # a self-loop counts twice, as in ``graph.degree()``
    return max((len(row) + (v in row) for v, row in graph._adj.items()), default=0)


def number_of_edges(graph: Any) -> int:
    """``graph.number_of_edges()`` without caching a degree view."""
    if not isinstance(graph, nx.Graph):
        return graph.number_of_edges()
    if graph.is_directed():
        return sum(map(len, graph._succ.values()))
    return sum(len(row) + (v in row) for v, row in graph._adj.items()) // 2


def iter_edges(graph: Any) -> Iterator[Tuple[NodeId, NodeId]]:
    """``graph.edges()`` in its exact order, without caching an edge view."""
    if not isinstance(graph, nx.Graph):
        yield from graph.edges()
        return
    if graph.is_directed():
        for u, row in graph._succ.items():
            for v in row:
                yield u, v
        return
    seen = set()
    for u, row in graph._adj.items():
        for v in row:
            if v not in seen:
                yield u, v
        seen.add(u)


def degeneracy_ordering(graph: nx.Graph) -> Tuple[List[NodeId], int]:
    """Smallest-last vertex ordering and the graph's degeneracy.

    Returns ``(order, k)`` where each vertex has at most ``k`` neighbors
    later in ``order``. Each step removes the vertex of smallest current
    degree, ties broken by smallest ``repr``. Vertices are ranked by
    ``repr`` once and the heap gets ``degree * n + rank`` at every degree
    change; a vertex's newest entry is its smallest, so it pops first and
    the older ones pop after the vertex is removed.
    """
    ranked = sorted(graph.nodes(), key=repr)
    n = len(ranked)
    rank = {v: r for r, v in enumerate(ranked)}
    remaining = [{rank[u] for u in graph.neighbors(v)} for v in ranked]
    degree_of = [len(nbrs) for nbrs in remaining]
    heap = [d * n + r for r, d in enumerate(degree_of)]
    heapq.heapify(heap)
    removed = [False] * n
    order: List[NodeId] = []
    degeneracy = 0
    while heap:
        d, r = divmod(heapq.heappop(heap), n)
        if removed[r]:
            continue
        degeneracy = max(degeneracy, d)
        order.append(ranked[r])
        removed[r] = True
        for u in remaining[r]:
            if not removed[u]:
                degree_of[u] -= 1
                heapq.heappush(heap, degree_of[u] * n + u)
    return order, degeneracy


def _require_undirected(graph: Any) -> None:
    if isinstance(graph, nx.Graph) and graph.is_directed():
        raise InvalidParameterError(
            "degeneracy and arboricity bounds need an undirected graph"
        )


def _peel(graph: Any) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, core numbers)`` of an undirected simple graph:
    a ``CompactGraph``'s own arrays, or a networkx graph interned. Inputs
    ``nx.core_number`` refuses are refused with its own error."""
    from repro.graphcore import CompactGraph, Interned
    from repro.kernels.cores import core_numbers_csr

    if not isinstance(graph, CompactGraph):
        _require_undirected(graph)
        if graph.is_multigraph():
            raise nx.NetworkXNotImplemented("not implemented for multigraph type")
        if nx.number_of_selfloops(graph):
            raise nx.NetworkXNotImplemented(_SELF_LOOPS)
        graph = Interned(graph)
    indptr, indices = graph.indptr, graph.indices
    return indptr, indices, core_numbers_csr(indptr, indices)


def degeneracy(graph: Any) -> int:
    """The maximum core number; 0 for the empty graph."""
    core = _peel(graph)[2]
    return int(core.max()) if core.size else 0


@dataclass(frozen=True)
class ArboricityBounds:
    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise InvalidParameterError(
                f"arboricity bounds crossed: {self.lower} > {self.upper}"
            )


def arboricity_bounds(graph: Any) -> ArboricityBounds:
    """The Nash-Williams density lower bound and the degeneracy upper bound.

    ``a(G) = max_H ceil(m_H / (n_H - 1))``; evaluating the density on the
    whole graph and on every k-core (k from 2 up to the degeneracy) gives
    a practical lower bound, while the degeneracy elimination order
    decomposes the edges into ``degeneracy`` forests, an upper bound.
    One core peel yields all of it: ``n_k`` counts the nodes with core
    number ``>= k`` and ``m_k`` the edges whose endpoints both have it.
    """
    _require_undirected(graph)
    n = graph.number_of_nodes()
    if n <= 1:
        # one node carries no edge but a self-loop
        m = min(number_of_edges(graph), 1)
        return ArboricityBounds(lower=m, upper=m)
    indptr, indices, core = _peel(graph)
    m = indices.size // 2
    if m == 0:
        return ArboricityBounds(lower=0, upper=0)
    upper = max(1, int(core.max()))
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    once = src < indices
    edge_core = np.minimum(core[src[once]], core[indices[once]])
    n_k = np.bincount(core, minlength=upper + 1)[::-1].cumsum()[::-1]
    m_k = np.bincount(edge_core, minlength=upper + 1)[::-1].cumsum()[::-1]
    n_k, m_k = n_k[2 : upper + 1], m_k[2 : upper + 1]
    dense = (n_k > 1) & (m_k > 0)
    lower = -(-m // (n - 1))
    if dense.any():
        lower = max(lower, int((-(-m_k[dense] // (n_k[dense] - 1))).max()))
    return ArboricityBounds(lower=min(lower, upper), upper=upper)


def forest_decomposition(graph: nx.Graph) -> List[nx.Graph]:
    """Decompose the edges into at most ``degeneracy(G)`` forests.

    Each vertex has at most k = degeneracy neighbors *later* in the
    smallest-last order; assigning each such edge a distinct index in
    ``0..k-1`` at its earlier endpoint yields k forests (every vertex has at
    most one parent per index, and parents are always later in the order, so
    each index class is a functional forest).
    """
    order, k = degeneracy_ordering(graph)
    position = {v: i for i, v in enumerate(order)}
    forests = [nx.Graph() for _ in range(max(k, 1))]
    for f in forests:
        f.add_nodes_from(graph.nodes())
    counter: Dict[NodeId, int] = {v: 0 for v in graph.nodes()}
    for v in order:
        for u in graph.neighbors(v):
            if position[u] > position[v]:
                forests[counter[v]].add_edge(v, u)
                counter[v] += 1
    for f in forests:
        if not nx.is_forest(f):
            raise AssertionError("forest decomposition produced a cycle")
    return forests
