"""Hypergraphs and their line graphs (bounded-diversity instances).

The paper's flagship family of bounded-diversity graphs beyond line graphs
is the line graph of a c-uniform hypergraph: vertices are hyperedges, two
hyperedges are adjacent when they intersect, and each original vertex
identifies the clique of hyperedges containing it — so the diversity is at
most ``c`` and the maximum identified clique size is the maximum vertex
degree of the hypergraph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

import networkx as nx

from repro.errors import InvalidParameterError
from repro.graphs.cliques import CliqueCover
from repro.types import NodeId


@dataclass(frozen=True)
class Hypergraph:
    """An undirected hypergraph with hashable vertices.

    ``edges`` are frozensets of vertices; duplicate hyperedges are not
    allowed (they would be twin vertices in the line graph and are never
    produced by our generators).
    """

    vertices: Tuple[NodeId, ...]
    edges: Tuple[FrozenSet[NodeId], ...]

    @staticmethod
    def from_edges(edges: Iterable[Iterable[NodeId]]) -> "Hypergraph":
        edge_sets: List[FrozenSet[NodeId]] = []
        seen = set()
        vertices = set()
        for e in edges:
            fe = frozenset(e)
            if not fe:
                raise InvalidParameterError("empty hyperedge")
            if fe in seen:
                raise InvalidParameterError(f"duplicate hyperedge {sorted(fe, key=repr)!r}")
            seen.add(fe)
            edge_sets.append(fe)
            vertices |= fe
        return Hypergraph(
            vertices=tuple(sorted(vertices, key=repr)), edges=tuple(edge_sets)
        )

    @property
    def uniformity(self) -> int:
        """Rank if uniform, else the maximum hyperedge size."""
        return max((len(e) for e in self.edges), default=0)

    def is_uniform(self) -> bool:
        sizes = {len(e) for e in self.edges}
        return len(sizes) <= 1

    def vertex_degree(self, v: NodeId) -> int:
        return sum(1 for e in self.edges if v in e)

    def max_vertex_degree(self) -> int:
        degree: Dict[NodeId, int] = {}
        for e in self.edges:
            for v in e:
                degree[v] = degree.get(v, 0) + 1
        return max(degree.values(), default=0)

    def line_graph_with_cover(self) -> Tuple[nx.Graph, CliqueCover]:
        """The line graph over hyperedge indices plus the per-vertex cover.

        Returns a graph whose nodes are ``0..len(edges)-1`` and a cover with
        one clique per hypergraph vertex (the indices of hyperedges that
        contain it); the cover's diversity is at most the uniformity and the
        clique size is the maximum vertex degree.
        """
        line = nx.Graph()
        line.add_nodes_from(range(len(self.edges)))
        incidence: Dict[NodeId, List[int]] = {}
        for idx, e in enumerate(self.edges):
            for v in e:
                incidence.setdefault(v, []).append(idx)
        cliques = []
        for v, idxs in sorted(incidence.items(), key=lambda kv: repr(kv[0])):
            cliques.append(idxs)
            for i, a in enumerate(idxs):
                for b in idxs[i + 1 :]:
                    line.add_edge(a, b)
        return line, CliqueCover.from_cliques(cliques)


def random_uniform_hypergraph(
    n: int, num_edges: int, c: int, seed: int = 0
) -> Hypergraph:
    """A random c-uniform hypergraph on ``n`` vertices with ``num_edges``
    distinct hyperedges, drawn without replacement (deterministic per seed).
    """
    if c < 2:
        raise InvalidParameterError("uniformity c must be >= 2")
    if n < c:
        raise InvalidParameterError("need at least c vertices")
    rng = random.Random(seed)
    edges = set()
    attempts = 0
    limit = 50 * max(num_edges, 1) + 100
    while len(edges) < num_edges:
        attempts += 1
        if attempts > limit:
            raise InvalidParameterError(
                f"could not draw {num_edges} distinct {c}-uniform edges on {n} vertices"
            )
        edges.add(frozenset(rng.sample(range(n), c)))
    return Hypergraph.from_edges(sorted(edges, key=lambda e: sorted(e)))


def regular_partite_hypergraph(groups: int, group_size: int, c: int) -> Hypergraph:
    """A structured c-uniform hypergraph: vertices arranged in ``groups``
    columns of ``group_size`` rows; each hyperedge picks one vertex from each
    of ``c`` consecutive columns in the same row pattern. Produces line graphs
    with predictable clique sizes, useful in tests."""
    if c < 2 or groups < c:
        raise InvalidParameterError("need groups >= c >= 2")
    edges = []
    for start in range(groups - c + 1):
        for row in range(group_size):
            edges.append(
                frozenset((col, (row + col) % group_size) for col in range(start, start + c))
            )
    return Hypergraph.from_edges(edges)
