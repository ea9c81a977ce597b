"""Acyclic edge orientations with bounded out-degree.

Section 5 of the paper manipulates graphs *together with* an acyclic
orientation whose out-degree is O(arboricity) (obtained from an H-partition,
reference [4]). An :class:`Orientation` stores the direction of every edge
and supports the queries the connectors need: out-degree, in-degree,
restriction to subgraphs, and acyclicity checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

import networkx as nx

from repro.errors import InvalidParameterError
from repro.graphs.properties import iter_edges
from repro.types import Edge, NodeId, edge_key


@dataclass
class Orientation:
    """A direction assignment ``edge -> head`` for every edge of a graph."""

    graph: nx.Graph
    head: Dict[Edge, NodeId] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for (u, v), h in self.head.items():
            if h not in (u, v):
                raise InvalidParameterError(f"head {h!r} not an endpoint of ({u!r},{v!r})")

    @staticmethod
    def orient_by(graph: nx.Graph, chooser) -> "Orientation":
        """Orient every edge toward ``chooser(u, v)``."""
        head = {}
        for u, v in iter_edges(graph):
            e = edge_key(u, v)
            head[e] = chooser(*e)
        return Orientation(graph=graph, head=head)

    def head_of(self, u: NodeId, v: NodeId) -> NodeId:
        return self.head[edge_key(u, v)]

    def tail_of(self, u: NodeId, v: NodeId) -> NodeId:
        e = edge_key(u, v)
        h = self.head[e]
        return e[0] if h == e[1] else e[1]

    def out_edges(self, v: NodeId) -> List[Edge]:
        """Edges oriented away from ``v``."""
        return [
            edge_key(v, u)
            for u in self.graph.neighbors(v)
            if self.head[edge_key(v, u)] == u
        ]

    def in_edges(self, v: NodeId) -> List[Edge]:
        return [
            edge_key(v, u)
            for u in self.graph.neighbors(v)
            if self.head[edge_key(v, u)] == v
        ]

    def out_degree(self, v: NodeId) -> int:
        return len(self.out_edges(v))

    def max_out_degree(self) -> int:
        return max((self.out_degree(v) for v in self.graph.nodes()), default=0)

    def as_digraph(self) -> nx.DiGraph:
        digraph = nx.DiGraph()
        digraph.add_nodes_from(self.graph.nodes())
        for (u, v), h in self.head.items():
            t = u if h == v else v
            digraph.add_edge(t, h)
        return digraph

    def is_acyclic(self) -> bool:
        return nx.is_directed_acyclic_graph(self.as_digraph())

    def restrict(self, subgraph: nx.Graph) -> "Orientation":
        """The induced orientation on a subgraph of the same vertex set."""
        head = {}
        for u, v in iter_edges(subgraph):
            e = edge_key(u, v)
            if e not in self.head:
                raise InvalidParameterError(f"edge {e!r} not oriented in parent")
            head[e] = self.head[e]
        return Orientation(graph=subgraph, head=head)


def orient_acyclic_by_order(graph: nx.Graph, order: Iterable[NodeId]) -> Orientation:
    """Orient every edge from the earlier to the later vertex of ``order``
    (heads are later vertices) — always acyclic, with out-degree equal to the
    forward-degree of the order."""
    position = {v: i for i, v in enumerate(order)}
    missing = set(graph.nodes()) - set(position)
    if missing:
        raise InvalidParameterError(f"order does not cover vertices {missing!r}")
    return Orientation.orient_by(
        graph, lambda u, v: v if position[v] > position[u] else u
    )
