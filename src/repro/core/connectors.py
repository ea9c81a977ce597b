"""The paper's connector constructions (Section 2, 4, 5; Figures 1-3).

A *connector* re-wires a graph so that the structure that makes coloring hard
(large cliques, large stars, high degree) is broken into bounded-size pieces:

* **Clique connector** (Section 2, Figure 1): every identified maximal clique
  partitions its vertices into groups of size ``t``; only within-group edges
  are kept. Maximum degree drops to ``D * (t - 1)`` (Lemma 2.1).
* **Edge-connector** (Section 4, Figure 2): every vertex splits into
  ``ceil(deg / t)`` virtual vertices, each owning at most ``t`` incident
  edges. The connector's maximum degree is ``t``; a proper edge coloring of
  the connector partitions the original edges into classes whose stars have
  size at most ``ceil(Delta / t)``.
* **Orientation connector** (Section 5, Figure 3): given an acyclic
  orientation, incoming and outgoing edges are grouped separately, so the
  connector simultaneously bounds degree (by the in-group size) and
  arboricity (by the out-group size, which caps the out-degree of the
  inherited — still acyclic — orientation). The **bipartite** variant
  (Theorem 5.4) puts in-virtuals and out-virtuals on separate sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.errors import InvalidParameterError
from repro.graphs.cliques import CliqueCover
from repro.graphs.orientation import Orientation
from repro.graphs.properties import iter_edges
from repro.types import Edge, EdgeColoring, NodeId, color_classes, edge_key


# --------------------------------------------------------------------------
# Clique connector (Section 2)
# --------------------------------------------------------------------------


def build_clique_connector(graph: nx.Graph, cover: CliqueCover, t: int) -> nx.Graph:
    """The connector G' = (V, E') keeping only edges internal to one group of
    one identified clique (each clique split into groups of size <= t).

    Lemma 2.1: ``Delta(G') <= D * (t - 1)``.
    """
    if t < 2:
        raise InvalidParameterError("connector group size t must be >= 2")
    connector = nx.Graph()
    connector.add_nodes_from(graph.nodes())
    for idx in range(len(cover.cliques)):
        for group in cover.partition_clique(idx, t):
            for i, u in enumerate(group):
                for v in group[i + 1 :]:
                    connector.add_edge(u, v)
    return connector


@dataclass
class _EdgeMappedConnector:
    """A connector graph whose edges stand one-for-one for the base edges:
    ``edge_map`` sends each base (canonical) edge to its connector
    (canonical) edge."""

    base: nx.Graph
    graph: nx.Graph
    edge_map: Dict[Edge, Edge]

    def project_edge_coloring(self, connector_coloring: EdgeColoring) -> EdgeColoring:
        """Pull an edge coloring of the connector back to the base graph."""
        return {e: connector_coloring[ce] for e, ce in self.edge_map.items()}

    def classes(self, connector_coloring: EdgeColoring) -> Dict[int, List[Edge]]:
        """Group base edges by the connector color of their image."""
        return color_classes(self.project_edge_coloring(connector_coloring))


# --------------------------------------------------------------------------
# Edge-connector (Section 4)
# --------------------------------------------------------------------------


@dataclass
class EdgeConnector(_EdgeMappedConnector):
    """The virtual graph of Section 4 plus the edge correspondence.

    ``graph`` has virtual vertices ``(v, i)`` (the i-th edge-group of original
    vertex ``v``, 1-based) and one edge per original edge.
    """

    t: int


def build_edge_connector(graph: nx.Graph, t: int) -> EdgeConnector:
    """Section 4's edge-connector: each vertex enumerates its incident edges
    ``1..deg`` and groups them into chunks of ``t``; the edge ``(u, v)`` with
    in-vertex labels ``l(u), l(v)`` becomes ``((u, ceil(l(u)/t)),
    (v, ceil(l(v)/t)))``. The connector's maximum degree is at most ``t``."""
    if t < 1:
        raise InvalidParameterError("edge-connector group size t must be >= 1")
    # Deterministic local enumeration: sort incident edges by neighbor repr.
    group_of: Dict[Tuple[NodeId, NodeId], int] = {}
    for v in graph.nodes():
        for label, u in enumerate(sorted(graph.neighbors(v), key=repr), start=1):
            group_of[(v, u)] = math.ceil(label / t)
    connector = nx.Graph()
    edge_map: Dict[Edge, Edge] = {}
    for u, v in iter_edges(graph):
        cu = (u, group_of[(u, v)])
        cv = (v, group_of[(v, u)])
        connector.add_edge(cu, cv)
        edge_map[edge_key(u, v)] = edge_key(cu, cv)
    # Virtual vertices with no edges are irrelevant; original isolated
    # vertices do not appear — edge coloring does not involve them.
    return EdgeConnector(base=graph, graph=connector, edge_map=edge_map, t=t)


# --------------------------------------------------------------------------
# Orientation connectors (Section 5)
# --------------------------------------------------------------------------


@dataclass
class OrientationConnector(_EdgeMappedConnector):
    """A connector built from an acyclically oriented graph.

    ``graph`` contains virtual vertices; ``orientation`` orients its edges
    consistently with the base orientation (hence acyclically). For the
    bipartite variant, ``side`` maps every virtual vertex to ``"in"`` or
    ``"out"``.
    """

    orientation: Orientation
    side: Optional[Dict[NodeId, str]] = None


def _grouped(edges: List[Edge], group_size: int) -> Dict[Edge, int]:
    """Assign each edge its 1-based group index under a fixed chunking."""
    assignment = {}
    ordered = sorted(edges, key=repr)
    for pos, e in enumerate(ordered):
        assignment[e] = pos // group_size + 1
    return assignment


def build_orientation_connector(
    graph: nx.Graph,
    orientation: Orientation,
    in_group_size: int,
    out_group_size: int,
    bipartite: bool = False,
) -> OrientationConnector:
    """Figure 3's connector (Theorem 5.3) or its bipartite variant (5.4).

    Every vertex ``v`` groups its incoming edges into chunks of
    ``in_group_size`` and its outgoing edges into chunks of
    ``out_group_size``. In the shared variant both chunkings attach to the
    same virtual pool ``(v, i)``; in the bipartite variant incoming chunks
    attach to ``("in", v, i)`` and outgoing to ``("out", v, i)``, making the
    connector bipartite with side degrees ``in_group_size`` /
    ``out_group_size``.

    The connector inherits the (acyclic) orientation: a directed base edge
    ``u -> w`` becomes a directed connector edge from u's out-virtual to w's
    in-virtual.
    """
    if in_group_size < 1 or out_group_size < 1:
        raise InvalidParameterError("group sizes must be >= 1")

    in_assignment: Dict[Edge, Dict[NodeId, int]] = {}
    out_assignment: Dict[Edge, Dict[NodeId, int]] = {}
    for v in graph.nodes():
        for e, grp in _grouped(orientation.in_edges(v), in_group_size).items():
            in_assignment.setdefault(e, {})[v] = grp
        for e, grp in _grouped(orientation.out_edges(v), out_group_size).items():
            out_assignment.setdefault(e, {})[v] = grp

    connector = nx.Graph()
    edge_map: Dict[Edge, Edge] = {}
    head_map: Dict[Edge, NodeId] = {}
    side: Dict[NodeId, str] = {}
    for u, w in iter_edges(graph):
        e = edge_key(u, w)
        head = orientation.head[e]
        tail = u if head == w else w
        out_grp = out_assignment[e][tail]
        in_grp = in_assignment[e][head]
        if bipartite:
            c_tail: NodeId = ("out", tail, out_grp)
            c_head: NodeId = ("in", head, in_grp)
            side[c_tail] = "out"
            side[c_head] = "in"
        else:
            c_tail = (tail, out_grp)
            c_head = (head, in_grp)
        connector.add_edge(c_tail, c_head)
        ce = edge_key(c_tail, c_head)
        edge_map[e] = ce
        head_map[ce] = c_head
    connector_orientation = Orientation(graph=connector, head=head_map)
    return OrientationConnector(
        base=graph,
        graph=connector,
        orientation=connector_orientation,
        edge_map=edge_map,
        side=side if bipartite else None,
    )
