"""Shared type aliases and small helpers used across the library.

The library follows networkx conventions: vertices are hashable objects
(plain ``int`` for input graphs, tuples for virtual vertices of connectors),
and an undirected edge is represented by a normalized 2-tuple so that the
same edge always hashes identically regardless of traversal direction.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Tuple

NodeId = Hashable
Color = int
Edge = Tuple[NodeId, NodeId]
VertexColoring = Dict[NodeId, Color]
EdgeColoring = Dict[Edge, Color]


def edge_key(u: NodeId, v: NodeId) -> Edge:
    """Return the canonical (order-independent) representation of edge (u, v).

    Vertices inside a single graph are homogeneous (all ints, or all tuples of
    the same shape), so ``<`` is used directly; heterogeneous fallback orders
    by ``repr`` so that connector graphs mixing id shapes still normalize
    deterministically.
    """
    if u == v:
        raise ValueError(f"self-loop ({u!r}, {v!r}) is not a valid edge")
    try:
        return (u, v) if u < v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) < repr(v) else (v, u)


def normalize_edge_coloring(coloring: Dict[Any, Color]) -> EdgeColoring:
    """Re-key an edge coloring by canonical edge keys."""
    return {edge_key(u, v): c for (u, v), c in coloring.items()}


def num_colors(coloring: Dict[Any, Color]) -> int:
    """Number of distinct colors used by a coloring (0 for empty)."""
    return len(set(coloring.values())) if coloring else 0


def color_classes(coloring: Mapping[Any, Any]) -> Dict[Any, List[Any]]:
    """Group a coloring's keys by color; each class keeps the coloring's
    insertion order."""
    classes: Dict[Any, List[Any]] = {}
    for key, value in coloring.items():
        classes.setdefault(value, []).append(key)
    return classes


def dense_colors(product: Mapping[Any, Tuple[Any, ...]]) -> Dict[Any, Color]:
    """Number the distinct product colors ``0..k-1`` in ``sorted`` order —
    the flattening of a hierarchical color ``<phi_1, ..., phi_x, psi>``."""
    index = {tup: i for i, tup in enumerate(sorted(set(product.values())))}
    return {key: index[tup] for key, tup in product.items()}
