"""Invariant checkers — every correctness claim the paper states, checkable.

All checkers raise :class:`~repro.errors.ColoringError` (and return True
otherwise) so that campaigns, tests, benchmarks, and examples never accept
an improper coloring silently. Partial colorings, ``None``-valued
assignments, and assignments for vertices/edges the graph does not contain
are all *explicit* violations: a checker that silently ignored them would
certify colorings no LOCAL algorithm actually produced.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional

import networkx as nx

from repro.errors import ColoringError
from repro.graphs.cliques import CliqueCover
from repro.types import Edge, EdgeColoring, NodeId, VertexColoring, edge_key


def _check_assignment_values(coloring: Dict, what: str) -> None:
    """``None`` is never a color: a ``None``-valued entry is a vertex or
    edge the algorithm touched but failed to decide, and must fail loudly
    instead of counting as a (vacuously distinct) color."""
    unassigned = [k for k, c in coloring.items() if c is None]
    if unassigned:
        raise ColoringError(
            f"{len(unassigned)} {what} carry a None assignment: "
            f"{sorted(unassigned, key=repr)[:5]!r}"
        )


def verify_vertex_coloring(
    graph: nx.Graph,
    coloring: VertexColoring,
    palette: Optional[int] = None,
) -> bool:
    """Check that ``coloring`` covers every vertex (isolated vertices
    included), assigns no vertex outside the graph, is proper, and (if
    given) fits in ``palette`` colors. The empty graph is only valid with
    the empty coloring."""
    missing = set(graph.nodes()) - set(coloring)
    if missing:
        raise ColoringError(
            f"{len(missing)} vertices uncolored: {sorted(missing, key=repr)[:5]!r}"
        )
    spurious = set(coloring) - set(graph.nodes())
    if spurious:
        raise ColoringError(
            f"{len(spurious)} colored vertices are not in the graph: "
            f"{sorted(spurious, key=repr)[:5]!r}"
        )
    _check_assignment_values(coloring, "vertices")
    for u, v in graph.edges():
        if coloring[u] == coloring[v]:
            raise ColoringError(f"monochromatic edge ({u!r},{v!r}) color {coloring[u]}")
    if palette is not None:
        used = len(set(coloring.values()))
        if used > palette:
            raise ColoringError(f"{used} colors used, palette allows {palette}")
    return True


def verify_edge_coloring(
    graph: nx.Graph,
    coloring: EdgeColoring,
    palette: Optional[int] = None,
) -> bool:
    """Check that ``coloring`` covers every edge under its canonical key,
    contains no edge the graph lacks, that no two edges sharing an endpoint
    share a color, and (if given) the palette bound. Graphs of isolated
    vertices have no edges, so only the empty coloring passes on them."""
    expected = {edge_key(u, v) for u, v in graph.edges()}
    spurious = set(coloring) - expected
    # A reversed key is a canonicalization bug in the producer —
    # name it before it masquerades as one missing + one spurious edge.
    flipped = [
        e
        for e in spurious
        if isinstance(e, tuple) and len(e) == 2 and tuple(reversed(e)) in expected
    ]
    if flipped:
        raise ColoringError(
            f"{len(flipped)} edges keyed non-canonically (reversed): "
            f"{sorted(flipped, key=repr)[:5]!r}"
        )
    missing = expected - set(coloring)
    if missing:
        raise ColoringError(
            f"{len(missing)} edges uncolored: {sorted(missing, key=repr)[:5]!r}"
        )
    if spurious:
        raise ColoringError(
            f"{len(spurious)} colored edges are not in the graph: "
            f"{sorted(spurious, key=repr)[:5]!r}"
        )
    _check_assignment_values(coloring, "edges")
    for v in graph.nodes():
        seen: Dict[int, Edge] = {}
        for u in graph.neighbors(v):
            e = edge_key(u, v)
            c = coloring[e]
            if c in seen:
                raise ColoringError(
                    f"edges {seen[c]!r} and {e!r} share color {c} at {v!r}"
                )
            seen[c] = e
    if palette is not None:
        used = len(set(coloring.values())) if coloring else 0
        if used > palette:
            raise ColoringError(f"{used} colors used, palette allows {palette}")
    return True


def max_star_size(graph: nx.Graph, edges: Iterable[Edge]) -> int:
    """The largest number of the given edges sharing one endpoint — the
    star bound of a (p, q)-star-partition class (Section 4)."""
    count: Dict[NodeId, int] = {}
    for u, v in edges:
        count[u] = count.get(u, 0) + 1
        count[v] = count.get(v, 0) + 1
    return max(count.values(), default=0)


def verify_star_partition(
    graph: nx.Graph, classes: Dict[int, List[Edge]], q: int
) -> bool:
    """Check a (p, q)-star-partition: the classes partition E(G) and every
    class has star size at most q."""
    # multisets, so an edge listed twice fails; node ids need not compare
    all_edges = Counter(e for edges in classes.values() for e in edges)
    expected = Counter({edge_key(u, v): 1 for u, v in graph.edges()})
    if all_edges != expected:
        raise ColoringError("classes do not partition the edge set")
    for c, edges in classes.items():
        size = max_star_size(graph, edges)
        if size > q:
            raise ColoringError(f"class {c} has star size {size} > {q}")
    return True


def verify_clique_decomposition(
    graph: nx.Graph,
    cover: CliqueCover,
    classes: Dict[int, List[NodeId]],
    max_clique: int,
) -> bool:
    """Check a (p, q)-clique-decomposition (Section 2): the classes partition
    V(G), and within each class every identified clique's restriction has at
    most ``max_clique`` vertices."""
    all_vertices = [v for members in classes.values() for v in members]
    if sorted(all_vertices, key=repr) != sorted(graph.nodes(), key=repr):
        raise ColoringError("classes do not partition the vertex set")
    for c, members in classes.items():
        mset = set(members)
        for clique in cover.cliques:
            inside = len(clique & mset)
            if inside > max_clique:
                raise ColoringError(
                    f"class {c} keeps {inside} > {max_clique} vertices of a clique"
                )
    return True


def verify_defective_coloring(
    graph: nx.Graph,
    coloring: VertexColoring,
    defect: int,
    palette: Optional[int] = None,
) -> bool:
    """Check a ``defect``-defective coloring ([27] and the [6, 7] machinery):
    total assignment, every vertex has at most ``defect`` same-colored
    neighbors, and (if given) the palette bound."""
    missing = set(graph.nodes()) - set(coloring)
    if missing:
        raise ColoringError(
            f"{len(missing)} vertices uncolored: {sorted(missing, key=repr)[:5]!r}"
        )
    spurious = set(coloring) - set(graph.nodes())
    if spurious:
        raise ColoringError(
            f"{len(spurious)} colored vertices are not in the graph: "
            f"{sorted(spurious, key=repr)[:5]!r}"
        )
    _check_assignment_values(coloring, "vertices")
    for v in graph.nodes():
        same = sum(1 for u in graph.neighbors(v) if coloring[u] == coloring[v])
        if same > defect:
            raise ColoringError(
                f"vertex {v!r} has defect {same} > {defect} in color {coloring[v]}"
            )
    if palette is not None:
        used = len(set(coloring.values())) if coloring else 0
        if used > palette:
            raise ColoringError(f"{used} colors used, palette allows {palette}")
    return True


def verify_h_partition(
    graph: nx.Graph,
    index: Dict[NodeId, int],
    threshold: int,
) -> bool:
    """Check the H-partition / acyclic-orientation invariant of [4]: the
    index is a total assignment and every ``v in H_i`` has at most
    ``threshold`` neighbors in ``H_i ∪ ... ∪ H_l`` — equivalently, the
    induced orientation (toward higher index) has out-degree at most
    ``threshold``, the arboricity-bound certificate of Section 5."""
    missing = set(graph.nodes()) - set(index)
    if missing:
        raise ColoringError(
            f"{len(missing)} vertices missing an H-index: "
            f"{sorted(missing, key=repr)[:5]!r}"
        )
    spurious = set(index) - set(graph.nodes())
    if spurious:
        raise ColoringError(
            f"{len(spurious)} indexed vertices are not in the graph: "
            f"{sorted(spurious, key=repr)[:5]!r}"
        )
    _check_assignment_values(index, "vertices")
    for v in graph.nodes():
        later = sum(1 for u in graph.neighbors(v) if index[u] >= index[v])
        if later > threshold:
            raise ColoringError(
                f"H-partition violated at {v!r}: {later} neighbors at "
                f"levels >= its own > out-degree bound {threshold}"
            )
    return True


def count_colors(coloring: Dict) -> int:
    return len(set(coloring.values())) if coloring else 0
