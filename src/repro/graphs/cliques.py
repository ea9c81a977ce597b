"""Consistent clique identification ("clique covers") and diversity.

The paper defines the *diversity* ``D(G)`` as the maximum number of
identified maximal cliques any vertex belongs to, under a *consistent* clique
identification in which the cliques containing a vertex cover all of its
neighbors (Section 1.2, footnote 3). For line graphs the natural
identification assigns each vertex of the original graph a clique (the star
of edges incident on it), giving ``D = 2``; for line graphs of c-uniform
hypergraphs, ``D = c``.

A :class:`CliqueCover` carries that identification explicitly so algorithms
(connector construction, CD-Coloring) never need to solve maximal-clique
problems themselves — exactly as the paper assumes for these graph families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

import networkx as nx

from repro.errors import CliqueCoverError
from repro.types import NodeId


@dataclass(frozen=True)
class CliqueCover:
    """A consistent identification of cliques of a graph.

    Attributes:
        cliques: tuple of vertex-frozensets, each a clique of the graph.
        membership: vertex -> indices (into ``cliques``) of the cliques that
            contain it.
    """

    cliques: Tuple[FrozenSet[NodeId], ...]
    membership: Dict[NodeId, Tuple[int, ...]] = field(hash=False)

    @staticmethod
    def from_cliques(cliques: Iterable[Iterable[NodeId]]) -> "CliqueCover":
        clique_sets = tuple(frozenset(c) for c in cliques if len(frozenset(c)) > 0)
        membership: Dict[NodeId, List[int]] = {}
        for idx, clique in enumerate(clique_sets):
            for v in clique:
                membership.setdefault(v, []).append(idx)
        return CliqueCover(
            cliques=clique_sets,
            membership={v: tuple(ids) for v, ids in membership.items()},
        )

    @staticmethod
    def from_maximal_cliques(graph: nx.Graph) -> "CliqueCover":
        """Identify all maximal cliques (the generic, possibly expensive
        identification each vertex could perform locally in one round)."""
        return CliqueCover.from_cliques(nx.find_cliques(graph))

    # ----------------------------------------------------------- properties

    def diversity(self) -> int:
        """Maximum number of identified cliques any vertex belongs to."""
        if not self.membership:
            return 0
        return max(len(ids) for ids in self.membership.values())

    def diversity_of(self, v: NodeId) -> int:
        return len(self.membership.get(v, ()))

    def max_clique_size(self) -> int:
        if not self.cliques:
            return 0
        return max(len(c) for c in self.cliques)

    def cliques_of(self, v: NodeId) -> Tuple[FrozenSet[NodeId], ...]:
        return tuple(self.cliques[i] for i in self.membership.get(v, ()))

    # ----------------------------------------------------------- operations

    def restricted(self, vertices: Iterable[NodeId]) -> "CliqueCover":
        """The cover induced on a vertex subset: every clique is intersected
        with the subset; empty intersections are dropped.

        Lemma 2.3(ii) guarantees the diversity never increases under this
        restriction for color classes of a connector coloring.
        """
        vset = set(vertices)
        restricted = [clique & vset for clique in self.cliques]
        return CliqueCover.from_cliques(c for c in restricted if c)

    def validate(self, graph: nx.Graph, require_neighborhood_cover: bool = True) -> None:
        """Raise :class:`CliqueCoverError` unless this cover is consistent
        with ``graph``:

        * every listed clique is a clique of the graph,
        * every vertex of the graph appears in at least one clique,
        * (optionally) the union of a vertex's cliques contains its whole
          neighborhood — the paper's consistency condition.
        """
        nodes = set(graph.nodes())
        for idx, clique in enumerate(self.cliques):
            extra = clique - nodes
            if extra:
                raise CliqueCoverError(f"clique {idx} contains non-vertices {extra!r}")
            members = sorted(clique, key=repr)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    if not graph.has_edge(u, v):
                        raise CliqueCoverError(
                            f"clique {idx} is not a clique: missing edge ({u!r},{v!r})"
                        )
        uncovered = nodes - set(self.membership)
        if uncovered:
            raise CliqueCoverError(f"vertices not covered by any clique: {uncovered!r}")
        if require_neighborhood_cover:
            for v in nodes:
                covered: Set[NodeId] = set()
                for clique in self.cliques_of(v):
                    covered |= clique
                missing = set(graph.neighbors(v)) - covered
                if missing:
                    raise CliqueCoverError(
                        f"cliques of {v!r} do not cover neighbors {missing!r}"
                    )

    def partition_clique(self, clique_idx: int, t: int) -> List[List[NodeId]]:
        """Deterministically split clique ``clique_idx`` into groups of size
        at most ``t`` (the connector construction of Section 2).

        Vertices are ordered by their repr-stable sort so that the clique
        master's computation is reproducible; the paper has the clique master
        (highest id) choose any fixed partition.
        """
        if t < 1:
            raise CliqueCoverError("group size t must be >= 1")
        ordered = sorted(self.cliques[clique_idx], key=repr)
        return [ordered[i : i + t] for i in range(0, len(ordered), t)]
