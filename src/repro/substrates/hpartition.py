"""H-partitions (Nash-Williams forest-decomposition peeling), reference [4].

An *H-partition with degree d* splits V into H_1, ..., H_l such that every
``v in H_i`` has at most ``d`` neighbors in ``H_i ∪ ... ∪ H_l``. For a graph
of arboricity ``a`` and any ``q > 2``, peeling all vertices of remaining
degree at most ``q*a`` removes at least a ``(1 - 2/q)`` fraction per round
(the remaining graph keeps arboricity <= a, hence average degree < 2a), so
``l = O(log n / log(q/2))``.

The peeling runs as a genuine LOCAL algorithm: one round per phase, each
vertex tracking the announced removals of its neighbors. The partition
induces the paper's acyclic orientation — toward higher H-index, ties toward
higher id — with out-degree at most ``q*a``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.errors import InvalidParameterError
from repro.graphcore import CompactGraph
from repro.local import Context, Message, Node, NodeAlgorithm, RoundLedger, run_on_graph
from repro.graphs.orientation import Orientation, orient_acyclic_by_order
from repro.graphs.properties import arboricity_bounds
from repro.types import NodeId


class _Peeler(NodeAlgorithm):
    """Peel vertices of remaining degree <= threshold, one phase per round.

    Context extras:
        threshold: the peeling degree bound (ceil(q * a)).

    Each removed vertex announces its removal; every vertex tracks its
    remaining degree as (original degree) - (removal announcements received).
    """

    name = "h-partition"

    def initialize(self, node: Node, ctx: Context) -> None:
        node.state["remaining_degree"] = node.degree
        node.state["output"] = None
        if node.state["remaining_degree"] <= ctx.extras["threshold"]:
            node.state["output"] = 1
            node.broadcast("removed")
            node.halt()

    def step(self, node: Node, inbox: List[Message], round_no: int, ctx: Context) -> None:
        node.state["remaining_degree"] -= len(inbox)
        if node.state["remaining_degree"] <= ctx.extras["threshold"]:
            node.state["output"] = round_no + 1
            node.broadcast("removed")
            node.halt()


@dataclass
class HPartition:
    """The result: per-vertex H-index (1-based), the sets, the threshold
    used, and the induced acyclic orientation."""

    graph: nx.Graph
    index: Dict[NodeId, int]
    threshold: int

    @property
    def num_levels(self) -> int:
        return max(self.index.values(), default=0)

    def sets(self) -> List[List[NodeId]]:
        levels: List[List[NodeId]] = [[] for _ in range(self.num_levels)]
        for v, i in self.index.items():
            levels[i - 1].append(v)
        return levels

    def orientation(self) -> Orientation:
        """Orient toward higher H-index, ties toward higher id. Acyclic with
        out-degree at most ``threshold``."""
        order = sorted(self.graph.nodes(), key=lambda v: (self.index[v], repr(v)))
        return orient_acyclic_by_order(self.graph, order)

    def validate(self) -> None:
        """Check the defining property: every v in H_i has at most
        ``threshold`` neighbors in H_i ∪ ... ∪ H_l."""
        graph = self.graph
        if isinstance(graph, CompactGraph):
            # CSR branch: one gather + bincount instead of a Python loop
            # over all adjacency (the loop would dwarf the kernel-backed
            # run itself at million-node scale). Same first-violation
            # report as the loop below (ascending node order).
            import numpy as np

            n = graph.n
            levels = np.fromiter(
                (self.index[v] for v in range(n)), dtype=np.int64, count=n
            )
            src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
            dst = graph.indices.astype(np.int64, copy=False)
            later = np.bincount(
                src[levels[dst] >= levels[src]], minlength=n
            )
            bad = later > self.threshold
            if bad.any():
                v = int(np.argmax(bad))
                raise InvalidParameterError(
                    f"H-partition violated at {v!r}: "
                    f"{int(later[v])} > {self.threshold}"
                )
            return
        for v in self.graph.nodes():
            later = sum(
                1 for u in self.graph.neighbors(v) if self.index[u] >= self.index[v]
            )
            if later > self.threshold:
                raise InvalidParameterError(
                    f"H-partition violated at {v!r}: {later} > {self.threshold}"
                )


def h_partition(
    graph: nx.Graph,
    arboricity: Optional[int] = None,
    q: float = 3.0,
    ledger: Optional[RoundLedger] = None,
) -> HPartition:
    """Compute an H-partition with degree ``ceil(q * a)`` in O(log n) rounds.

    ``arboricity`` defaults to the degeneracy upper bound (a valid, if
    conservative, arboricity estimate every node could know as global graph
    knowledge). ``q`` must exceed 2 for guaranteed progress.
    """
    if q <= 2:
        raise InvalidParameterError("q must be > 2 for the peeling to make progress")
    if arboricity is not None and arboricity < 1:
        raise InvalidParameterError("arboricity bound must be >= 1")
    if graph.number_of_nodes() == 0:
        return HPartition(graph=graph, index={}, threshold=0)
    if arboricity is None:
        arboricity = max(1, arboricity_bounds(graph).upper)
    threshold = max(1, math.ceil(q * arboricity))
    result = run_on_graph(graph, _Peeler(), extras={"threshold": threshold})
    index = dict(result.outputs)
    if ledger is not None:
        n = graph.number_of_nodes()
        ledger.add(
            "h-partition",
            actual=result.rounds,
            modeled=max(1.0, math.log2(n) / max(math.log2(q / 2), 0.5)),
        )
    partition = HPartition(graph=graph, index=index, threshold=threshold)
    partition.validate()
    return partition


# ---------------------------------------------------------------- registry

from repro import registry as _registry


def _run_h_partition(
    graph: nx.Graph, arboricity: Optional[int] = None, q: float = 3.0
) -> _registry.AlgorithmRun:
    ledger = RoundLedger(label="h-partition")
    hp = h_partition(graph, arboricity=arboricity, q=q, ledger=ledger)
    return _registry.AlgorithmRun(
        name="h-partition",
        kind="decomposition",
        coloring=dict(hp.index),
        colors_used=hp.num_levels,
        rounds_actual=ledger.total_actual,
        rounds_modeled=ledger.total_modeled,
        extra={"threshold": hp.threshold, "num_levels": hp.num_levels},
    )


_registry.register(
    _registry.AlgorithmSpec(
        name="h-partition",
        family="substrate",
        kind="decomposition",
        summary="Nash-Williams H-partition of [4]: peel degree <= ceil(q*a) level by level",
        color_bound="ceil(log_{q/2} n) levels of degree <= ceil(q*a)",
        rounds_bound="O(log n)",
        runner=_run_h_partition,
        invariants=("h-partition",),
        requires=("bounded-arboricity",),
        params=("arboricity", "q"),
        # arboricity_bounds and HPartition.validate carry CSR branches;
        # the peeling itself runs through the h-partition kernel.
        compact_ok=True,
    )
)
