"""Synchronous network scheduler for the LOCAL model.

The :class:`Network` owns the topology and the per-node runtime state and
drives rounds:

1. deliver all messages queued in the previous round,
2. call ``algorithm.step`` at every non-halted node (simultaneously, i.e.
   all steps observe the same delivered inboxes),
3. collect outboxes.

The run terminates when every node has halted, and raises
:class:`RoundLimitExceeded` if the configured budget is exhausted — a
non-halting algorithm is a bug, never a silent hang.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import networkx as nx

from repro.errors import RoundLimitExceeded, SimulationError
from repro.local.algorithm import Context, NodeAlgorithm
from repro.local.message import Message
from repro.local.node import Node
from repro.types import NodeId

DEFAULT_MAX_ROUNDS = 1_000_000


@dataclass
class RunResult:
    """Outcome of one simulated execution.

    ``round_messages[r]`` is the number of messages delivered at the start
    of round ``r + 1`` — the per-round communication profile, useful for
    message-complexity analysis of the reproduced algorithms.

    ``engine`` names the engine that *actually* scheduled the run (set by
    the engine layer; ``None`` for direct :class:`Network` use). It can
    differ from the engine the caller requested — the vector engine's
    delegated runs execute on the reference scheduler and say so here.
    """

    rounds: int
    messages: int
    outputs: Dict[NodeId, Any] = field(default_factory=dict)
    round_messages: List[int] = field(default_factory=list)
    engine: Optional[str] = None

    def output_of(self, node_id: NodeId) -> Any:
        return self.outputs[node_id]

    @property
    def peak_round_messages(self) -> int:
        return max(self.round_messages, default=0)


class Network:
    """A simulated synchronous message-passing network over a graph."""

    def __init__(self, graph: nx.Graph):
        if nx.number_of_selfloops(graph):
            raise SimulationError("self-loops are not allowed in LOCAL networks")
        self.graph = graph
        self.nodes: Dict[NodeId, Node] = {
            v: Node(v, tuple(graph.neighbors(v))) for v in graph.nodes()
        }

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def max_degree(self) -> int:
        if not self.nodes:
            return 0
        return max(node.degree for node in self.nodes.values())

    def make_context(self, **extras: Any) -> Context:
        return Context(n=self.n, max_degree=self.max_degree, extras=dict(extras))

    def run(
        self,
        algorithm: NodeAlgorithm,
        ctx: Optional[Context] = None,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
    ) -> RunResult:
        """Execute ``algorithm`` to completion and return its outputs.

        ``max_rounds`` bounds the simulation; exceeding it raises
        :class:`RoundLimitExceeded`.
        """
        if ctx is None:
            ctx = self.make_context()
        for node in self.nodes.values():
            node.state = {}
            node.inbox = []
            node.halted = False
            node.drain_outbox()
            algorithm.initialize(node, ctx)

        pending: Dict[NodeId, List[Message]] = {v: [] for v in self.nodes}
        rounds = 0
        round_messages: List[int] = []
        in_flight = self._collect(pending)
        messages = in_flight
        while True:
            running = [node for node in self.nodes.values() if not node.halted]
            if not running:
                break
            if rounds >= max_rounds:
                raise RoundLimitExceeded(max_rounds, len(running))
            rounds += 1
            round_messages.append(in_flight)
            inboxes = {v: pending[v] for v in self.nodes}
            pending = {v: [] for v in self.nodes}
            for node in running:
                node.inbox = inboxes[node.id]
                algorithm.step(node, node.inbox, rounds, ctx)
            in_flight = self._collect(pending)
            messages += in_flight

        outputs = {v: algorithm.output(node) for v, node in self.nodes.items()}
        return RunResult(
            rounds=rounds,
            messages=messages,
            outputs=outputs,
            round_messages=round_messages,
        )

    def _collect(self, pending: Dict[NodeId, List[Message]]) -> int:
        """Move every node's outbox into next round's pending inboxes."""
        count = 0
        for node in self.nodes.values():
            for nbr, payload in node.drain_outbox().items():
                pending[nbr].append(Message(sender=node.id, payload=payload))
                count += 1
        return count


def run_on_graph(
    graph: nx.Graph,
    algorithm: NodeAlgorithm,
    extras: Optional[Dict[str, Any]] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> RunResult:
    """Run ``algorithm`` on ``graph`` through the selected execution engine.

    The dynamically scoped selection applies (see
    :func:`repro.engine.use_engine`), defaulting to the reference
    :class:`Network` scheduler. Every algorithm in the library
    funnels through here, so one ``use_engine("vector")`` scope switches a
    whole pipeline.

    A :func:`repro.shard.runtime.sharding` scope is consulted first: runs
    it can reproduce execute shard-by-shard out of core; everything else
    falls through to the engines with a disclosed ``shard.fallback``.
    """
    from repro.shard.context import active as _shard_scope

    scope = _shard_scope()
    if scope is not None:
        result = scope.maybe_run(graph, algorithm, extras or {}, max_rounds)
        if result is not None:
            return result

    from repro.engine.base import current_engine

    return current_engine().run(graph, algorithm, extras=extras, max_rounds=max_rounds)
