"""Execution tracing for the LOCAL simulator.

A :class:`Tracer` observes a run round by round — which nodes stepped, what
they sent, when they halted — and renders a compact textual timeline. This
is the debugging instrument for anyone writing their own
:class:`~repro.local.algorithm.NodeAlgorithm`: distributed bugs are round
off-by-ones, and a timeline makes them visible.

Usage::

    tracer = Tracer(watch={0, 5})
    result = network.run(algorithm, ctx, tracer=tracer)
    print(tracer.render())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Set

from repro.types import NodeId


@dataclass
class RoundTrace:
    """What happened in one round."""

    round_no: int
    stepped: List[NodeId] = field(default_factory=list)
    sent: List[tuple] = field(default_factory=list)  # (sender, receiver, payload)
    halted: List[NodeId] = field(default_factory=list)
    crashed: List[NodeId] = field(default_factory=list)


class Tracer:
    """Collects per-round events, optionally restricted to watched nodes.

    Args:
        watch: only record events involving these nodes (None = all).
        max_payload_repr: truncate long payload representations.
    """

    def __init__(self, watch: Optional[Set[NodeId]] = None, max_payload_repr: int = 40):
        self.watch = watch
        self.max_payload_repr = max_payload_repr
        self.rounds: List[RoundTrace] = []

    # ------------------------------------------------------------- recording

    def _relevant(self, *nodes: NodeId) -> bool:
        return self.watch is None or any(v in self.watch for v in nodes)

    def begin_round(self, round_no: int) -> None:
        self.rounds.append(RoundTrace(round_no=round_no))

    def record_step(self, node_id: NodeId) -> None:
        if self.rounds and self._relevant(node_id):
            self.rounds[-1].stepped.append(node_id)

    def record_send(self, sender: NodeId, receiver: NodeId, payload: Any) -> None:
        if self.rounds and self._relevant(sender, receiver):
            text = repr(payload)
            if len(text) > self.max_payload_repr:
                text = text[: self.max_payload_repr - 3] + "..."
            self.rounds[-1].sent.append((sender, receiver, text))

    def record_halt(self, node_id: NodeId) -> None:
        if self.rounds and self._relevant(node_id):
            self.rounds[-1].halted.append(node_id)

    def record_crash(self, node_id: NodeId) -> None:
        if self.rounds and self._relevant(node_id):
            self.rounds[-1].crashed.append(node_id)

    # ------------------------------------------------------------- rendering

    def render(self, max_events_per_round: int = 8) -> str:
        """A compact textual timeline of the traced run (rendering lives
        in :func:`repro.obs.render.render_rounds`, shared with the
        ``repro trace show`` CLI; output is unchanged)."""
        from repro.obs.render import render_rounds

        return render_rounds(self.rounds, max_events_per_round=max_events_per_round)

    @property
    def total_recorded_messages(self) -> int:
        return sum(len(rt.sent) for rt in self.rounds)
