"""Per-node runtime state for the synchronous LOCAL simulator."""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.local.message import Message
from repro.types import NodeId


class Node:
    """A processor in the simulated network.

    A node owns:

    * ``id`` — its globally unique O(log n)-bit identifier,
    * ``neighbors`` — the ids of its adjacent processors (its ports),
    * ``state`` — an arbitrary local-memory dictionary managed by the
      algorithm,
    * ``inbox`` — the messages delivered at the start of the current round,
    * ``halted`` — whether the node has announced local termination.

    The simulator resets the inbox every round; algorithms must copy anything
    they need into ``state``.
    """

    __slots__ = ("id", "neighbors", "state", "inbox", "halted", "_outbox", "_nbrset")

    def __init__(self, node_id: NodeId, neighbors: Tuple[NodeId, ...]):
        self.id = node_id
        self.neighbors = neighbors
        self.state: Dict[str, Any] = {}
        self.inbox: List[Message] = []
        self.halted = False
        self._outbox: Dict[NodeId, Any] = {}
        self._nbrset: Optional[FrozenSet[NodeId]] = None

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    def send(self, neighbor: NodeId, payload: Any) -> None:
        """Queue ``payload`` for delivery to ``neighbor`` next round."""
        if self._nbrset is None:
            self._nbrset = frozenset(self.neighbors)
        if neighbor not in self._nbrset:
            raise ValueError(f"node {self.id!r} has no neighbor {neighbor!r}")
        self._outbox[neighbor] = payload

    def broadcast(self, payload: Any) -> None:
        """Queue ``payload`` for delivery to every neighbor next round."""
        for nbr in self.neighbors:
            self._outbox[nbr] = payload

    def halt(self) -> None:
        """Announce local termination; the node takes no further steps."""
        self.halted = True

    def drain_outbox(self) -> Dict[NodeId, Any]:
        out, self._outbox = self._outbox, {}
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "halted" if self.halted else "running"
        return f"Node({self.id!r}, deg={self.degree}, {status})"
