"""Synchronous LOCAL-model simulation substrate.

Public surface:

* :class:`~repro.local.network.Network` / :func:`~repro.local.network.run_on_graph`
  — build and drive a synchronous message-passing execution.
* :class:`~repro.local.algorithm.NodeAlgorithm` / :class:`~repro.local.algorithm.Context`
  — the per-node program interface.
* :class:`~repro.local.ledger.RoundLedger` — sequential/parallel round accounting.
* :mod:`~repro.local.costmodel` — closed-form round bounds of cited oracles.
"""

from repro.local.algorithm import Context, NodeAlgorithm
from repro.local.ledger import LedgerEntry, ParallelScope, RoundLedger
from repro.local.message import Message
from repro.local.network import DEFAULT_MAX_ROUNDS, Network, RunResult, run_on_graph
from repro.local.node import Node

__all__ = [
    "Context",
    "NodeAlgorithm",
    "LedgerEntry",
    "ParallelScope",
    "RoundLedger",
    "Message",
    "Network",
    "RunResult",
    "run_on_graph",
    "Node",
    "DEFAULT_MAX_ROUNDS",
]
