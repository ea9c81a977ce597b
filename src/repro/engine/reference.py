"""The reference engine: the original :class:`~repro.local.network.Network`
scheduler, unchanged.

Every semantic question about the LOCAL simulation is answered by this
engine; ``VectorEngine`` (and any future engine) is validated against it by
the parity suite. It supports the full feature surface — tracers, crash
schedules, bandwidth tracking — at the cost of O(n) bookkeeping per round.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import networkx as nx

from repro import obs
from repro.engine.base import Engine, note_engine_run
from repro.local.algorithm import NodeAlgorithm
from repro.local.network import DEFAULT_MAX_ROUNDS, Network, RunResult
from repro.local.trace import Tracer
from repro.types import NodeId


class ReferenceEngine(Engine):
    """Bit-for-bit the pre-engine ``Network.run`` semantics.

    :class:`~repro.graphcore.CompactGraph` and
    :class:`~repro.graphcore.Interned` inputs are converted to networkx
    transparently (the reference scheduler is defined over nx adjacency),
    so parity suites can hold the CSR fast path of
    :class:`~repro.engine.vector.VectorEngine` against this engine on the
    *same* compact instance or view.
    """

    name = "reference"

    def run(
        self,
        graph: nx.Graph,
        algorithm: NodeAlgorithm,
        extras: Optional[Dict[str, Any]] = None,
        max_rounds: Optional[int] = None,
        track_bandwidth: bool = False,
        crashes: Optional[Dict[NodeId, int]] = None,
        tracer: Optional[Tracer] = None,
    ) -> RunResult:
        from repro.graphcore import CompactGraph, Interned

        note_engine_run(self.name)
        if isinstance(graph, (CompactGraph, Interned)):
            graph = graph.to_networkx()
        network = Network(graph)
        ctx = network.make_context(**(extras or {}))
        with obs.span("engine.reference.run", algorithm=getattr(algorithm, "name", "?")):
            result = network.run(
                algorithm,
                ctx,
                max_rounds=DEFAULT_MAX_ROUNDS if max_rounds is None else max_rounds,
                track_bandwidth=track_bandwidth,
                crashes=crashes,
                tracer=tracer,
            )
        rt = obs.active()
        if rt is not None:
            # The reference scheduler is opaque per round; its aggregate
            # counters come from the result, and the per-round message
            # profile becomes trace events when a sink is attached.
            rt.incr("engine.runs", engine=self.name)
            rt.incr("engine.rounds", result.rounds, engine=self.name)
            rt.incr("engine.messages", result.messages, engine=self.name)
            if rt.trace is not None:
                for round_no, sent in enumerate(result.round_messages, start=1):
                    rt.emit(
                        "point",
                        "engine.round",
                        engine=self.name,
                        round=round_no,
                        sent=sent,
                    )
        result.engine = self.name
        return result
