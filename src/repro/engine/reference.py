"""The reference engine: the original :class:`~repro.local.network.Network`
scheduler, unchanged.

Every semantic question about the LOCAL simulation is answered by this
engine; ``VectorEngine`` (and any future engine) is validated against it by
the parity suite, at the cost of O(n) bookkeeping per round.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import networkx as nx

from repro import obs
from repro.engine.base import Engine, note_engine_run, note_run_result
from repro.local.algorithm import NodeAlgorithm
from repro.local.network import DEFAULT_MAX_ROUNDS, Network, RunResult


class ReferenceEngine(Engine):
    """Bit-for-bit the pre-engine ``Network.run`` semantics.

    :class:`~repro.graphcore.CompactGraph` and
    :class:`~repro.graphcore.Interned` inputs are converted to networkx
    transparently (the reference scheduler is defined over nx adjacency),
    so parity suites can hold the array programs of
    :class:`~repro.engine.vector.VectorEngine` against this engine on the
    *same* compact instance or view. A ``CompactGraph`` converts over the
    dense ids its ``nodes()`` reports, never its label sideband: the
    algorithm keyed its extras by those ids.
    """

    name = "reference"

    def run(
        self,
        graph: nx.Graph,
        algorithm: NodeAlgorithm,
        extras: Optional[Dict[str, Any]] = None,
        max_rounds: Optional[int] = None,
    ) -> RunResult:
        from repro.graphcore import CompactGraph, Interned

        note_engine_run(self.name)
        if isinstance(graph, CompactGraph) and graph.labels is not None:
            graph = CompactGraph(
                graph.indptr, graph.indices, node_attrs=graph.node_attrs, validate=False
            )
        if isinstance(graph, (CompactGraph, Interned)):
            graph = graph.to_networkx()
        network = Network(graph)
        ctx = network.make_context(**(extras or {}))
        with obs.span("engine.reference.run", algorithm=getattr(algorithm, "name", "?")):
            result = network.run(
                algorithm,
                ctx,
                max_rounds=DEFAULT_MAX_ROUNDS if max_rounds is None else max_rounds,
            )
        # The reference scheduler is opaque per round: its counters and
        # round points come from the result.
        note_run_result(self.name, result)
        result.engine = self.name
        return result
