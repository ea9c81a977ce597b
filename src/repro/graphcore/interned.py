"""``Interned``: a networkx graph's CSR view, built once per call.

The vector engine dispatches its array programs on this view, and
:mod:`repro.graphs.properties` peels cores over it, so every networkx
input meets the array code through one interning loop.
"""

from __future__ import annotations

from typing import Any

import networkx as nx
import numpy as np

from repro.errors import SimulationError

__all__ = ["Interned"]


class Interned:
    """An nx graph's ids interned to ``0..n-1`` in ``graph.nodes()`` order.

    Rows are read through ``graph.neighbors`` only: ``graph.degree`` and
    ``graph.edges`` cache a view that points back at the graph, and a
    transient subgraph caught in that cycle waits for the cyclic
    collector. ``neighbors``/``bounds`` keep the original neighbor ids for
    the per-node path; ``indptr``/``indices`` are the dense CSR a program
    runs over, built only when one reads them.
    """

    __slots__ = ("ids", "index", "neighbors", "bounds", "n", "m", "max_degree", "directed")

    def __init__(self, graph: Any):
        if nx.number_of_selfloops(graph):
            raise SimulationError("self-loops are not allowed in LOCAL networks")
        # programs assume symmetric rows; a digraph's rows are successors
        self.directed = graph.is_directed()
        self.ids = ids = list(graph.nodes())
        self.n = len(ids)
        self.index = {v: i for i, v in enumerate(ids)}
        self.neighbors = flat = []
        self.bounds = bounds = [0]
        for v in ids:
            flat.extend(graph.neighbors(v))
            bounds.append(len(flat))
        self.m = len(flat) // 2
        self.max_degree = max(
            (bounds[i + 1] - bounds[i] for i in range(self.n)), default=0
        )

    @property
    def indptr(self) -> np.ndarray:
        return np.array(self.bounds, dtype=np.int64)

    @property
    def indices(self) -> np.ndarray:
        return np.fromiter(
            map(self.index.__getitem__, self.neighbors),
            dtype=np.int64,
            count=len(self.neighbors),
        )
