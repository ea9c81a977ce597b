"""``Interned``: a graph's CSR view, built once per call.

The vector engine dispatches its array programs on this view,
:mod:`repro.graphs.properties` peels cores over it, the coloring oracle
runs every engine pass of one call over a single view, and
:mod:`repro.graphs.linegraph` builds line graphs as views straight from
arrays, so every networkx input meets the array code through one
interning loop.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

__all__ = ["Interned"]


class Interned:
    """A graph's ids interned to ``0..n-1`` in node order.

    Built from an nx graph, rows are read through ``graph.neighbors``
    only: ``graph.degree`` and ``graph.edges`` cache a view that points
    back at the graph, and a transient subgraph caught in that cycle
    waits for the cyclic collector. Built from arrays
    (:meth:`from_arrays`), the dense CSR is the input. Either form
    derives the other on first read and keeps it: ``indptr``/``indices``
    are the dense CSR a program runs over, ``neighbors``/``bounds`` the
    original-id rows :meth:`to_networkx` rebuilds the graph from.

    Self-loops are recorded (``loops``), not refused: a view stands for
    its graph exactly, and the engines refuse looped views the way they
    refuse looped graphs.
    """

    __slots__ = (
        "ids", "n", "m", "max_degree", "directed", "loops",
        "_index", "_neighbors", "_bounds", "_indptr", "_indices", "__weakref__",
    )

    def __init__(self, graph: Any):
        # programs assume symmetric rows; a digraph's rows are successors
        self.directed = graph.is_directed()
        self.loops = nx.number_of_selfloops(graph)
        self.ids = ids = list(graph.nodes())
        self.n = len(ids)
        self._index: Optional[Dict[Any, int]] = None
        self._indptr: Optional[np.ndarray] = None
        self._indices: Optional[np.ndarray] = None
        self._neighbors = flat = []
        self._bounds = bounds = [0]
        for v in ids:
            flat.extend(graph.neighbors(v))
            bounds.append(len(flat))
        # a self-loop sits in its row once but is one edge, like any other
        self.m = (len(flat) + self.loops) // 2
        self.max_degree = max(
            (bounds[i + 1] - bounds[i] for i in range(self.n)), default=0
        )

    @classmethod
    def from_arrays(
        cls, ids: Sequence[Any], indptr: np.ndarray, indices: np.ndarray
    ) -> "Interned":
        """The undirected, loop-free view whose node ``ids[i]`` has the
        neighbors ``ids[j]`` for ``j`` in ``indices[indptr[i]:indptr[i + 1]]``,
        rows in that order. The arrays are the caller's contract:
        symmetric, no self-loops, no repeated neighbors."""
        view = cls.__new__(cls)
        view.directed = False
        view.loops = 0
        view.ids = list(ids)
        view.n = len(view.ids)
        view._index = view._neighbors = view._bounds = None
        view._indptr = np.asarray(indptr, dtype=np.int64)
        view._indices = np.asarray(indices, dtype=np.int64)
        view.m = view._indices.size // 2
        view.max_degree = int(np.diff(view._indptr).max()) if view.n else 0
        return view

    # ------------------------------------------------------------- arrays

    @property
    def index(self) -> Dict[Any, int]:
        """Original id -> dense id."""
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.ids)}
        return self._index

    @property
    def indptr(self) -> np.ndarray:
        if self._indptr is None:
            self._indptr = np.array(self._bounds, dtype=np.int64)
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        if self._indices is None:
            self._indices = np.fromiter(
                map(self.index.__getitem__, self._neighbors),
                dtype=np.int64,
                count=len(self._neighbors),
            )
        return self._indices

    @property
    def neighbors(self) -> List[Any]:
        """Every row's original neighbor ids, concatenated."""
        if self._neighbors is None:
            ids = self.ids
            self._neighbors = [ids[j] for j in self._indices.tolist()]
        return self._neighbors

    @property
    def bounds(self) -> List[int]:
        """Row ``i`` of :attr:`neighbors` is ``[bounds[i]:bounds[i + 1]]``."""
        if self._bounds is None:
            self._bounds = self._indptr.tolist()
        return self._bounds

    # ------------------------------------------------- nx-shaped reads

    def nodes(self) -> List[Any]:
        return self.ids

    def number_of_nodes(self) -> int:
        return self.n

    def edges(self) -> Iterator[Tuple[Any, Any]]:
        """Each edge once, in the order ``graph.edges()`` lists it on the
        graph the view stands for: row by row, an undirected edge at its
        endpoint that comes first in node order."""
        ids, indptr, indices = self.ids, self.indptr.tolist(), self.indices.tolist()
        for i in range(self.n):
            for j in indices[indptr[i] : indptr[i + 1]]:
                if self.directed or j >= i:
                    yield ids[i], ids[j]

    def to_networkx(self) -> Any:
        """The nx graph with this node order and these rows, in order."""
        ids, flat, bounds = self.ids, self.neighbors, self.bounds
        graph = nx.DiGraph() if self.directed else nx.Graph()
        graph.add_nodes_from(ids)
        if self.directed:
            # arcs added row by row land in each successor row in order
            graph.add_edges_from(
                (u, v) for i, u in enumerate(ids) for v in flat[bounds[i] : bounds[i + 1]]
            )
            return graph
        # An undirected ``add_edge`` appends to both rows at once, and no
        # edge order fills every row in its own order, so the rows are
        # written directly; each edge shares one data dict between them.
        adj = graph._adj
        for i, u in enumerate(ids):
            row = adj[u]
            for v in flat[bounds[i] : bounds[i + 1]]:
                data = adj[v].get(u)
                row[v] = {} if data is None else data
        return graph
