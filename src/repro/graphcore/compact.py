"""``CompactGraph``: the library's compact CSR graph type.

Every layer below the workload registry historically carried an in-memory
``networkx.Graph`` — convenient, but ~50-100x larger than the adjacency
data itself and the hard ceiling on instance sizes. ``CompactGraph``
holds the same undirected simple graph as two numpy arrays:

* ``indptr`` — ``int64``, length ``n + 1``; node ``v``'s neighbor list is
  ``indices[indptr[v]:indptr[v + 1]]``.
* ``indices`` — ``int32`` (``int64`` above 2^31 nodes), length ``2m``,
  sorted within each row.

Nodes are always the dense integers ``0..n-1``. Graphs whose original
labels were something else keep a ``labels`` sideband (index -> original
label) and an optional ``node_attrs`` sideband (index -> attribute dict),
so :meth:`from_networkx` / :meth:`to_networkx` round-trip losslessly —
the round-trip property suite holds this over every builtin workload.

The read API deliberately duck-types the slice of ``networkx.Graph`` the
algorithms, checkers, and invariant oracles actually consume —
``nodes()``, ``edges()``, ``neighbors()``, ``degree()``,
``number_of_nodes()``, ``number_of_edges()``, iteration, containment —
so every registered algorithm and every verifier runs on either
representation unchanged. Anything needing the
full networkx surface converts explicitly via :meth:`to_networkx`.

:meth:`digest` is the graph's content address: a sha256 over the
canonical CSR arrays (dtype-normalized) plus the label/attr sidebands.
Two CompactGraphs with equal digests are the same labelled graph, no
matter how they were built, saved, or loaded — run keys and the on-disk
format (:mod:`repro.graphcore.formats`) both lean on this.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["CompactGraph", "from_edge_array"]


def _indices_dtype(n: int) -> np.dtype:
    """The narrowest index dtype that can address ``n`` nodes."""
    return np.dtype(np.int32) if n <= np.iinfo(np.int32).max else np.dtype(np.int64)


class CompactGraph:
    """An undirected simple graph in CSR form over nodes ``0..n-1``.

    Construction validates the CSR invariants (monotone ``indptr``,
    in-range neighbor ids, no self-loops, sorted rows, symmetry is the
    caller's contract via :func:`from_edge_array` / the converters).
    Instances are immutable by convention: the arrays may be read-only
    views (memory-mapped files), so nothing in the library mutates them.
    """

    __slots__ = ("indptr", "indices", "labels", "node_attrs", "_max_degree")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: Optional[Sequence[Any]] = None,
        node_attrs: Optional[Dict[int, Dict[str, Any]]] = None,
        validate: bool = True,
    ):
        # asanyarray keeps np.memmap views intact: a memory-mapped graph
        # must stay memory-mapped through construction.
        indptr = np.asanyarray(indptr, dtype=np.int64)
        indices = np.asanyarray(indices)
        if indices.dtype not in (np.dtype(np.int32), np.dtype(np.int64)):
            indices = indices.astype(np.int64)
        if validate:
            self._validate(indptr, indices, labels)
        self.indptr = indptr
        self.indices = indices
        self.labels = list(labels) if labels is not None else None
        self.node_attrs = dict(node_attrs) if node_attrs else None
        self._max_degree: Optional[int] = None

    @staticmethod
    def _validate(
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: Optional[Sequence[Any]],
        symmetry: bool = True,
    ) -> None:
        """CSR invariant checks, all vectorized. ``symmetry=False`` skips
        the O(m log m) reversed-edge comparison — the *light* profile the
        file loader runs on every open (a corrupted or hand-rolled file
        must never reach the engines with self-loops, unsorted rows, or
        out-of-range neighbor ids, which would silently misdeliver)."""
        if indptr.ndim != 1 or indptr.size < 1 or indptr[0] != 0:
            raise InvalidParameterError("indptr must be 1-D and start at 0")
        if indptr[-1] != indices.size:
            raise InvalidParameterError(
                f"indptr ends at {int(indptr[-1])} but indices has {indices.size} entries"
            )
        if indptr.size > 1 and np.any(np.diff(indptr) < 0):
            raise InvalidParameterError("indptr must be non-decreasing")
        n = indptr.size - 1
        if indices.size:
            if indices.min() < 0 or indices.max() >= n:
                raise InvalidParameterError("neighbor ids out of range [0, n)")
            rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
            if np.any(rows == indices):
                raise InvalidParameterError("self-loops are not allowed")
            # sorted within each row: adjacent indices may only decrease at
            # row boundaries.
            interior = np.diff(rows) == 0
            if np.any(np.diff(indices.astype(np.int64))[interior] <= 0):
                raise InvalidParameterError(
                    "neighbor rows must be strictly increasing (sorted, no duplicates)"
                )
            if symmetry:
                # symmetry: the reversed edge set must be the same multiset.
                fwd = rows * n + indices
                rev = indices.astype(np.int64) * n + rows
                fwd.sort()
                rev.sort()
                if not np.array_equal(fwd, rev):
                    raise InvalidParameterError("adjacency is not symmetric")
        if labels is not None and len(labels) != n:
            raise InvalidParameterError(
                f"labels has {len(labels)} entries for {n} nodes"
            )

    # ---------------------------------------------------------------- size

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def m(self) -> int:
        return self.indices.size // 2

    def number_of_nodes(self) -> int:
        return self.n

    def number_of_edges(self) -> int:
        return self.m

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __contains__(self, v: Any) -> bool:
        return self.node_id(v) is not None

    def node_id(self, v: Any) -> Optional[int]:
        """``v``'s dense id, or None when ``v`` is not a node (an
        unhashable value included).

        It answers exactly as a dict over ``0..n-1`` — networkx's
        node table — would: a key hash-equal to node ``i`` (``2.0``,
        ``True``, a numpy integer) is node ``i``. It answers
        arithmetically (an int below ``2**61 - 1`` is its own hash), so
        no million-entry identity index is ever built."""
        try:
            h = hash(v)
        except TypeError:
            return None
        return h if 0 <= h < self.n and v == h else None

    # ----------------------------------------------------------- adjacency

    def nodes(self) -> range:
        return range(self.n)

    def neighbors(self, v: Any) -> List[int]:
        i = self._require(v)
        return self.indices[self.indptr[i] : self.indptr[i + 1]].tolist()

    def _require(self, v: Any) -> int:
        i = self.node_id(v)
        if i is None:
            raise InvalidParameterError(f"node {v!r} not in graph")
        return i

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Each undirected edge once, as ``(u, v)`` with ``u < v``, in
        CSR row order."""
        indptr, indices = self.indptr, self.indices
        for u in range(self.n):
            for v in indices[indptr[u] : indptr[u + 1]].tolist():
                if u < v:
                    yield (u, v)

    def degree(self, v: Any = None):
        """``degree()`` iterates ``(node, degree)`` pairs (the nx view
        contract); ``degree(v)`` returns one node's degree."""
        if v is None:
            diffs = np.diff(self.indptr)
            return ((i, int(d)) for i, d in enumerate(diffs))
        i = self._require(v)
        return int(self.indptr[i + 1] - self.indptr[i])

    @property
    def degrees(self) -> np.ndarray:
        """All degrees as one array (the vectorized form of ``degree()``)."""
        return np.diff(self.indptr)

    @property
    def max_degree(self) -> int:
        if self._max_degree is None:
            self._max_degree = int(self.degrees.max()) if self.n else 0
        return self._max_degree

    def has_edge(self, u: Any, v: Any) -> bool:
        """Whether ``{u, v}`` is an edge (False for unknown nodes, matching
        the networkx contract). Binary search in ``u``'s sorted row."""
        i, j = self.node_id(u), self.node_id(v)
        if i is None or j is None:
            return False
        row = self.indices[self.indptr[i] : self.indptr[i + 1]]
        pos = int(np.searchsorted(row, j))
        return pos < row.size and int(row[pos]) == j

    def subgraph(self, nodes: Any) -> Any:
        """The induced subgraph on ``nodes`` as a ``networkx.Graph``.

        Unknown nodes are ignored (the networkx ``subgraph`` contract).
        Node order is ascending and edges are added in CSR row order —
        the same iteration orders a ``G.subgraph(...)`` view exposes when
        ``G`` came from :meth:`to_networkx` — so algorithms recursing on
        induced subgraphs behave identically on either representation.
        """
        import networkx as nx

        members = sorted({self.node_id(v) for v in nodes} - {None})
        sub = nx.Graph()
        sub.add_nodes_from(members)
        if members and self.indices.size:
            mem = np.asarray(members, dtype=np.int64)
            mask = np.zeros(self.n, dtype=bool)
            mask[mem] = True
            starts = self.indptr[mem]
            counts = self.indptr[mem + 1] - starts
            total = int(counts.sum())
            if total:
                bounds = np.concatenate([[0], np.cumsum(counts)])
                gather = (
                    np.arange(total, dtype=np.int64)
                    - np.repeat(bounds[:-1], counts)
                    + np.repeat(starts, counts)
                )
                owner = np.repeat(mem, counts)
                nbr = self.indices[gather].astype(np.int64)
                keep = mask[nbr] & (owner < nbr)
                sub.add_edges_from(
                    zip(owner[keep].tolist(), nbr[keep].tolist())
                )
        if self.node_attrs:
            for v in members:
                data = self.node_attrs.get(v)
                if data:
                    sub.nodes[v].update(data)
        return sub

    # ---------------------------------------------------------- conversion

    @classmethod
    def from_networkx(cls, graph: Any) -> "CompactGraph":
        """Intern an ``networkx.Graph`` losslessly.

        Nodes are ordered numerically when every label is an int (so
        int-labelled graphs — all builtin workloads — intern to the
        identity and need no label sideband), by ``repr`` otherwise.
        Node attribute dicts are preserved; edge attributes are rejected
        (nothing in the library produces them) rather than dropped.
        """
        import networkx as nx

        if graph.is_directed() or graph.is_multigraph():
            raise InvalidParameterError(
                "CompactGraph holds undirected simple graphs only"
            )
        if nx.number_of_selfloops(graph):
            raise InvalidParameterError("self-loops are not allowed")
        for _, _, data in graph.edges(data=True):
            if data:
                raise InvalidParameterError(
                    "edge attributes are not representable in CompactGraph"
                )
        nodes = list(graph.nodes())
        if all(type(v) is int for v in nodes):
            nodes.sort()
        else:
            nodes.sort(key=repr)
        n = len(nodes)
        index = {v: i for i, v in enumerate(nodes)}
        dtype = _indices_dtype(n)
        degrees = np.zeros(n, dtype=np.int64)
        for i, v in enumerate(nodes):
            degrees[i] = graph.degree(v)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=dtype)
        cursor = indptr[:-1].copy()
        for u, v in graph.edges():
            iu, iv = index[u], index[v]
            indices[cursor[iu]] = iv
            cursor[iu] += 1
            indices[cursor[iv]] = iu
            cursor[iv] += 1
        # sort each row in place (rows are small; argsort once globally)
        for i in range(n):
            row = indices[indptr[i] : indptr[i + 1]]
            row.sort()
        labels: Optional[List[Any]] = None
        if nodes != list(range(n)):
            labels = nodes
        node_attrs: Dict[int, Dict[str, Any]] = {}
        for i, v in enumerate(nodes):
            data = graph.nodes[v]
            if data:
                node_attrs[i] = dict(data)
        return cls(
            indptr, indices, labels=labels, node_attrs=node_attrs or None
        )

    def to_networkx(self) -> Any:
        """Rebuild the original ``networkx.Graph`` (labels and node
        attributes restored)."""
        import networkx as nx

        graph = nx.Graph()
        labels = self.labels
        if labels is None:
            graph.add_nodes_from(range(self.n))
            graph.add_edges_from(self.edges())
        else:
            graph.add_nodes_from(labels)
            graph.add_edges_from((labels[u], labels[v]) for u, v in self.edges())
        if self.node_attrs:
            for i, data in self.node_attrs.items():
                node = labels[i] if labels is not None else i
                graph.nodes[node].update(data)
        return graph

    # ------------------------------------------------------------ identity

    def _sideband_json(self) -> str:
        """Canonical JSON of the label/attr sidebands (sorted keys)."""
        payload: Dict[str, Any] = {}
        if self.labels is not None:
            payload["labels"] = [_jsonable_label(v) for v in self.labels]
        if self.node_attrs:
            payload["node_attrs"] = {
                str(i): self.node_attrs[i] for i in sorted(self.node_attrs)
            }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """sha256 content address of the labelled graph.

        Dtype-normalized (indices hash as int64), so the digest is a
        property of the graph, not of how narrow its arrays happen to be.
        """
        h = hashlib.sha256()
        h.update(b"repro-csrg-v1")
        h.update(struct.pack("<QQ", self.n, self.m))
        h.update(np.ascontiguousarray(self.indptr, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.indices, dtype=np.int64).tobytes())
        h.update(self._sideband_json().encode("utf-8"))
        return h.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompactGraph(n={self.n}, m={self.m}, "
            f"max_degree={self.max_degree if self.n < 1 << 20 else '?'})"
        )


def _jsonable_label(value: Any) -> Any:
    """Labels land in the digest/format via JSON; tuples (the pre-relabel
    grid/fat-tree node ids) are encoded unambiguously."""
    if isinstance(value, tuple):
        return {"t": [_jsonable_label(v) for v in value]}
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return {"r": repr(value)}


def from_edge_array(
    n: int,
    edges: np.ndarray,
    labels: Optional[Sequence[Any]] = None,
    node_attrs: Optional[Dict[int, Dict[str, Any]]] = None,
) -> CompactGraph:
    """Build a :class:`CompactGraph` from a ``(k, 2)`` int array of
    undirected edges over nodes ``0..n-1`` (either orientation, duplicates
    collapsed, self-loops rejected) — the vectorized assembly path every
    streaming builder funnels through."""
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        if edges.min() < 0 or edges.max() >= n:
            raise InvalidParameterError("edge endpoints out of range [0, n)")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise InvalidParameterError("self-loops are not allowed")
        # canonicalize u < v, dedupe via the encoded key, then symmetrize.
        lo = edges.min(axis=1)
        hi = edges.max(axis=1)
        keys = np.unique(lo * np.int64(n) + hi)
        lo, hi = keys // n, keys % n
        heads = np.concatenate([lo, hi])
        tails = np.concatenate([hi, lo]).astype(_indices_dtype(n))
        order = np.argsort(heads * np.int64(n) + tails, kind="stable")
        heads = heads[order]
        tails = tails[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
        graph = CompactGraph(
            indptr, tails, labels=labels, node_attrs=node_attrs, validate=False
        )
    else:
        graph = CompactGraph(
            np.zeros(n + 1, dtype=np.int64),
            np.empty(0, dtype=_indices_dtype(n)),
            labels=labels,
            node_attrs=node_attrs,
            validate=False,
        )
    return graph
