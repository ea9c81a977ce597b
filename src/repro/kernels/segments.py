"""Shared CSR segment helpers for the round kernels.

Everything here is pure numpy over the ``indptr``/``indices`` arrays of a
:class:`~repro.graphcore.CompactGraph`. The helpers encode the two
conventions every kernel leans on:

* **Directed-edge view.** ``edge_endpoints`` expands the CSR arrays into
  parallel ``src``/``dst`` arrays of all ``2m`` directed edges — the
  natural shape for "gather neighbor state" (``state[dst]``) and
  "scatter per-node aggregates" (``np.bincount(src, ...)``).
* **Strict input coercion.** ``dense_int_table`` converts the per-node
  input dicts the :class:`~repro.local.algorithm.Context` carries into a
  dense int64 vector *only* when the dict is exactly a total map from the
  dense node ids to machine ints. Anything else —
  missing nodes, alias-prone key types (``2.0`` hashes like ``2``),
  values outside int64 — raises :class:`~repro.kernels.KernelUnsupported`
  so the per-node path keeps authority over exotic inputs and their
  exact error behavior.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

from repro.kernels import KernelUnsupported
from repro.kernels.program import DenseExtra


def edge_endpoints(graph: Any) -> Tuple[np.ndarray, np.ndarray]:
    """All directed edges of the CSR rows as ``(src, dst)`` int64 arrays,
    in row order (the order the engines drain outboxes in). On a graph
    these are all ``2m`` edges; on a shard, the owned rows' edges, whose
    destinations may be halo local ids."""
    indptr = np.asarray(graph.indptr)
    src = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    dst = np.asarray(graph.indices).astype(np.int64, copy=False)
    return src, dst


def dense_int_table(table: Any, n: int) -> np.ndarray:
    """Coerce a node->int dict over exactly the dense ids ``0..n-1`` to an
    int64 vector; raise :class:`KernelUnsupported` for anything looser.
    A table the engine already interned passes through as is."""
    if type(table) is DenseExtra:
        return table.values
    if not isinstance(table, dict) or len(table) != n:
        raise KernelUnsupported("per-node table is not a total dense map")
    for k, v in table.items():
        # bools hash like 0/1 and floats like 2.0 hash like 2 — a dict
        # using them serves the same lookups but defeats vectorized
        # bounds checking; float *values* would silently truncate where
        # the per-node arithmetic keeps them float. Decline both.
        if type(k) is not int or type(v) is not int:
            raise KernelUnsupported("non-int node key or value")
    try:
        keys = np.fromiter(table.keys(), dtype=np.int64, count=n)
        values = np.fromiter(table.values(), dtype=np.int64, count=n)
    except (TypeError, ValueError, OverflowError):
        raise KernelUnsupported("table not coercible to int64")
    if n and (keys.min() < 0 or keys.max() >= n):
        raise KernelUnsupported("node key out of range")
    if n and np.bincount(keys, minlength=n).max() != 1:
        raise KernelUnsupported("duplicate node keys")
    out = np.empty(n, dtype=np.int64)
    out[keys] = values
    return out


def require_int(value: Any) -> int:
    """The value as a plain int, or :class:`KernelUnsupported`."""
    if type(value) is not int:
        raise KernelUnsupported("expected a plain int extra")
    return value


def segment_gather(
    indptr: np.ndarray, indices: np.ndarray, members: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The concatenated neighbor lists of ``members``.

    Returns ``(neighbors, owner)`` where ``owner[j]`` is the position in
    ``members`` whose adjacency row ``neighbors[j]`` came from — the
    standard repeat/cumsum CSR gather, no Python loop over members.
    """
    starts = indptr[members]
    counts = indptr[members + 1] - starts
    owner = np.repeat(np.arange(members.size, dtype=np.int64), counts)
    # slot j reads indices[starts[r] + j - (first slot of row r)], r = owner[j]
    shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
    neighbors = indices[np.arange(owner.size, dtype=np.int64) + shift]
    return neighbors.astype(np.int64, copy=False), owner


def repr_rank_order(n: int) -> np.ndarray:
    """The dense ids ``0..n-1`` sorted by ``repr`` — i.e. the vectorized
    twin of ``sorted(range(n), key=repr)`` (decimal strings compare by
    code point exactly like numpy's unicode dtype)."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # the narrowest unicode width that holds n - 1: ``astype(str)`` pads
    # every id to 21 code points, 3.5x the bytes at a million nodes
    digits = np.arange(n).astype(f"U{len(str(n - 1))}")
    return np.argsort(digits, kind="stable").astype(np.int64)


def repr_sorted_nodes(graph: Any) -> list:
    """``sorted(graph.nodes(), key=repr)``, vectorized for compact graphs.

    The default initial colorings (Linial, Cole-Vishkin, defective) all
    rank nodes by repr; at a million nodes the Python sort costs more
    than the kernel round it feeds, so a ``CompactGraph``, whose nodes
    are the dense ids, takes the argsort path. Any other graph — an
    :class:`~repro.graphcore.Interned` view included — ranks its own ids.
    """
    from repro.graphcore.compact import CompactGraph

    if isinstance(graph, CompactGraph):
        return repr_rank_order(graph.n).tolist()
    return sorted(graph.nodes(), key=repr)
