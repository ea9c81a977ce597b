"""Shared CSR segment helpers for the round kernels.

Everything here is pure numpy over the ``indptr``/``indices`` arrays of a
:class:`~repro.graphcore.CompactGraph` or a shard. The central
convention every kernel leans on is the **directed-edge view**:
``edge_endpoints`` expands the CSR arrays into parallel ``src``/``dst``
arrays of all ``2m`` directed edges — the natural shape for "gather
neighbor state" (``state[dst]``) and "scatter per-node aggregates"
(``np.bincount(src, ...)``). Node-keyed inputs never reach these
helpers as dicts: :mod:`repro.kernels.program` interns them first.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

from repro.kernels import KernelUnsupported

#: Cap on a program's (nodes x palette) bool mask; inputs past it run on
#: the reference scheduler rather than risk a memory spike.
MAX_MASK_CELLS = 64_000_000


def edge_endpoints(graph: Any) -> Tuple[np.ndarray, np.ndarray]:
    """All directed edges of the CSR rows as ``(src, dst)`` int64 arrays,
    in row order (the order the engines drain outboxes in). On a graph
    these are all ``2m`` edges; on a shard, the owned rows' edges, whose
    destinations may be halo local ids."""
    indptr = np.asarray(graph.indptr)
    src = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    dst = np.asarray(graph.indices).astype(np.int64, copy=False)
    return src, dst


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


def local_ids(shard: Any, gids: np.ndarray) -> np.ndarray:
    """Global node ids as ``shard``'s local ids: -1 for a negative id (a
    root's parent) and for nodes the shard neither owns nor sees in its
    halo."""
    own = (gids >= shard.lo) & (gids < shard.hi)
    local = np.where(own, gids - shard.lo, -1)
    halo = np.asarray(shard.halo)
    if halo.size:
        pos = np.searchsorted(halo, gids)
        seen = ~own & (pos < halo.size)
        seen[seen] = halo[pos[seen]] == gids[seen]
        local[seen] = shard.n_own + pos[seen]
    return local


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
