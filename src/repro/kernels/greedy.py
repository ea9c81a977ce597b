"""CSR first-fit greedy sweeps for the centralized baselines.

Greedy coloring is inherently sequential — each pick depends on every
earlier pick — so these are *sweep* kernels, not round kernels: the win
comes from (a) computing the repr sweep order vectorized instead of
sorting a million Python objects, and (b) running the first-fit loop
over flat CSR arrays with a stamp-array palette instead of per-node
Python sets; the loop itself runs over plain Python lists.

Both sweeps reproduce the baseline implementations in
:mod:`repro.baselines.greedy` bit-for-bit: same order (ids sorted by
``repr``; edges by the repr pair), same first-fit rule, same dict
insertion order.
"""

from __future__ import annotations

# repro-check: file ok pure-kernel-node-loop — greedy first-fit is inherently
# sequential (each pick depends on every earlier pick); the sweep loops here
# are the algorithm, not accidental per-node dispatch

from typing import Any, Dict, Tuple

import numpy as np

from repro.kernels.segments import repr_rank_order


def _vertex_sweep(indptr, indices, order, limit: int):
    n = len(indptr) - 1
    colors = [-1] * n
    stamp = [-1] * (limit + 2)
    for v in order:
        for j in range(indptr[v], indptr[v + 1]):
            c = colors[indices[j]]
            if c >= 0:
                stamp[c] = v
        c = 0
        while stamp[c] == v:
            c += 1
        colors[v] = c
    return colors


def greedy_vertex_compact(graph: Any) -> Dict[int, int]:
    """First-fit vertex coloring of a CompactGraph in repr order —
    the vectorized twin of ``greedy_vertex_coloring``'s default sweep."""
    n = graph.n
    order = repr_rank_order(n)
    limit = graph.max_degree + 1
    colors = _vertex_sweep(
        graph.indptr.tolist(), graph.indices.tolist(), order.tolist(), limit
    )
    order_list = order.tolist()
    return dict(zip(order_list, (colors[v] for v in order_list)))


def _sorted_edge_arrays(graph: Any) -> Tuple[np.ndarray, np.ndarray]:
    """Each undirected edge once as ``(u, v)`` with ``u < v``, sorted by
    the repr pair — the baseline's edge sweep order, computed without
    materializing tuples."""
    src = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.indptr))
    dst = graph.indices.astype(np.int64, copy=False)
    keep = src < dst
    e_u, e_v = src[keep], dst[keep]
    rank = np.empty(graph.n, dtype=np.int64)
    rank[repr_rank_order(graph.n)] = np.arange(graph.n, dtype=np.int64)
    idx = np.lexsort((rank[e_v], rank[e_u]))
    return e_u[idx], e_v[idx]


def greedy_edge_compact(graph: Any) -> Dict[Tuple[int, int], int]:
    """First-fit edge coloring of a CompactGraph — the vectorized twin of
    ``greedy_edge_coloring``'s default sweep."""
    e_u, e_v = _sorted_edge_arrays(graph)
    u_list, v_list = e_u.tolist(), e_v.tolist()
    incident = [set() for _ in range(graph.n)]
    coloring: Dict[Tuple[int, int], int] = {}
    for u, v in zip(u_list, v_list):
        used_u, used_v = incident[u], incident[v]
        color = 0
        while color in used_u or color in used_v:
            color += 1
        coloring[(u, v)] = color
        used_u.add(color)
        used_v.add(color)
    return coloring
