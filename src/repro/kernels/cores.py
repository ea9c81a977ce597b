"""Vectorized k-core decomposition over CSR arrays.

Core numbers (and hence the degeneracy, their maximum) are graph
invariants: any correct peeling produces the same values as networkx's
sequential min-degree algorithm, so :func:`core_numbers_csr` is free to
peel whole min-degree *layers* per pass instead of one vertex at a time.
:mod:`repro.graphs.properties` runs this one peel for every input — a
``CompactGraph`` as it is, a networkx graph interned — to get the
degeneracy and every k-core's Nash-Williams density for
``arboricity_bounds``.
"""

from __future__ import annotations

import numpy as np


def core_numbers_csr(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Exact core numbers of all nodes (int64), by cascading layer peel."""
    n = indptr.size - 1
    remaining = np.diff(indptr).astype(np.int64)
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    dst = indices.astype(np.int64, copy=False)
    k = 0
    while alive.any():
        k = max(k, int(remaining[alive].min()))
        newly = alive & (remaining <= k)
        while newly.any():
            core[newly] = k
            alive &= ~newly
            # shrink the edge set as endpoints die: each pass only
            # touches edges leaving the just-peeled layer.
            hit = newly[src]
            remaining -= np.bincount(dst[hit], minlength=n)
            keep = alive[src]
            src, dst = src[keep], dst[keep]
            newly = alive & (remaining <= k)
    return core
