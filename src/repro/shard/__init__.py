"""Sharded out-of-core execution for ``.csrg`` graphs.

The LOCAL model's synchronous rounds make cross-shard communication a
natural bulk-synchronous exchange: partition the node ids into
contiguous ranges, give every shard its own CSR slice plus a
halo/boundary sideband, run the algorithm's round program locally per
shard, and merge neighbor state across shards once per round through a
coordinator. The result is bit-identical to the unsharded engines — the
programs (:mod:`repro.kernels.program`) are the same array code the
vector engine runs over the whole graph as a single shard — while each
worker only ever touches its own memory-mapped slice, so peak
per-process RSS is bounded by the shard size, not the graph size.

Layering:

* :mod:`repro.shard.partition` — the contiguous id-range partitioner,
  the ``.csrs`` shard file format (strictly size-validated at open, like
  ``.csrg``), the bundle manifest, and :class:`ShardBundle`.
* :mod:`repro.shard.runtime` — the BSP coordinator, the persistent
  per-shard worker pool (processes or inline), checkpoint/resume, and
  the :func:`sharding` scope that
  :func:`~repro.local.network.run_on_graph` consults.

Every registered kernel is a program (:func:`kernel_names`), so every
kernel shards — cross-merge only on shards with an empty halo, since its
multi-valued exchange does not fit the scalar halo exchange. Algorithms
without a program (centralized baselines), runs on graphs other than
the partitioned parent, and inputs a program declines transparently fall
through to the normal engine path (the vector engine runs the
whole-graph program or delegates to the reference); every such
fallthrough is disclosed through the ``shard.fallback`` counter, so a
campaign can never silently claim sharded execution it did not get.
"""

from repro.kernels import get_program, kernel_names
from repro.shard.partition import (
    ShardBundle,
    load_shard,
    partition,
)
from repro.shard.runtime import ShardingScope, sharding

__all__ = [
    "ShardBundle",
    "ShardingScope",
    "get_program",
    "kernel_names",
    "load_shard",
    "partition",
    "sharding",
]
