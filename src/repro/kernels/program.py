"""Round programs: the one array implementation of a synchronous LOCAL
procedure, runnable over a whole graph or shard by shard.

In a synchronous LOCAL round every node applies the same function to its
neighbors' states — a bulk-synchronous vertex program. A program states
that function once, over one *shard*: a contiguous range of owned nodes
with its local CSR slice, plus a halo of foreign neighbors whose state
arrives by exchange. A whole-graph run is the same program over a single
shard that owns every node and has an empty halo, so the vector engine's
kernel path and the sharded runtime (:mod:`repro.shard.runtime`) execute
identical array code.

A program has two halves:

* the **coordinator** half plans the run from globally known inputs (a
  manifest with ``n``, ``m`` and ``max_degree``, plus the algorithm
  extras), decides after every round whether to continue, produces the
  closed-form round/message accounting, and raises the per-node
  semantics' authentic errors — same type, same message — from the
  per-shard stats.
* the **worker** half holds the per-shard state (a dict of numpy arrays,
  which is also the sharded runtime's checkpoint payload) and executes
  one array pass per step over the local CSR slice, indexed by owned
  local ids. A step is usually one round; a class sweep steps once per
  round in which some color class re-picks, and the coordinator
  accounts for the idle rounds in closed form.

A program runs over dense ids ``0..n-1``. Its extras are node-keyed
only where the class says so (``node_keyed``, ``node_valued``); for a
graph with other ids the engine interns exactly those extras to dense
int64 vectors with :meth:`ShardProgram.intern_extras`, and maps the
outputs back.

Inputs a program cannot reproduce exactly (exotic extras, palettes
outside its vectorized range) raise
:class:`~repro.kernels.KernelUnsupported` from ``plan``; the caller
falls back (the vector engine to the reference scheduler, the sharded
runtime to the engine), disclosed through ``kernel.fallback`` or
``shard.fallback``. A decline only the CSR can detect (a parent that
is not a neighbor) is reported by the worker as ``decline`` in its
``init_state`` stats, and the caller falls back before the first round.
Worker-side failures the per-node semantics define (an uncovered
evaluation point in Linial's refinement, no free color in a re-pick)
travel in the step stats, and the coordinator raises them from its own
frame, so a sharded run reports one authentic exception, never a pool
error.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import KernelUnsupported
from repro.local.network import RunResult


class DenseExtra:
    """A node-keyed extra already interned to dense ids: ``values[i]`` is
    the entry of the node with dense id ``i`` (``-1`` for a root in a
    node-valued map). Only :meth:`ShardProgram.intern_extras` builds one,
    so no caller-supplied extra is ever mistaken for it."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        self.values = values


def _intern_table(table: Any, ids: Sequence[Any]) -> DenseExtra:
    """A node -> int table as a dense int64 vector in ``ids`` order,
    declined with the reasons :func:`~repro.kernels.segments.dense_int_table`
    gives a compact graph's table. Entries are read by lookup, exactly as
    the per-node ``Context.node_input`` reads them."""
    if not isinstance(table, dict) or len(table) != len(ids):
        raise KernelUnsupported("per-node table is not a total dense map")
    values = list(map(table.get, ids))
    for v, value in zip(ids, values):
        if type(value) is not int:
            if value is None and v not in table:
                raise KernelUnsupported("per-node table is not a total dense map")
            raise KernelUnsupported("non-int node key or value")
    try:
        return DenseExtra(np.array(values, dtype=np.int64))
    except OverflowError:
        raise KernelUnsupported("table not coercible to int64")


def _intern_node_map(mapping: Any, ids: Sequence[Any], index: Dict[Any, int]) -> DenseExtra:
    """A node -> node map (``None`` or absent for a root) as dense ids in
    ``ids`` order, ``-1`` for roots; declined unless every listed value
    is a node of the graph."""
    if not isinstance(mapping, dict):
        raise KernelUnsupported("parent map is not a dict")
    out = np.full(len(ids), -1, dtype=np.int64)
    for i, v in enumerate(ids):
        target = mapping.get(v)
        if target is None:
            continue
        try:
            out[i] = index[target]
        except (KeyError, TypeError):
            raise KernelUnsupported("parent outside the graph")
    return DenseExtra(out)


def local_values(shard: Any, own: np.ndarray, halo: Any) -> np.ndarray:
    """Owned values followed by the halo values, indexed by local id."""
    if not shard.n_halo:
        return own
    return np.concatenate([own, np.asarray(halo, dtype=own.dtype)])


class WholeGraph:
    """A graph as one shard: owns ids ``0..n-1``, empty halo and
    boundary, the graph's own ``indptr``/``indices``."""

    lo = 0
    n_halo = 0
    halo = boundary = np.empty(0, dtype=np.int64)

    def __init__(self, graph: Any):
        self.n_own = self.hi = graph.n
        self.indptr = graph.indptr
        self.indices = graph.indices


class ShardProgram:
    """Protocol base. Coordinator methods take/return JSON-able ``acc``
    state inside ``plan`` (plus numpy planning arrays that are
    reconstructed deterministically on resume); worker methods exchange
    dict-of-ndarray state."""

    name: str = ""
    #: extras mapping node ids to ints (a coloring)
    node_keyed: Tuple[str, ...] = ()
    #: extras mapping node ids to node ids (a parent map)
    node_valued: Tuple[str, ...] = ()

    def intern_extras(
        self, extras: Dict[str, Any], ids: Sequence[Any], index: Dict[Any, int]
    ) -> Dict[str, Any]:
        """``extras`` for the graph whose node ``ids[i]`` has dense id
        ``i`` (``index`` inverts ``ids``): the declared node-keyed extras
        become :class:`DenseExtra` vectors, everything else passes as is.
        Raises :class:`KernelUnsupported` for a table the per-node path
        reads differently."""
        out = dict(extras)
        for key in self.node_keyed:
            if key in out:
                out[key] = _intern_table(out[key], ids)
        for key in self.node_valued:
            if key in out:
                out[key] = _intern_node_map(out[key], ids, index)
        return out

    def run(self, graph: Any, extras: Dict[str, Any], max_rounds: int) -> RunResult:
        """The whole-graph kernel: this program over one shard with an
        empty halo — no partition files, pool, exchange or checkpoint."""
        manifest = {"n": graph.n, "m": graph.m, "max_degree": graph.max_degree}
        plan, short = self.plan(manifest, extras, max_rounds)
        if short is not None:
            return short
        view = WholeGraph(graph)
        no_halo = np.empty(0, dtype=np.int64)
        state, stats = self.init_state(view, self.init_payload(plan, view))
        if "decline" in stats:
            raise KernelUnsupported(stats["decline"])
        completed = 0
        arg = self.next_action(plan, completed, [stats])
        while arg is not None:
            stats = self.step(view, state, no_halo, arg)
            completed += 1
            arg = self.next_action(plan, completed, [stats])
        return self.result(plan, self.finalize(view, state), manifest)

    # ---- coordinator half -------------------------------------------------
    def plan(
        self, manifest: Dict[str, Any], extras: Dict[str, Any], max_rounds: int
    ) -> Tuple[Dict[str, Any], Optional[RunResult]]:
        raise NotImplementedError

    def init_payload(self, plan: Dict[str, Any], shard: Any) -> Dict[str, Any]:
        raise NotImplementedError

    def next_action(
        self, plan: Dict[str, Any], completed: int, stats: List[Dict[str, Any]]
    ) -> Optional[Any]:
        raise NotImplementedError

    def result(
        self, plan: Dict[str, Any], outputs: np.ndarray, manifest: Dict[str, Any]
    ) -> RunResult:
        raise NotImplementedError

    def fingerprint(self, plan: Dict[str, Any]) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(self.name.encode())
        h.update(repr(plan.get("print_key", "")).encode())
        for arr in plan.get("print_arrays", ()):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    # ---- worker half ------------------------------------------------------
    def init_state(
        self, shard: Any, payload: Dict[str, Any]
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        raise NotImplementedError

    def boundary(self, shard: Any, state: Dict[str, np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def step(
        self,
        shard: Any,
        state: Dict[str, np.ndarray],
        halo_vals: np.ndarray,
        arg: Any,
    ) -> Dict[str, Any]:
        raise NotImplementedError

    def finalize(self, shard: Any, state: Dict[str, np.ndarray]) -> np.ndarray:
        raise NotImplementedError
