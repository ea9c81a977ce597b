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

A program runs over dense ids ``0..n-1`` and sees only arrays. Node ids
cross into and out of array code in this module alone, for both callers
— the whole-graph kernel (:meth:`ShardProgram.run`) on a
``CompactGraph`` or an :class:`~repro.graphcore.Interned` view, and the
sharded runtime on its partitioned parent: :func:`node_space` gives the
graph's ids in dense order and its node lookup,
:meth:`ShardProgram.intern_extras` reads the extras the class declares
node-keyed (``node_keyed``, ``node_valued``) into dense int64 vectors by
lookup, exactly as the per-node ``Context.node_input`` reads them, and
:func:`outputs_by_id` keys the dense outputs ``result`` returns by the
ids, once. So a table takes the same path on every graph form: the
program, or the same decline.

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

import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphcore.compact import CompactGraph
from repro.kernels import KernelUnsupported
from repro.local.network import RunResult

#: Whole-graph runs over at least this many directed edges hand their
#: freed heap back before building the outputs; smaller ones free too
#: little to be worth a trim.
TRIM_EDGES = 1 << 18


def release_heap() -> None:
    """Hand the memory glibc's heap holds free back to the OS (a no-op
    off glibc).

    Once glibc has freed one multi-MB array it serves the next ones from
    its heap and keeps them there when they are freed. The Python objects
    built next (a million-entry outputs dict, the verifier's sets) live in
    mmapped arenas that cannot reuse that memory, so they stack on top of
    it, and how much of it is still there depends on the heap's layout:
    the same 1M-node Linial cell peaked 388 MB in one run and 419 MB in
    the next. The campaign runner trims after a cell's build and after
    each inline cell, and a large whole-graph run trims before building
    its outputs; a trim costs a few ms after a million-node phase."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


@functools.lru_cache(maxsize=None)
def _malloc_trim() -> Optional[Callable[[int], int]]:
    import ctypes

    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc
        return None


def node_space(graph: Any) -> Tuple[Sequence[Any], Callable[[Any], Optional[int]]]:
    """``graph``'s node ids in dense order and its node lookup: a node id
    to its dense id, None for anything that is not a node (an unhashable
    value included).

    A ``CompactGraph``'s ids are the dense ids, and its lookup answers
    exactly as a dict over them (its int-id twin's index) would: a key
    hash-equal to node ``i`` — ``2.0``, ``True``, a numpy integer — is
    node ``i``. It answers arithmetically (an int below ``2**61 - 1`` is
    its own hash), so no million-entry identity index is ever built. An
    :class:`~repro.graphcore.Interned` view looks ids up in its index,
    which only a node map or cross-merge's partners ever need; a
    directed view is declined, since programs read symmetric rows."""
    if isinstance(graph, CompactGraph):
        n = graph.n

        def lookup(v: Any) -> Optional[int]:
            try:
                h = hash(v)
            except TypeError:
                return None
            return h if 0 <= h < n and v == h else None

        return graph.nodes(), lookup
    if graph.directed:
        raise KernelUnsupported("directed graph")

    def lookup(v: Any) -> Optional[int]:
        try:
            return graph.index.get(v)  # built on first use, then kept
        except TypeError:
            return None

    return graph.ids, lookup


def outputs_by_id(result: RunResult, ids: Sequence[Any]) -> RunResult:
    """``result`` with its dense-order outputs (an array or a list, as
    ``result`` and the short-circuits of ``plan`` return them) keyed by
    ``ids``: the one place outputs leave array code."""
    outputs = result.outputs
    if isinstance(outputs, np.ndarray):
        outputs = outputs.tolist()
    result.outputs = dict(zip(ids, outputs))
    return result


_NOT_TOTAL = "per-node table is not a total dense map"


def _intern_table(table: Any, ids: Sequence[Any]) -> np.ndarray:
    """A node -> int table as an int64 vector in ``ids`` order. Entries
    are read by lookup, exactly as the per-node ``Context.node_input``
    reads them; a table that is not a total map to machine ints is
    declined (floats and bools would compute differently per node)."""
    if not isinstance(table, dict) or len(table) != len(ids):
        raise KernelUnsupported(_NOT_TOTAL)
    values = list(map(table.get, ids))
    if set(map(type, values)) != {int}:
        # only to name the decline: a missing node or a non-int value
        for v, value in zip(ids, values):
            if value is None and v not in table:
                raise KernelUnsupported(_NOT_TOTAL)
            if type(value) is not int:
                raise KernelUnsupported("non-int node key or value")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise KernelUnsupported("table not coercible to int64")


def _intern_node_map(
    mapping: Any, ids: Sequence[Any], lookup: Callable[[Any], Optional[int]]
) -> np.ndarray:
    """A node -> node map (``None`` or absent for a root) as dense ids in
    ``ids`` order, ``-1`` for roots; declined unless every value it gives
    a node is a node of the graph. Keys that are not nodes are never
    read, as on the per-node path."""
    if not isinstance(mapping, dict):
        raise KernelUnsupported("parent map is not a dict")
    dense = [-1 if target is None else lookup(target) for target in map(mapping.get, ids)]
    if None in dense:
        raise KernelUnsupported("parent outside the graph")
    return np.array(dense, dtype=np.int64)


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
        self,
        extras: Dict[str, Any],
        ids: Sequence[Any],
        lookup: Callable[[Any], Optional[int]],
    ) -> Dict[str, Any]:
        """``extras`` for the graph whose node ``ids[i]`` has dense id
        ``i`` (``lookup`` inverts ``ids``): the declared node-keyed
        extras become int64 vectors in dense order, everything else
        passes as is. Raises :class:`KernelUnsupported` for a table the
        per-node path reads differently."""
        out = dict(extras)
        for key in self.node_keyed:
            if key in out:
                out[key] = _intern_table(out[key], ids)
        for key in self.node_valued:
            if key in out:
                out[key] = _intern_node_map(out[key], ids, lookup)
        return out

    def run(self, graph: Any, extras: Dict[str, Any], max_rounds: int) -> RunResult:
        """The whole-graph kernel on a ``CompactGraph`` or an ``Interned``
        view: this program over one shard with an empty halo — no
        partition files, pool, exchange or checkpoint — with the extras
        interned and the outputs keyed by node id."""
        ids, lookup = node_space(graph)
        manifest = {"n": graph.n, "m": graph.m, "max_degree": graph.max_degree}
        plan, short = self.plan(
            manifest, self.intern_extras(extras, ids, lookup), max_rounds
        )
        if short is not None:
            return outputs_by_id(short, ids)
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
        outputs = self.finalize(view, state)
        del state
        if 2 * graph.m >= TRIM_EDGES:
            release_heap()
        return outputs_by_id(self.result(plan, outputs, manifest), ids)

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
        """The run's ``RunResult`` with its outputs in dense order, as
        ``plan``'s short-circuit results carry them."""
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
