"""The vector engine: CSR adjacency, batched inbox delivery, and an
event-driven fast path for sleep-hinted algorithms.

The reference scheduler pays O(n) per round: it rebuilds the pending-inbox
map, filters the running set, steps every non-halted node, and scans every
outbox — even in rounds where almost all nodes are idle. The workloads that
dominate this reproduction (color-class-scheduled reductions, the Lemma 5.1
request/reply merge, the Kuhn–Wattenhofer phases) are exactly that shape:
each round only one color class acts while every other node executes a
guaranteed no-op step.

``VectorEngine`` keeps the per-node :class:`~repro.local.node.Node` API
untouched but reorganizes the scheduler around three ideas:

* **CSR adjacency** — node ids are interned to dense integers once; the
  neighbor lists of all nodes live in one flat array sliced per node, so a
  run never touches networkx again after construction.
* **Batched delivery** — outboxes drain straight into the addressee's
  next-round inbox list; rounds swap buffers instead of rebuilding an
  n-entry dict, and only actual receivers are reset.
* **Event-driven stepping** — a node that called
  :meth:`~repro.local.node.Node.sleep_until` is stepped only when a message
  arrives for it or its wake round is reached. Skipped steps are guaranteed
  no-ops by the hint contract, so outputs, round counts, and per-round
  message profiles are identical to the reference engine (the parity suite
  enforces this for every registered algorithm). Per-round cost drops from
  O(n) to O(active + delivered messages).

**Kernel dispatch.** Every crash-free, untraced, bandwidth-untracked run
of an algorithm with a registered
:class:`~repro.kernels.program.ShardProgram` is handed to that program,
which replays the whole run as fused numpy ops over the CSR arrays and
returns the reference engine's exact ``RunResult``. The input is one CSR
view: a :class:`~repro.graphcore.CompactGraph` as it is, or an nx graph
interned once in ``graph.nodes()`` order — the pipelines' subgraphs,
star forests and line graphs with edge-tuple ids dispatch as well as
compact inputs. On an nx input the program's declared node-keyed extras
are remapped to dense ids and the outputs mapped back; whatever cannot
be remapped, and whatever the program declines, runs on the per-node
loop, disclosed through the ``kernel.fallback`` counter. Crash schedules
and bandwidth tracking observe per-node state and always take the loop.

Tracer runs are delegated to the reference engine: a tracer observes every
per-node event, which forces the O(n) loop anyway. The delegation is
announced with :class:`~repro.engine.base.EngineFallbackWarning` and the
returned result's ``engine`` field says ``"reference"`` — provenance
downstream (store rows, differential checks) never silently claims a
vector execution that did not happen.
"""

from __future__ import annotations

import time
import warnings
from typing import Any, Dict, List, Optional

import networkx as nx
import numpy as np

from repro import obs
from repro.engine.base import Engine, EngineFallbackWarning, note_engine_run
from repro.errors import RoundLimitExceeded, SimulationError
from repro.local.algorithm import Context, NodeAlgorithm
from repro.local.congest import estimate_payload_bits as _payload_bits
from repro.local.message import Message
from repro.local.network import DEFAULT_MAX_ROUNDS, RunResult
from repro.local.node import Node
from repro.local.trace import Tracer
from repro.types import NodeId

# Node scheduling states.
_AWAKE = 0
_SLEEPING = 1
_HALTED = 2


class _Interned:
    """An nx graph's ids interned to ``0..n-1`` in ``graph.nodes()`` order.

    Rows are read through ``graph.neighbors`` only: ``graph.degree`` and
    ``graph.edges`` cache a view that points back at the graph, and a
    transient subgraph caught in that cycle waits for the cyclic
    collector. ``neighbors``/``bounds`` keep the original neighbor ids for
    the per-node path; ``indptr``/``indices`` are the dense CSR a program
    runs over, built only when one reads them.
    """

    __slots__ = ("ids", "index", "neighbors", "bounds", "n", "m", "max_degree", "directed")

    def __init__(self, graph: nx.Graph):
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


class VectorEngine(Engine):
    """O(active + messages) per-round scheduler, parity-checked against
    :class:`~repro.engine.reference.ReferenceEngine`."""

    name = "vector"

    def _run_program(
        self,
        graph: Any,
        algorithm: NodeAlgorithm,
        extras: Optional[Dict[str, Any]],
        max_rounds: int,
    ) -> Optional[RunResult]:
        """The run replayed by the algorithm's registered
        :class:`~repro.kernels.program.ShardProgram` — fused numpy ops over
        the CSR arrays, a bit-for-bit replica of the per-node semantics
        (the compact-parity suite is the gate) — or None when there is no
        program or it declines, disclosed through ``kernel.fallback``."""
        from repro import kernels

        algo_name = getattr(algorithm, "name", None)
        kernel = kernels.get_kernel(algo_name)
        if kernel is None:
            return None
        try:
            with obs.span(f"kernel.{algo_name}", n=graph.n):
                if isinstance(graph, _Interned):
                    if graph.directed:
                        raise kernels.KernelUnsupported("directed graph")
                    # dense ids in, original ids out, both in graph order
                    dense = kernels.get_program(algo_name).intern_extras(
                        extras or {}, graph.ids, graph.index
                    )
                    result = kernel(graph, dense, max_rounds)
                    ids = graph.ids
                    result.outputs = {ids[i]: v for i, v in result.outputs.items()}
                else:
                    result = kernel(graph, dict(extras or {}), max_rounds)
        except kernels.KernelUnsupported as exc:
            # The decline reasons are stable short strings (see the
            # kernel modules), so they are usable as counter labels.
            obs.incr("kernel.fallback", kernel=algo_name, reason=str(exc))
            return None
        obs.incr("kernel.dispatch", kernel=algo_name)
        obs.incr("engine.runs", engine=self.name)
        obs.incr("engine.rounds", result.rounds, engine=self.name)
        obs.incr("engine.messages", result.messages, engine=self.name)
        result.engine = self.name
        return result

    def run(
        self,
        graph: nx.Graph,
        algorithm: NodeAlgorithm,
        extras: Optional[Dict[str, Any]] = None,
        max_rounds: Optional[int] = None,
        track_bandwidth: bool = False,
        crashes: Optional[Dict[NodeId, int]] = None,
        tracer: Optional[Tracer] = None,
    ) -> RunResult:
        if tracer is not None:
            # Tracing observes every step/send/halt; the reference loop is
            # the natural (and already-correct) host for it.
            from repro.engine.reference import ReferenceEngine

            obs.incr("engine.tracer_fallback")
            obs.incr("warnings.engine_fallback")
            warnings.warn(
                "VectorEngine delegates tracer runs to ReferenceEngine: "
                "results are identical, but this run executes on the "
                "reference scheduler (result.engine == 'reference')",
                EngineFallbackWarning,
                stacklevel=2,
            )
            return ReferenceEngine().run(
                graph,
                algorithm,
                extras=extras,
                max_rounds=max_rounds,
                track_bandwidth=track_bandwidth,
                crashes=crashes,
                tracer=tracer,
            )
        from repro.graphcore import CompactGraph

        note_engine_run(self.name)
        if max_rounds is None:
            max_rounds = DEFAULT_MAX_ROUNDS
        csr = graph if isinstance(graph, CompactGraph) else _Interned(graph)

        if not crashes and not track_bandwidth:
            # Crashing/bandwidth-tracked runs observe per-node, per-round
            # state no closed-form replay models, so they never dispatch.
            result = self._run_program(csr, algorithm, extras, max_rounds)
            if result is not None:
                return result

        n = csr.n
        if isinstance(csr, CompactGraph):
            # ---- The CSR arrays already exist (and the type guarantees no
            # self-loops); ids are the dense ints 0..n-1, so no interning
            # dict is needed — addressee ids *are* indices.
            adj = csr.adjacency_lists()
            ids = range(n)
            index = None
            nodes: List[Node] = [Node(i, adj[i]) for i in range(n)]
            unknown = {v for v in (crashes or {}) if not (isinstance(v, int) and 0 <= v < n)}
        else:
            ids = csr.ids
            index = csr.index
            flat, bounds = csr.neighbors, csr.bounds
            nodes = [Node(ids[i], tuple(flat[bounds[i] : bounds[i + 1]])) for i in range(n)]
            unknown = set(crashes or {}) - set(index)
        ctx = Context(n=n, max_degree=csr.max_degree, extras=dict(extras or {}))

        crashes = crashes or {}
        if unknown:
            raise SimulationError(f"crash schedule names unknown nodes {unknown!r}")

        # ---- Round 0: initialize everyone, collect the first wave.
        for node in nodes:
            algorithm.initialize(node, ctx)

        # inbox_next[i] holds messages to deliver to node i next round;
        # recv_next lists the i with a non-empty inbox_next (no duplicates).
        inbox_next: List[List[Message]] = [[] for _ in range(n)]
        recv_next: List[int] = []
        max_bits = 0

        def collect(sources: List[int]) -> int:
            """Drain outboxes of ``sources`` (ascending order = the graph
            order the reference engine drains in) into next-round inboxes."""
            nonlocal max_bits
            count = 0
            for i in sources:
                out = nodes[i].drain_outbox()
                if not out:
                    continue
                sender = ids[i]
                for nbr, payload in out.items():
                    j = nbr if index is None else index[nbr]
                    box = inbox_next[j]
                    if not box:
                        recv_next.append(j)
                    box.append(Message(sender=sender, payload=payload))
                    count += 1
                    if track_bandwidth:
                        bits = _payload_bits(payload)
                        if bits > max_bits:
                            max_bits = bits
            return count

        in_flight = collect(list(range(n)))
        messages = in_flight

        # ---- Scheduling state. ``awake`` is the set of nodes stepped every
        # round; ``awake_sorted`` caches its graph-order iteration and is
        # rebuilt only when membership changes (``dirty``).
        status = [_AWAKE] * n
        wake_sched = [0] * n  # bucket round a SLEEPING node is filed under
        buckets: Dict[int, List[int]] = {}
        awake: set = set()
        halted_count = 0
        for i, node in enumerate(nodes):
            if node.halted:
                status[i] = _HALTED
                halted_count += 1
            elif node.wake_round > 0:
                status[i] = _SLEEPING
                wake_sched[i] = node.wake_round
                buckets.setdefault(node.wake_round, []).append(i)
            else:
                awake.add(i)
        awake_sorted: List[int] = sorted(awake)
        dirty = False

        rounds = 0
        round_messages: List[int] = []
        crashed: set = set()

        # Instrumentation is resolved once per run: ``rt is None`` (the
        # default) keeps the round loop untouched; with a runtime the loop
        # times its step/delivery phases and counts the sleep-hint skips
        # (non-halted nodes the event-driven scheduler did not step).
        rt = obs.active()
        steps_total = 0
        sleep_skips = 0

        while True:
            if halted_count == n:
                break
            if rounds >= max_rounds:
                raise RoundLimitExceeded(max_rounds, n - halted_count)
            rounds += 1
            for node_id, crash_round in crashes.items():
                if crash_round == rounds and node_id not in crashed:
                    crashed.add(node_id)
                    i = node_id if index is None else index[node_id]
                    if status[i] != _HALTED:
                        nodes[i].halt()
                        status[i] = _HALTED
                        halted_count += 1
                        awake.discard(i)
                        dirty = True
            if halted_count == n:
                break
            round_messages.append(in_flight)

            # Promote sleepers whose wake round arrived.
            due = buckets.pop(rounds, None)
            if due:
                for i in due:
                    if status[i] == _SLEEPING and wake_sched[i] == rounds:
                        status[i] = _AWAKE
                        awake.add(i)
                        dirty = True

            # This round's deliveries: swap out the accumulated buffers.
            mail: Dict[int, List[Message]] = {}
            sleeping_mail = False
            if recv_next:
                for j in recv_next:
                    mail[j] = inbox_next[j]
                    inbox_next[j] = []
                    if status[j] == _SLEEPING:
                        sleeping_mail = True
                recv_next = []

            # Step set = awake nodes plus sleeping nodes with mail, in the
            # graph order the reference engine iterates in.
            if dirty:
                awake_sorted = sorted(awake)
                dirty = False
            if sleeping_mail:
                stepped = sorted(
                    awake.union(j for j in mail if status[j] == _SLEEPING)
                )
            else:
                stepped = awake_sorted

            if rt is not None:
                steps_total += len(stepped)
                sleep_skips += (n - halted_count) - len(stepped)
                phase_started = time.perf_counter()

            for i in stepped:
                node = nodes[i]
                inbox = mail.get(i)
                if inbox is None:
                    inbox = []
                node.inbox = inbox
                algorithm.step(node, inbox, rounds, ctx)

            if rt is not None:
                step_ms = (time.perf_counter() - phase_started) * 1000.0
                rt.observe("engine.vector.step_ms", step_ms)
                phase_started = time.perf_counter()

            # Reconcile scheduling state, then collect this round's sends
            # (same delivery code as round 0, same ascending drain order).
            for i in stepped:
                node = nodes[i]
                if node.halted:
                    if status[i] != _HALTED:
                        status[i] = _HALTED
                        halted_count += 1
                        awake.discard(i)
                        dirty = True
                elif node.wake_round > rounds:
                    if status[i] == _AWAKE:
                        awake.discard(i)
                        dirty = True
                    status[i] = _SLEEPING
                    if wake_sched[i] != node.wake_round:
                        wake_sched[i] = node.wake_round
                        buckets.setdefault(node.wake_round, []).append(i)
                elif status[i] == _SLEEPING:
                    # Hint expired (or was cleared) while dozing on mail.
                    status[i] = _AWAKE
                    awake.add(i)
                    dirty = True
            in_flight = collect(stepped)
            messages += in_flight
            if rt is not None:
                deliver_ms = (time.perf_counter() - phase_started) * 1000.0
                rt.observe("engine.vector.deliver_ms", deliver_ms)
                if rt.trace is not None:
                    rt.emit(
                        "point",
                        "engine.round",
                        engine=self.name,
                        round=rounds,
                        stepped=len(stepped),
                        sent=in_flight,
                        step_ms=round(step_ms, 3),
                        deliver_ms=round(deliver_ms, 3),
                    )

        if rt is not None:
            rt.incr("engine.runs", engine=self.name)
            rt.incr("engine.rounds", rounds, engine=self.name)
            rt.incr("engine.messages", messages, engine=self.name)
            rt.incr("engine.steps", steps_total, engine=self.name)
            rt.incr("engine.sleep_skips", sleep_skips, engine=self.name)
        outputs = {ids[i]: algorithm.output(nodes[i]) for i in range(n)}
        return RunResult(
            rounds=rounds,
            messages=messages,
            outputs=outputs,
            round_messages=round_messages,
            max_message_bits=max_bits,
            crashed=frozenset(crashed),
            engine=self.name,
        )
