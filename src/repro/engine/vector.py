"""The vector engine: a registered program, or the reference scheduler.

A run either dispatches to the algorithm's registered
:class:`~repro.kernels.program.ShardProgram`, which replays the whole run
as fused numpy ops over the CSR arrays and returns the reference
engine's exact ``RunResult``, or it is delegated to
:class:`~repro.engine.reference.ReferenceEngine`. There is one array
code path per run and one per-node scheduler, the spec.

**Dispatch.** The input is one CSR view: a
:class:`~repro.graphcore.CompactGraph` or a
:class:`~repro.graphcore.Interned` as it is, or an nx graph interned once
in ``graph.nodes()`` order — the pipelines' subgraphs, star forests and
line graphs with edge-tuple ids dispatch as well as compact inputs, and
the coloring oracle hands every pass of one call the same view. The
engine hands the view and the raw extras to the kernel; the node-keyed
extras cross into dense arrays and the outputs back to node ids in
:mod:`repro.kernels.program`, the same way for every view.

**Delegation.** Algorithms with no program and inputs a program
declines (disclosed through ``kernel.fallback``) have no array path.
Both run on the reference scheduler, announced with
:class:`~repro.engine.base.EngineFallbackWarning` and an
``engine.fallback[reason=...]`` counter (``no-program`` or
``declined``), and the returned result's ``engine`` field says
``"reference"`` — provenance downstream (store rows, differential
checks) never silently claims a vector execution that did not happen.
"""

from __future__ import annotations

import time
import warnings
from typing import Any, Dict, Optional

import networkx as nx

from repro import obs
from repro.engine.base import (
    Engine,
    EngineFallbackWarning,
    note_engine_run,
    note_run_result,
)
from repro.errors import SimulationError
from repro.local.algorithm import NodeAlgorithm
from repro.local.network import DEFAULT_MAX_ROUNDS, RunResult


class VectorEngine(Engine):
    """Runs registered programs over CSR arrays and delegates everything
    else to :class:`~repro.engine.reference.ReferenceEngine`."""

    name = "vector"

    def _run_program(
        self,
        kernel: Any,
        graph: Any,
        algorithm: NodeAlgorithm,
        extras: Optional[Dict[str, Any]],
        max_rounds: Optional[int],
    ) -> Optional[RunResult]:
        """The run replayed by the algorithm's registered program — a
        bit-for-bit replica of the per-node semantics (the compact-parity
        suite is the gate) — or None when the program declines,
        disclosed through ``kernel.fallback``."""
        from repro import kernels
        from repro.graphcore import CompactGraph, Interned

        algo_name = algorithm.name
        started = time.perf_counter()
        csr = graph if isinstance(graph, (CompactGraph, Interned)) else Interned(graph)
        if isinstance(csr, Interned) and csr.loops:
            raise SimulationError("self-loops are not allowed in LOCAL networks")
        try:
            with obs.span(f"kernel.{algo_name}", n=csr.n):
                program_started = time.perf_counter()
                result = kernel(
                    csr, extras or {}, DEFAULT_MAX_ROUNDS if max_rounds is None else max_rounds
                )
                program_s = time.perf_counter() - program_started
        except kernels.KernelUnsupported as exc:
            # The decline reasons are stable short strings (see the
            # kernel modules), so they are usable as counter labels.
            obs.incr("kernel.fallback", kernel=algo_name, reason=str(exc))
            return None
        rt = obs.active()
        if rt is not None:
            # the engine's own work around the program (the CSR view):
            # perfbench's engine.step_ms layer, disjoint from its kernel
            # spans
            own_s = time.perf_counter() - started - program_s
            rt.observe("engine.vector.step_ms", own_s * 1000.0)
        note_engine_run(self.name)
        obs.incr("kernel.dispatch", kernel=algo_name)
        note_run_result(self.name, result)
        result.engine = self.name
        return result

    def run(
        self,
        graph: nx.Graph,
        algorithm: NodeAlgorithm,
        extras: Optional[Dict[str, Any]] = None,
        max_rounds: Optional[int] = None,
    ) -> RunResult:
        from repro import kernels

        kernel = kernels.get_kernel(getattr(algorithm, "name", None))
        if kernel is None:
            reason = "no-program"
        else:
            result = self._run_program(kernel, graph, algorithm, extras, max_rounds)
            if result is not None:
                return result
            reason = "declined"
        from repro.engine.reference import ReferenceEngine

        obs.incr("engine.fallback", reason=reason)
        obs.incr("warnings.engine_fallback")
        warnings.warn(
            f"VectorEngine delegates this run ({reason}) to ReferenceEngine: "
            "results are identical, but it executes on the reference "
            "scheduler (result.engine == 'reference')",
            EngineFallbackWarning,
            stacklevel=2,
        )
        return ReferenceEngine().run(graph, algorithm, extras=extras, max_rounds=max_rounds)
