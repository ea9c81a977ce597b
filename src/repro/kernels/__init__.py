"""Batched numpy round kernels over CSR graphs.

The per-node simulator (:class:`~repro.local.network.Network`, run by
the reference engine) dispatches a Python ``step`` per node per round.
For the bounded-round LOCAL procedures this library reproduces —
Linial's cover-free relabeling, Cole–Vishkin bit reduction, the iterated
color reductions, H-partition peeling, Lemma 5.1's label-round merge —
every node of a round applies the *same* function of (own state,
received state), which makes the whole round a few fused array
operations over the CSR ``indptr``/``indices`` arrays. A kernel executes the entire run that way: one ``colors``/state
vector per graph, one pass of numpy segment ops per synchronous round,
zero per-node Python dispatch.

Contract (the reason kernels may exist at all):

* **Bit-for-bit parity.** A kernel returns the *exact*
  :class:`~repro.local.network.RunResult` the reference scheduler would
  produce — outputs, round count, total messages, and the per-round
  ``round_messages`` profile. The compact-parity suite enforces this for
  every registered kernel over the full workload catalogue.
* **Decline, don't approximate.** A kernel that cannot reproduce the
  per-node semantics for a given input (exotic extras, inputs that would
  raise mid-run in node order, palettes outside its vectorized range)
  raises :class:`KernelUnsupported`; the engine delegates the run to the
  reference scheduler, which remains the semantic authority, and
  discloses the decline through the ``kernel.fallback`` counter.
* **Engines opt in.** Only :class:`~repro.engine.vector.VectorEngine`
  consults this registry, for every crash-free, untraced,
  bandwidth-untracked run — on a ``CompactGraph`` as it is, and on an nx
  graph interned to dense ids. The reference engine never does — it
  *is* the baseline kernels are measured against.
* **One boundary.** Node ids meet array code in
  :mod:`repro.kernels.program` alone: the kernel and the sharded
  runtime both read the extras a program declares node-keyed
  (``node_keyed``/``node_valued``) into dense vectors there, by node
  lookup, the same way on every graph form, and key the dense outputs by
  node id there once.

Every kernel is a bulk-synchronous vertex program with exactly one array
implementation: a :class:`~repro.kernels.program.ShardProgram`.
:func:`register_program` registers it once, which makes it both this
engine's kernel (:func:`get_kernel` — the program run over the whole
graph as a single shard) and the sharded runtime's program
(:func:`get_program`).

Programs are registered per :class:`~repro.local.algorithm.NodeAlgorithm`
``name`` and resolved lazily (:func:`get_program` imports the backing
module on first use), so importing :mod:`repro.kernels` stays cheap and
free of circular imports with the substrate modules.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "KernelUnsupported",
    "get_kernel",
    "get_program",
    "kernel_names",
    "register_program",
]


class KernelUnsupported(Exception):
    """A kernel or shard program declined this input; the caller must
    fall back to the per-node scheduler. The message is a stable short
    string, usable as a counter label. Never escapes the engine or shard
    layer."""


#: algorithm name -> module that registers its kernel on import.
_KERNEL_MODULES: Dict[str, str] = {
    "linial": "repro.kernels.linial",
    "defective-refinement": "repro.kernels.linial",
    "basic-reduction": "repro.kernels.reduction",
    "kw-phase": "repro.kernels.reduction",
    "cole-vishkin": "repro.kernels.cole_vishkin",
    "h-partition": "repro.kernels.peeling",
    "cross-merge": "repro.kernels.cross_merge",
}

#: algorithm name -> ShardProgram.
_PROGRAMS: Dict[str, Any] = {}


def register_program(program: Any) -> Any:
    """Register a :class:`~repro.kernels.program.ShardProgram` under its
    ``name`` (the :class:`NodeAlgorithm` name, not the registry name)."""
    _PROGRAMS[program.name] = program
    return program


def get_program(name: Optional[str]) -> Optional[Any]:
    """The shard program registered for algorithm ``name``, or None —
    importing the module that registers it the first time it is asked
    for, so registration never burdens interpreter startup."""
    if not isinstance(name, str):
        return None
    if name not in _PROGRAMS and name in _KERNEL_MODULES:
        importlib.import_module(_KERNEL_MODULES[name])
    return _PROGRAMS.get(name)


def get_kernel(name: Optional[str]) -> Optional[Callable[..., Any]]:
    """The kernel for algorithm ``name`` — its program's whole-graph
    ``run(graph, extras, max_rounds)`` — or None."""
    program = get_program(name)
    return None if program is None else program.run


def kernel_names() -> List[str]:
    """Sorted names of all algorithms with a registered program (forces
    the lazy imports — this is the introspection surface, not the hot
    path)."""
    for module in sorted(set(_KERNEL_MODULES.values())):
        importlib.import_module(module)
    return sorted(_PROGRAMS)
