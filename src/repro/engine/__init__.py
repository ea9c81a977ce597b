"""Pluggable execution engines for the LOCAL simulator.

Public surface:

* :class:`~repro.engine.base.Engine` — the abstract engine contract.
* :class:`~repro.engine.reference.ReferenceEngine` — the original
  :class:`~repro.local.network.Network` scheduler (bit-for-bit).
* :class:`~repro.engine.vector.VectorEngine` — registered array
  programs over CSR arrays; every other run delegated to the reference.
* :func:`~repro.engine.base.use_engine` / :func:`~repro.engine.base.current_engine`
  / :func:`~repro.engine.base.set_default_engine` — dynamically scoped
  engine selection honored by every ``run_on_graph`` call.
* :func:`~repro.engine.base.get_engine` / :func:`~repro.engine.base.available_engines`
  / :func:`~repro.engine.base.register_engine` — the engine registry.
"""

from repro.engine.base import (
    DEFAULT_ENGINE,
    Engine,
    EngineFallbackWarning,
    available_engines,
    current_engine,
    current_engine_name,
    get_engine,
    note_engine_run,
    record_engine_runs,
    register_engine,
    set_default_engine,
    use_engine,
)
from repro.engine.reference import ReferenceEngine
from repro.engine.vector import VectorEngine

__all__ = [
    "DEFAULT_ENGINE",
    "Engine",
    "EngineFallbackWarning",
    "note_engine_run",
    "record_engine_runs",
    "available_engines",
    "current_engine",
    "current_engine_name",
    "get_engine",
    "register_engine",
    "set_default_engine",
    "use_engine",
    "ReferenceEngine",
    "VectorEngine",
]
