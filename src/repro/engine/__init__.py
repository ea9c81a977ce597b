"""Pluggable execution engines for the LOCAL simulator.

Public surface:

* :class:`~repro.engine.base.Engine` — the abstract engine contract.
* :class:`~repro.engine.reference.ReferenceEngine` — the original
  :class:`~repro.local.network.Network` scheduler (bit-for-bit).
* :class:`~repro.engine.vector.VectorEngine` — registered array
  programs over CSR arrays; every other run delegated to the reference.
* :func:`~repro.engine.base.use_engine` / :func:`~repro.engine.base.current_engine`
  — dynamically scoped engine selection honored by every ``run_on_graph``
  call; outside any scope the engine is ``DEFAULT_ENGINE`` (reference).
* :func:`~repro.engine.base.get_engine` / :func:`~repro.engine.base.available_engines`
  — the two engines, by name.
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
    "use_engine",
    "ReferenceEngine",
    "VectorEngine",
]
