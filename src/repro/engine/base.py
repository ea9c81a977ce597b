"""Execution-engine interface and engine selection.

An :class:`Engine` turns ``(graph, NodeAlgorithm)`` into a
:class:`~repro.local.network.RunResult`. Two implementations ship with the
library:

* ``reference`` — :class:`~repro.engine.reference.ReferenceEngine`, a thin
  wrapper around :class:`~repro.local.network.Network` that preserves the
  original scheduler bit for bit.
* ``vector`` — :class:`~repro.engine.vector.VectorEngine`, program or
  delegate: a registered array program replays the run over the CSR
  arrays, and every other run is delegated to the reference engine,
  disclosed.

Engine selection is dynamically scoped: :func:`use_engine` installs an
engine for a ``with`` block (thread/process local via ``contextvars``), and
every :func:`~repro.local.network.run_on_graph` call inside the block — no
matter how deep in the algorithm stack — routes through it. This is how the
CLI and the campaign runner switch whole pipelines between engines without
threading an argument through every theorem.
"""

from __future__ import annotations

import contextlib
import contextvars
import importlib
from abc import ABC, abstractmethod
from typing import Any, Dict, Iterator, List, Optional, TYPE_CHECKING

from repro.errors import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    import networkx as nx

    from repro.local.algorithm import NodeAlgorithm
    from repro.local.network import RunResult

DEFAULT_ENGINE = "reference"


class EngineFallbackWarning(RuntimeWarning):
    """Emitted when an engine delegates a run to a different engine (a
    vector-engine run with no array path): the caller asked for one
    scheduler and got another — correct results, but different
    provenance. The effective engine is recorded on the returned
    :class:`~repro.local.network.RunResult` (``result.engine``) and, for
    campaign cells, in the row's ``extra['effective_engine']``."""


class Engine(ABC):
    """Drives a :class:`~repro.local.algorithm.NodeAlgorithm` to completion.

    Implementations must reproduce the LOCAL-model contract of
    :meth:`repro.local.network.Network.run` exactly: same outputs, same
    round count, same per-round message profile. The engine-parity test
    suite (``tests/engine/test_parity.py``) holds every implementation to
    that contract across the full algorithm registry.
    """

    name: str = "abstract"

    @abstractmethod
    def run(
        self,
        graph: "nx.Graph",
        algorithm: "NodeAlgorithm",
        extras: Optional[Dict[str, Any]] = None,
        max_rounds: Optional[int] = None,
    ) -> "RunResult":
        """Execute ``algorithm`` on ``graph`` and return the run outcome."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"


#: The engines, by name: ``module:class`` paths imported on first use
#: (both engine modules import this one).
_ENGINES: Dict[str, str] = {
    "reference": "repro.engine.reference:ReferenceEngine",
    "vector": "repro.engine.vector:VectorEngine",
}
_INSTANCES: Dict[str, Engine] = {}


def available_engines() -> List[str]:
    """Names of all engines."""
    return sorted(_ENGINES)


def get_engine(name: str) -> Engine:
    """Resolve an engine by name (instances are cached — engines are
    stateless between runs)."""
    if name not in _ENGINES:
        raise InvalidParameterError(
            f"unknown engine {name!r}; available: {', '.join(sorted(_ENGINES))}"
        )
    if name not in _INSTANCES:
        module, cls = _ENGINES[name].split(":")
        _INSTANCES[name] = getattr(importlib.import_module(module), cls)()
    return _INSTANCES[name]


_current: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_engine", default=None
)
_default_engine = DEFAULT_ENGINE

# ---- effective-engine accounting -----------------------------------------
# Engines report each run they actually schedule via note_engine_run; a
# record_engine_runs() scope collects those names so callers (the campaign
# worker) can compare what *executed* against what was *requested* — a
# delegated run must not let a store row claim "vector" for a
# reference-executed run.

_run_sink: contextvars.ContextVar[Optional[List[str]]] = contextvars.ContextVar(
    "repro_engine_runs", default=None
)


def note_engine_run(name: str) -> None:
    """Engines call this once per ``run()`` they schedule themselves (a
    delegating engine does not note — the delegate does)."""
    sink = _run_sink.get()
    if sink is not None and name not in sink:
        sink.append(name)


def note_run_result(name: str, result: "RunResult") -> None:
    """Fold one executed run into the active :mod:`repro.obs` runtime:
    the ``engine.runs``/``rounds``/``messages`` counters and, with a
    trace sink, the per-round message profile as ``engine.round``
    points."""
    from repro import obs

    rt = obs.active()
    if rt is None:
        return
    rt.incr("engine.runs", engine=name)
    rt.incr("engine.rounds", result.rounds, engine=name)
    rt.incr("engine.messages", result.messages, engine=name)
    if rt.trace is not None:
        for round_no, sent in enumerate(result.round_messages, start=1):
            rt.emit("point", "engine.round", engine=name, round=round_no, sent=sent)


@contextlib.contextmanager
def record_engine_runs() -> Iterator[List[str]]:
    """Collect the distinct engine names that actually execute inside the
    block, in first-run order."""
    sink: List[str] = []
    token = _run_sink.set(sink)
    try:
        yield sink
    finally:
        _run_sink.reset(token)


def set_default_engine(name: str) -> None:
    """Set the process-wide default engine (validated eagerly)."""
    # repro-check: ok fork-global-write — deliberately process-wide: a config
    # knob set once at startup; workers inherit the pre-fork value by design
    global _default_engine
    get_engine(name)
    _default_engine = name


def current_engine() -> Engine:
    """The engine in effect: the innermost :func:`use_engine` scope, else
    the process default (``reference`` unless changed)."""
    return get_engine(_current.get() or _default_engine)


def current_engine_name() -> str:
    return (_current.get() or _default_engine)


@contextlib.contextmanager
def use_engine(name: Optional[str]) -> Iterator[Engine]:
    """Dynamically scope engine selection: every ``run_on_graph`` inside the
    block uses ``name``. ``None`` is a no-op scope (keeps the current
    engine), so callers can thread an optional engine argument through
    unconditionally."""
    if name is None:
        yield current_engine()
        return
    engine = get_engine(name)
    token = _current.set(name)
    try:
        yield engine
    finally:
        _current.reset(token)
