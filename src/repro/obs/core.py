"""The instrumentation runtime: counters, gauges, timers, spans.

One :class:`ObsRuntime` is the unit of collection — installed for a scope
with :func:`collect`, consulted by every instrumented call site through
the module-level accessors (:func:`incr`, :func:`gauge`, :func:`span`,
:func:`event`). The design constraint is the *disabled* path: with no
runtime installed, every accessor is one global load plus a ``None``
check (and :func:`span` returns one shared no-op object), so the hot
layers — engines, kernels, the registry — can call them unconditionally.
``tests/obs/test_core.py::TestDisabledPath`` holds that path to no calls
and to the cost of a no-op call.

Counters are labeled: ``incr("kernel.dispatch", kernel="linial")``
accumulates under the flat key ``kernel.dispatch[kernel=linial]``, which
keeps snapshots plain JSON (the campaign persists them per cell, see the
store's ``metrics`` column) and merging trivial (:meth:`ObsRuntime.merge`
is how the campaign runner aggregates worker snapshots into one campaign
summary).

Trace events are the sink's concern (:mod:`repro.obs.sinks`): a runtime
constructed with one forwards :func:`event` points and span completions
to it; without one, the same instrumentation degrades to counters and
timers only. The instrumentation NEVER influences results: nothing in
this module feeds back into run keys, stored deterministic columns, or
algorithm execution (``tests/obs/test_determinism.py`` holds that line).
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = [
    "ObsRuntime",
    "active",
    "collect",
    "enabled",
    "event",
    "gauge",
    "incr",
    "span",
    "trace_path_from_env",
]

#: Environment gate for the JSONL trace sink: a file path. Set by the
#: user, or by the CLI's ``--trace`` flag (before any worker pool forks,
#: so campaign workers inherit it).
TRACE_ENV = "REPRO_TRACE"

_FALSY = ("", "0", "false", "off", "no")


def counter_key(name: str, fields: Dict[str, Any]) -> str:
    """The flat snapshot key of a labeled counter:
    ``name[k1=v1,k2=v2]`` with sorted field names (no fields: ``name``)."""
    if not fields:
        return name
    labels = ",".join(f"{k}={fields[k]}" for k in sorted(fields))
    return f"{name}[{labels}]"


class ObsRuntime:
    """One collection scope: counters + gauges + timers, an optional
    trace sink, and a monotonic clock anchored at install time."""

    __slots__ = ("counters", "gauges", "timers", "trace", "_clock", "_epoch")

    def __init__(self, trace: Optional[Any] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: name -> [count, total_ms, max_ms]
        self.timers: Dict[str, List[float]] = {}
        self.trace = trace
        self._clock = clock
        self._epoch = clock()

    # -- primitives --------------------------------------------------------

    def now_ms(self) -> float:
        """Milliseconds since this runtime was installed."""
        return (self._clock() - self._epoch) * 1000.0

    def incr(self, name: str, value: float = 1, **fields: Any) -> None:
        key = counter_key(name, fields)
        self.counters[key] = self.counters.get(key, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, dur_ms: float) -> None:
        """Fold one duration into the ``name`` timer aggregate."""
        agg = self.timers.get(name)
        if agg is None:
            self.timers[name] = [1, dur_ms, dur_ms]
        else:
            agg[0] += 1
            agg[1] += dur_ms
            if dur_ms > agg[2]:
                agg[2] = dur_ms

    def emit(self, kind: str, name: str, dur_ms: Optional[float] = None,
             **fields: Any) -> None:
        """Write one trace event to the sink (no-op without a sink)."""
        sink = self.trace
        if sink is None:
            return
        event: Dict[str, Any] = {"kind": kind, "name": name, "ts_ms": round(self.now_ms(), 3)}
        if dur_ms is not None:
            event["dur_ms"] = round(dur_ms, 3)
        if fields:
            event["fields"] = fields
        sink.emit(event)

    # -- aggregation -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A plain-JSON view of everything collected so far (the shape
        the campaign persists per cell and merges per campaign)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": {name: list(agg) for name, agg in self.timers.items()},
        }

    def merge(self, snapshot: Optional[Dict[str, Any]]) -> None:
        """Fold another runtime's :meth:`snapshot` into this one (the
        campaign runner aggregating per-cell worker snapshots)."""
        if not snapshot:
            return
        for key, value in (snapshot.get("counters") or {}).items():
            self.counters[key] = self.counters.get(key, 0) + value
        for key, value in (snapshot.get("gauges") or {}).items():
            self.gauges[key] = value
        for name, agg in (snapshot.get("timers") or {}).items():
            mine = self.timers.get(name)
            if mine is None:
                self.timers[name] = list(agg)
            else:
                mine[0] += agg[0]
                mine[1] += agg[1]
                if agg[2] > mine[2]:
                    mine[2] = agg[2]


class _Span:
    """A live span: times a ``with`` block, folds the duration into the
    runtime's timer aggregate, and emits one ``span`` trace event."""

    __slots__ = ("_rt", "_name", "_fields", "_start")

    def __init__(self, rt: ObsRuntime, name: str, fields: Dict[str, Any]):
        self._rt = rt
        self._name = name
        self._fields = fields
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = self._rt._clock()
        return self

    def __exit__(self, exc_type: Any, *exc: Any) -> None:
        dur_ms = (self._rt._clock() - self._start) * 1000.0
        self._rt.observe(self._name, dur_ms)
        if exc_type is not None:
            self._fields = dict(self._fields, error=exc_type.__name__)
        self._rt.emit("span", self._name, dur_ms=dur_ms, **self._fields)


class _NullSpan:
    """The disabled-path span: one shared instance, allocation-free."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: The installed runtime. Plain module global, not a contextvar: the
#: collection scope is per-process (campaign workers install their own),
#: and the disabled path must stay a single load + None check.
_RUNTIME: Optional[ObsRuntime] = None


def active() -> Optional[ObsRuntime]:
    """The installed runtime, or ``None`` when instrumentation is off."""
    return _RUNTIME


def enabled() -> bool:
    return _RUNTIME is not None


def incr(name: str, value: float = 1, **fields: Any) -> None:
    """Add ``value`` to the labeled counter (no-op when disabled)."""
    rt = _RUNTIME
    if rt is not None:
        rt.incr(name, value, **fields)


def gauge(name: str, value: float) -> None:
    """Set a gauge to its latest value (no-op when disabled)."""
    rt = _RUNTIME
    if rt is not None:
        rt.gauge(name, value)


def event(name: str, **fields: Any) -> None:
    """Emit one point-in-time trace event (no-op unless a trace sink is
    attached)."""
    rt = _RUNTIME
    if rt is not None:
        rt.emit("point", name, **fields)


def span(name: str, **fields: Any):
    """A timing scope: ``with obs.span("kernel.linial"): ...`` — timer
    aggregate always, trace event when a sink is attached, shared no-op
    when disabled."""
    rt = _RUNTIME
    if rt is None:
        return _NULL_SPAN
    return _Span(rt, name, fields)


def trace_path_from_env() -> Optional[str]:
    """The ``REPRO_TRACE`` trace-file path, or ``None`` when unset/falsy."""
    raw = os.environ.get(TRACE_ENV, "").strip()
    if raw.lower() in _FALSY:
        return None
    return raw


@contextlib.contextmanager
def collect(trace_path: Optional[str] = None,
            trace: Optional[Any] = None) -> Iterator[ObsRuntime]:
    """Install a fresh :class:`ObsRuntime` for the ``with`` block.

    ``trace_path`` opens a :class:`~repro.obs.sinks.JsonlTraceSink` on
    that file (append mode — concurrent campaign workers interleave whole
    lines); ``trace`` attaches an already-constructed sink instead. The
    previous runtime (usually ``None``) is restored on exit, and a sink
    this call opened is closed. Reentrant: nested collects shadow, they
    do not merge — the outer scope resumes untouched.
    """
    # repro-check: ok fork-global-write — per-process runtime by design:
    # workers open their own sinks; events carry pid so streams interleave
    global _RUNTIME
    sink = trace
    owned = False
    if sink is None and trace_path:
        from repro.obs.sinks import JsonlTraceSink

        sink = JsonlTraceSink(trace_path)
        owned = True
    runtime = ObsRuntime(trace=sink)
    previous = _RUNTIME
    _RUNTIME = runtime
    try:
        yield runtime
    finally:
        _RUNTIME = previous
        if owned:
            sink.close()
