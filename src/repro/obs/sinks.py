"""Trace sinks: where :class:`~repro.obs.core.ObsRuntime` events land.

Two implementations:

* :class:`MemorySink` — a list, for tests and in-process inspection.
* :class:`JsonlTraceSink` — one schema-versioned JSON object per line
  (see :mod:`repro.obs.schema`), opened in append mode. Each event is
  written as a single ``write()`` of one ``\\n``-terminated line well
  under the POSIX pipe/file atomicity threshold, so concurrent campaign
  workers appending to the same file interleave whole events, never
  partial lines. The first event every sink writes is a ``meta`` header
  (schema version, pid, wall-clock epoch) — a multi-worker trace carries
  one header per participating process.

Sinks stamp the envelope (``v``, ``pid``, ``seq``); the runtime supplies
``kind``/``name``/``ts_ms``/``dur_ms``/``fields``. ``seq`` totals the
events of one sink instance, giving readers a stable within-pid order
even where ``ts_ms`` ties.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.obs.schema import EVENT_SCHEMA_VERSION


class MemorySink:
    """Collects stamped events in ``self.events`` (tests, summaries)."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self._seq = 0

    def emit(self, event: Dict[str, Any]) -> None:
        stamped = dict(event, v=EVENT_SCHEMA_VERSION, pid=os.getpid(), seq=self._seq)
        self._seq += 1
        self.events.append(stamped)

    def close(self) -> None:
        return None


class JsonlTraceSink:
    """Append-mode JSONL writer; one event per line, flushed per event.

    Per-event flushing is deliberate: a trace exists to debug runs that
    die, so the file must be current when the SIGKILL lands. Tracing is
    opt-in, so only traced runs pay that cost: the disabled path never
    constructs a sink at all, and ``TestDisabledPath`` in
    ``tests/obs/test_core.py`` holds it to no calls.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = str(path)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._seq = 0
        self._closed = False
        self.emit(
            {
                "kind": "meta",
                "name": "trace.open",
                "ts_ms": 0.0,
                "fields": {
                    "schema": EVENT_SCHEMA_VERSION,
                    "unix_time": round(time.time(), 3),
                },
            }
        )

    def emit(self, event: Dict[str, Any]) -> None:
        if self._closed:
            return
        stamped = dict(event, v=EVENT_SCHEMA_VERSION, pid=os.getpid(), seq=self._seq)
        self._seq += 1
        self._handle.write(json.dumps(stamped, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._handle.close()

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
