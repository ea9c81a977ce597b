"""Zero-dependency instrumentation: counters, spans, trace sinks, stats.

The observability layer of the pipeline. Everything hot — engines,
kernels, the registry, the campaign runner — calls the module-level
accessors unconditionally; with no runtime installed (the default) each
call is a global load plus a ``None`` check, and :func:`span` hands back
one shared no-op object (``tests/obs/test_core.py::TestDisabledPath``
holds that path to no calls and to the cost of a no-op call).

Three layers:

* :mod:`repro.obs.core` — the :class:`ObsRuntime` (labeled counters,
  gauges, timer aggregates, spans) installed per scope with
  :func:`collect`. The campaign runner installs one per cell in the
  worker, snapshots it into the row, and merges the snapshots into one
  campaign summary.
* :mod:`repro.obs.sinks` + :mod:`repro.obs.schema` — the JSONL trace
  sink (one schema-versioned event per line, append-mode safe across
  worker processes) and its validator. Gated by ``REPRO_TRACE`` or the
  CLI's ``--trace``.
* :mod:`repro.obs.render` + :mod:`repro.obs.stats` — the read side:
  ``repro trace show`` timelines and ``repro stats`` summaries over the
  store's per-cell metrics blobs.

Contract: instrumentation observes, it never participates. No counter,
span, or sink may influence run keys, stored deterministic columns, or
algorithm output — a traced run is byte-identical to an untraced one
(``tests/obs/test_determinism.py``).
"""

from repro.obs.core import (
    TRACE_ENV,
    ObsRuntime,
    active,
    collect,
    counter_key,
    enabled,
    event,
    gauge,
    incr,
    span,
    trace_path_from_env,
)
from repro.obs.render import render_events, render_rounds, summarize_events
from repro.obs.schema import (
    EVENT_SCHEMA_VERSION,
    validate_event,
    validate_trace_file,
    load_events,
)
from repro.obs.sinks import JsonlTraceSink, MemorySink
from repro.obs.stats import campaign_stats, render_stats

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "JsonlTraceSink",
    "MemorySink",
    "ObsRuntime",
    "TRACE_ENV",
    "active",
    "campaign_stats",
    "collect",
    "counter_key",
    "enabled",
    "event",
    "gauge",
    "incr",
    "load_events",
    "render_events",
    "render_rounds",
    "render_stats",
    "span",
    "summarize_events",
    "trace_path_from_env",
    "validate_event",
    "validate_trace_file",
]
