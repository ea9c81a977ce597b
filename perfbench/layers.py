"""Per-layer metrics of one traced pass.

Layer times come from the benchmark's own spans (:mod:`perfbench.tracing`)
around each layer's public functions; round phases, shard rounds and
counts come from the per-cell metrics blob and the campaign summary the
program already returns. Every per-layer metric is reported on every
workload; a layer the workload never enters reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Tuple

from perfbench.metrics import covered, median, self_times
from perfbench.tracing import COVERAGE_LAYERS

#: Per-layer metric name -> unit, in report order.
LAYER_METRICS: Dict[str, str] = {
    "workloads.build_ms": "ms",
    "graphcore.edges": "count",
    "graphs.arboricity_bounds_ms": "ms",
    "graphs.line_graph_ms": "ms",
    "registry.run_ms": "ms",
    "registry.overhead_ms": "ms",
    "registry.compact_fallbacks": "count",
    "kernels.linial_ms": "ms",
    "kernels.fallbacks": "count",
    "engine.run_ms": "ms",
    "engine.step_ms": "ms",
    "engine.deliver_ms": "ms",
    "engine.residual_ms": "ms",
    "engine.runs": "count",
    "engine.rounds": "count",
    "engine.messages": "count",
    "engine.steps": "count",
    "engine.active_ratio": "ratio",
    "core.pipeline_ms": "ms",
    "verify.run_ms": "ms",
    "verify.verdicts_ok": "count",
    "shard.partition_ms": "ms",
    "shard.round_ms": "ms",
    "shard.rounds": "count",
    "shard.exchanged_values": "count",
    "store.put_ms": "ms",
    "store.puts": "count",
    "store.get_ms": "ms",
    "store.gets": "count",
    "store.hit_ratio": "ratio",
    "store.bytes": "bytes",
    "campaign.queue_ms": "ms",
    "campaign.busy_ms": "ms",
    "campaign.cell_self_ms": "ms",
    "campaign.worker_utilization": "ratio",
    "campaign.resume_ms": "ms",
    "campaign.resume_recomputed": "count",
    "report.render_ms": "ms",
    "obs.coverage_frac": "ratio",
    "obs.trace_overhead_frac": "ratio",
}


def _span_ms(spans: Iterable[Mapping[str, Any]], name: str) -> float:
    """Total milliseconds in spans called ``name`` (or ``name*`` when it
    ends with a dot)."""
    if name.endswith("."):
        return 1000.0 * sum(
            s["end"] - s["start"] for s in spans if s["name"].startswith(name)
        )
    return 1000.0 * sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _counter(counters: Mapping[str, float], name: str) -> float:
    """Sum of a labeled counter over all its labels."""
    return float(sum(v for k, v in counters.items() if k.split("[", 1)[0] == name))


def _timer_ms(timers: Mapping[str, List[float]], prefix: str) -> float:
    """Total milliseconds of program timers named ``prefix`` or, when it
    ends with a dot, starting with it."""
    return float(sum(
        agg[1] for name, agg in timers.items()
        if name == prefix or (prefix.endswith(".") and name.startswith(prefix))
    ))


def computed_rows(rows: Iterable[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
    """Rows this campaign executed, one per run key (in-run duplicates
    share a row; cache hits were not executed)."""
    seen = set()
    out = []
    for row in rows:
        key = row.get("run_key")
        if row.get("cached") or key in seen:
            continue
        seen.add(key)
        out.append(row)
    return out


def coverage(spans: Iterable[Mapping[str, Any]], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by the union of layer spans."""
    intervals = [(s["start"], s["end"]) for s in spans if s["name"] in COVERAGE_LAYERS]
    return covered(intervals, start, end) / (end - start) if end > start else 0.0


def self_time_table(spans: List[Mapping[str, Any]]) -> Dict[str, float]:
    """Self milliseconds per span name, summed over the spans."""
    own = self_times(spans)
    table: Dict[str, float] = {}
    for span in spans:
        table[span["name"]] = table.get(span["name"], 0.0) + 1000.0 * own[span["id"]]
    return dict(sorted(table.items()))


def pass_metrics(result: Any) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` entry but the trace overhead, for one
    traced :class:`~perfbench.suite.PassResult`."""
    spans = result.spans
    summary = result.summary
    counters = summary.get("counters") or {}
    timers = summary.get("timers") or {}
    executed = computed_rows(result.rows)
    reps = max(1, len(result.resume_s))

    registry_ms = _span_ms(spans, "registry.run")
    kernel_ms = _span_ms(spans, "kernels.")
    linial_ms = _span_ms(spans, "kernels.linial")
    engine_total_ms = _span_ms(spans, "engine.run")
    engine_ms = engine_total_ms - kernel_ms
    step_ms = _timer_ms(timers, "engine.vector.step_ms")
    deliver_ms = _timer_ms(timers, "engine.vector.deliver_ms")
    steps = _counter(counters, "engine.steps")
    skips = _counter(counters, "engine.sleep_skips")
    own = self_times(spans)
    metrics: Dict[str, float] = {
        "workloads.build_ms": _span_ms(spans, "workloads.build"),
        "graphcore.edges": float(sum(r.get("m") or 0 for r in executed)),
        "graphs.arboricity_bounds_ms": _span_ms(spans, "graphs.arboricity_bounds"),
        "graphs.line_graph_ms": _span_ms(spans, "graphs.line_graph"),
        "registry.run_ms": registry_ms,
        "registry.overhead_ms": registry_ms - linial_ms,
        "registry.compact_fallbacks": _counter(counters, "registry.compact_fallback"),
        "kernels.linial_ms": linial_ms,
        "kernels.fallbacks": _counter(counters, "kernel.fallback"),
        "engine.run_ms": engine_ms,
        "engine.step_ms": step_ms,
        "engine.deliver_ms": deliver_ms,
        "engine.residual_ms": engine_ms - step_ms - deliver_ms,
        "engine.runs": _counter(counters, "engine.runs"),
        "engine.rounds": _counter(counters, "engine.rounds"),
        "engine.messages": _counter(counters, "engine.messages"),
        "engine.steps": steps,
        "engine.active_ratio": steps / (steps + skips) if steps + skips else 0.0,
        "core.pipeline_ms": (
            registry_ms - engine_total_ms - _timer_ms(timers, "shard.run.")
        ),
        "verify.run_ms": _span_ms(spans, "verify.run"),
        "verify.verdicts_ok": float(sum(r.get("verdict") == "ok" for r in executed)),
        "shard.partition_ms": _span_ms(spans, "shard.partition"),
        "shard.round_ms": _timer_ms(timers, "shard.round"),
        "shard.rounds": _counter(counters, "shard.rounds"),
        "shard.exchanged_values": _counter(counters, "shard.exchanged_values"),
        "store.put_ms": _span_ms(spans, "store.put"),
        "store.puts": float(sum(s["name"] == "store.put" for s in spans)),
        "store.get_ms": _span_ms(result.resume_spans, "store.get") / reps,
        "store.gets": result.resume_gets / reps,
        "store.hit_ratio": (
            result.resume_hits / result.resume_gets if result.resume_gets else 0.0
        ),
        "store.bytes": float(result.store_bytes),
        "campaign.queue_ms": float(sum(
            (r.get("metrics") or {}).get("queue_ms") or 0.0 for r in executed
        )),
        "campaign.busy_ms": float(sum(
            (r.get("metrics") or {}).get("total_ms") or 0.0 for r in executed
        )),
        "campaign.cell_self_ms": 1000.0 * sum(
            own[s["id"]] for s in spans if s["name"] == "campaign.cell"
        ),
        "campaign.worker_utilization": float(summary.get("worker_utilization") or 0.0),
        "campaign.resume_ms": 1000.0 * median(result.resume_s) if result.resume_s else 0.0,
        "campaign.resume_recomputed": result.resume_computed / reps,
        "report.render_ms": _span_ms(spans, "report.render"),
        "obs.coverage_frac": coverage(spans, result.start, result.end),
    }
    return metrics


def span_records(passes: List[Tuple[int, Any]]) -> List[Dict[str, Any]]:
    """Every span of the traced passes, tagged with its pass index and
    whether it belongs to the cold pass or a resume, start-ordered."""
    out: List[Dict[str, Any]] = []
    for index, result in passes:
        for phase, spans in (("pass", result.spans), ("resume", result.resume_spans)):
            out.extend(dict(span, pass_index=index, phase=phase) for span in spans)
    return sorted(out, key=lambda s: s["start"])
