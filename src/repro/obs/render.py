"""Human-readable timelines of JSONL trace events.

:func:`render_events` is the ``repro trace show`` backend: a per-process
timeline of the schema-versioned JSONL events a
:class:`~repro.obs.sinks.JsonlTraceSink` wrote (campaign cells, engine
rounds, kernel dispatches), and :func:`summarize_events` the header it
prints. The per-round view of one run is its ``engine.round`` points,
rendered with ``name_prefix="engine."``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

__all__ = ["render_events", "timeline_lanes"]


def _fields_text(fields: Mapping[str, Any]) -> str:
    return " ".join(f"{key}={fields[key]}" for key in fields)


def _event_line(event: Mapping[str, Any]) -> str:
    name = event.get("name", "?")
    ts = event.get("ts_ms")
    dur = event.get("dur_ms")
    fields = event.get("fields") or {}
    kind = event.get("kind", "?")
    stamp = f"{ts:10.3f}ms" if isinstance(ts, (int, float)) else f"{'?':>12}"
    marker = {"span": "⊢", "point": "·", "counter": "Σ", "meta": "#"}.get(kind, "?")
    text = f"{stamp} {marker} {name}"
    if isinstance(dur, (int, float)):
        text += f" ({dur:.3f}ms)"
    if fields:
        text += f"  {_fields_text(fields)}"
    return text


def _lane_of(event: Mapping[str, Any]) -> Tuple[str, Any]:
    """The display lane an event belongs to.

    Shard workers execute inside pool processes that never write the
    trace themselves — the coordinator emits ``shard.worker.*`` spans on
    their behalf, carrying the worker's pid in ``fields["worker_pid"]``.
    Those events get a synthetic per-worker lane, so a ``--shards N``
    trace renders one lane per shard worker instead of interleaving all
    worker activity into the coordinator's lane. Everything else lanes
    by its writing ``pid`` as before.
    """
    fields = event.get("fields") or {}
    worker_pid = fields.get("worker_pid")
    if worker_pid is not None and str(event.get("name", "")).startswith("shard."):
        return ("shard worker", worker_pid)
    return ("process", event.get("pid"))


def timeline_lanes(
    events: Sequence[Mapping[str, Any]],
    name_prefix: str = "",
) -> List[Tuple[str, List[Mapping[str, Any]]]]:
    """Events grouped into labeled display lanes in ``seq`` order: one
    ``process <pid>`` lane per writing pid, plus one ``shard worker
    <pid>`` lane per shard worker (see :func:`_lane_of`). Shared by the
    ``repro trace show`` text timeline and the HTML report's SVG
    timeline; ``meta`` events are dropped here so every renderer shows
    the same population."""
    if name_prefix:
        events = [
            e for e in events
            if str(e.get("name", "")).startswith(name_prefix)
            or e.get("kind") == "meta"
        ]
    by_lane: Dict[Tuple[str, Any], List[Mapping[str, Any]]] = {}
    for event in events:
        if event.get("kind") == "meta":
            continue
        by_lane.setdefault(_lane_of(event), []).append(event)
    lanes: List[Tuple[str, List[Mapping[str, Any]]]] = []
    for kind, key in sorted(by_lane, key=lambda lane: (lane[0], repr(lane[1]))):
        group = sorted(by_lane[(kind, key)], key=lambda e: (e.get("seq", 0),))
        lanes.append((f"{kind} {key}", group))
    return lanes


def render_events(
    events: Sequence[Mapping[str, Any]],
    max_events: int = 200,
    name_prefix: str = "",
) -> str:
    """A per-lane timeline of decoded trace events.

    Events are grouped by ``pid`` (a multi-worker campaign trace carries
    several interleaved writers) — with coordinator-emitted
    ``shard.worker.*`` spans split out into one lane per shard worker —
    and listed in ``seq`` order within each lane. ``name_prefix``
    filters to one event family (``engine.``, ``cell.``);
    ``max_events`` truncates each lane section with an overflow line,
    so a million-round trace still renders instantly.
    """
    lines: List[str] = []
    for label, shown in timeline_lanes(events, name_prefix=name_prefix):
        spans = sum(1 for e in shown if e.get("kind") == "span")
        lines.append(f"{label}: {len(shown)} events ({spans} spans)")
        for event in shown[:max_events]:
            lines.append("  " + _event_line(event))
        overflow = len(shown) - max_events
        if overflow > 0:
            lines.append(f"  ... {overflow} more events")
    if not lines:
        return "(no events)"
    return "\n".join(lines)


def summarize_events(events: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Aggregate view of a trace: event counts per name, span time per
    name, participating pids — the header ``repro trace show`` prints."""
    per_name: Dict[str, int] = {}
    span_ms: Dict[str, float] = {}
    pids = set()
    for event in events:
        if event.get("kind") == "meta":
            pids.add(event.get("pid"))
            continue
        pids.add(event.get("pid"))
        name = str(event.get("name", "?"))
        per_name[name] = per_name.get(name, 0) + 1
        dur = event.get("dur_ms")
        if event.get("kind") == "span" and isinstance(dur, (int, float)):
            span_ms[name] = span_ms.get(name, 0.0) + dur
    return {
        "events": sum(per_name.values()),
        "names": per_name,
        "span_ms": {k: round(v, 3) for k, v in span_ms.items()},
        "pids": sorted(pids, key=repr),
    }
