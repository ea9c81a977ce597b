"""Reporting over stored per-cell metrics: the ``repro stats`` backend.

The campaign runner persists a compact metrics blob per computed cell
(the store's ``metrics`` column): phase timings, the cell's
counter snapshot (kernel dispatches and declines, engine rounds and
delegations, warnings), queue latency and in-flight
window occupancy at submit. This module turns a set of store rows back
into answers — which cells are slow, how often kernels declined, what
the per-algorithm round/time distributions look like — without re-running
anything.

The slowest-cell ranking orders every row by the ``wall_ms`` column;
the blob's ``compute_ms`` is surfaced as labeled detail, not as the sort
key. A row the runner made up for a dead worker has neither: it counts
under ``errors`` and ``untimed``.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = ["campaign_stats", "render_stats"]

#: Counter-name prefixes that mean "the fast path was not taken".
FALLBACK_PREFIXES = (
    "kernel.fallback",
    "engine.fallback",
    "warnings.",
)


def _cell_label(row: Mapping[str, Any]) -> str:
    return (
        f"{row.get('algorithm')} on {row.get('workload')} "
        f"seed={row.get('seed')} [{row.get('engine')}]"
    )


def _cell_time_ms(row: Mapping[str, Any]) -> Optional[float]:
    """The cell's ranking time: always the stored ``wall_ms`` column, so
    the slowest-cell ordering compares one quantity across the whole
    store. The metrics blob's ``compute_ms`` is reported alongside as
    detail — never as the sort key, because mixing compute-only timings
    with build+compute+verify wall timings in one ranking orders apples
    against oranges."""
    value = row.get("wall_ms")
    return float(value) if isinstance(value, (int, float)) else None


def _distribution(values: Sequence[float]) -> Dict[str, float]:
    return {
        "count": len(values),
        "min": round(min(values), 3),
        "median": round(statistics.median(values), 3),
        "mean": round(statistics.fmean(values), 3),
        "max": round(max(values), 3),
    }


def campaign_stats(rows: Sequence[Mapping[str, Any]], top: int = 5) -> Dict[str, Any]:
    """Aggregate a set of store rows into the ``repro stats`` payload.

    Delegates the store-row/metrics-blob join to
    :func:`repro.analysis.dataframes.cell_frame` (imported lazily —
    ``repro.obs`` loads on every run path, the analysis package only
    here), so this module aggregates hoisted columns instead of
    re-walking blobs."""
    from repro.analysis.dataframes import cell_frame

    frame = cell_frame(rows)
    counters: Dict[str, float] = {}
    untimed = 0
    timed: List[Any] = []
    per_algorithm: Dict[str, Dict[str, List[float]]] = {}
    errors = len(frame.where(lambda r: bool(r.get("error"))))
    verdicts: Dict[str, int] = {}
    for row in frame:
        verdict = str(row.get("verdict"))
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        for key, value in row["counters"].items():
            counters[key] = counters.get(key, 0) + value
        ms = _cell_time_ms(row)
        if ms is not None:
            timed.append((ms, row["compute_ms"], row))
            algo = str(row.get("algorithm"))
            dist = per_algorithm.setdefault(algo, {"wall_ms": [], "rounds": []})
            dist["wall_ms"].append(ms)
        else:
            untimed += 1
        rounds = row.get("rounds_actual")
        if isinstance(rounds, (int, float)):
            per_algorithm.setdefault(
                str(row.get("algorithm")), {"wall_ms": [], "rounds": []}
            )["rounds"].append(float(rounds))
    queue_ms = frame.column("queue_ms", drop_none=True)
    timed.sort(key=lambda item: -item[0])
    slowest = [
        {
            "cell": _cell_label(row),
            "ms": round(ms, 3),
            "source": (
                f"wall_ms; metrics compute_ms={round(compute, 3)}"
                if compute is not None
                else "wall_ms"
            ),
            "compute_ms": None if compute is None else round(compute, 3),
            "run_key": row.get("run_key"),
        }
        for ms, compute, row in timed[:top]
    ]
    fallbacks = {
        key: value
        for key, value in sorted(counters.items())
        if any(key.startswith(prefix) for prefix in FALLBACK_PREFIXES)
    }
    distributions = {
        algo: {
            "wall_ms": _distribution(dist["wall_ms"]) if dist["wall_ms"] else None,
            "rounds": _distribution(dist["rounds"]) if dist["rounds"] else None,
        }
        for algo, dist in sorted(per_algorithm.items())
    }
    return {
        "cells": len(rows),
        "errors": errors,
        "verdicts": dict(sorted(verdicts.items())),
        "untimed": untimed,
        "slowest": slowest,
        "fallbacks": fallbacks,
        "counters": dict(sorted(counters.items())),
        "queue_ms": _distribution(queue_ms) if queue_ms else None,
        "per_algorithm": distributions,
    }


def _dist_text(dist: Optional[Mapping[str, Any]]) -> str:
    if not dist:
        return "—"
    return (
        f"n={dist['count']} min={dist['min']} med={dist['median']} "
        f"mean={dist['mean']} max={dist['max']}"
    )


def render_stats(
    stats: Mapping[str, Any],
    summary: Optional[Mapping[str, Any]] = None,
) -> str:
    """The human-readable ``repro stats`` report. ``summary`` is the last
    campaign's runner-level summary (store ``meta``): hit/computed
    totals — the only place a cache-hit *rate* can come from, since
    served-from-store cells never rewrite their rows."""
    lines: List[str] = []
    lines.append(
        f"cells: {stats['cells']} stored, {stats['errors']} errored, "
        f"verdicts: "
        + ", ".join(f"{k}={v}" for k, v in stats["verdicts"].items())
    )
    if stats.get("untimed"):
        lines.append(
            f"rows without a wall_ms column: {stats['untimed']} "
            "(excluded from the slowest ranking)"
        )
    if summary:
        served = summary.get("hits", 0)
        done = summary.get("done", 0)
        rate = (served / done * 100.0) if done else 0.0
        lines.append(
            f"last campaign: {done} cells, {served} cache hits "
            f"({rate:.1f}% hit rate), {summary.get('computed', 0)} computed, "
            f"{summary.get('errors', 0)} errors, "
            f"{summary.get('retried', 0)} retried "
            f"in {summary.get('elapsed_s', 0.0):.2f}s"
        )
        utilization = summary.get("worker_utilization")
        if utilization is not None:
            lines.append(
                f"  worker utilization: {utilization * 100.0:.1f}% "
                f"(jobs={summary.get('jobs')})"
            )
    if stats["queue_ms"]:
        lines.append(f"queue latency ms: {_dist_text(stats['queue_ms'])}")
    lines.append("slowest cells:")
    if stats["slowest"]:
        for item in stats["slowest"]:
            lines.append(f"  {item['ms']:>10.1f}ms  {item['cell']}  [{item['source']}]")
    else:
        lines.append("  (no timed rows)")
    lines.append("fallback / warning counters:")
    if stats["fallbacks"]:
        for key, value in stats["fallbacks"].items():
            lines.append(f"  {key} = {value:g}")
    else:
        lines.append("  (none recorded — every cell took its fast path)")
    lines.append("per-algorithm distributions:")
    for algo, dists in stats["per_algorithm"].items():
        lines.append(f"  {algo}:")
        lines.append(f"    wall_ms: {_dist_text(dists['wall_ms'])}")
        lines.append(f"    rounds:  {_dist_text(dists['rounds'])}")
    return "\n".join(lines)
