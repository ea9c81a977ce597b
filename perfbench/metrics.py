"""Pure helpers: metric names, medians and the percentile rule, failure
counting, and span interval arithmetic. Nothing here imports ``repro``."""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Percentiles the tail rule may choose from, highest last.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    """A metric or workload name: starts with a letter or digit, then at
    most 63 more of ``[A-Za-z0-9_.-]``."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sequence (mean of the middle two)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-th percentile
    under the nearest-rank definition used by :func:`percentile`."""
    return count - max(1, math.ceil(q / 100.0 * count))


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank ``q``-th percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it (too few to locate it)."""
    if not values or samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1])


def tail_percentiles(values: Sequence[float]) -> Dict[str, float]:
    """Every percentile of :data:`TAIL_PERCENTILES` the rule allows, keyed
    ``p50``, ``p90``, ``p99``, ``p99.9``; empty when none is allowed."""
    out: Dict[str, float] = {}
    for q in TAIL_PERCENTILES:
        value = percentile(values, q)
        if value is not None:
            out[f"p{q:g}"] = value
    return out


def count_failures(outcomes: Iterable[Sequence[str]]) -> Tuple[int, int]:
    """``(attempted, failed)`` over per-operation outcomes, where each
    outcome is the list of problems found with that operation: an
    operation with any problem counts once as failed."""
    attempted = failed = 0
    for problems in outcomes:
        attempted += 1
        if problems:
            failed += 1
    return attempted, failed


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def covered(
    intervals: Iterable[Tuple[float, float]], start: float, end: float
) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    return union_length(
        (max(s, start), min(e, end)) for s, e in intervals if e > start and s < end
    )


def self_times(spans: Sequence[Dict]) -> Dict[str, float]:
    """Self time per span id: the span's duration minus the part of its
    interval covered by its direct children (children may overlap, as
    spans from parallel workers do; overlap is counted once)."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }

