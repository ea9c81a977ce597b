"""Plain-Python dataframes over the experiment store: the read side.

The store's rows are flat dicts plus two nested payloads — the
``metrics`` blob (phase timers, counter snapshot, queue latency) and the
runner's ``extra`` disclosure dict. Everything downstream of the store
(``repro stats``, ``repro report``, the markdown tables) needs the same
join: one record per cell with the blob's scalars hoisted into columns,
tolerant of rows whose ``metrics`` is ``None`` (a row the runner made up
for a dead worker). This module is that join, done once, as a
zero-dependency :class:`Frame` (a list of dicts with column/where/
group_by helpers) so every reader stops re-walking rows with its own
ad-hoc ``isinstance`` ladder.

Modeled on the loader → dataframes → tables pipeline of ProjectScylla's
``generate_tables.py`` — but with plain lists and dicts instead of
pandas, because the report layer must not add a runtime dependency.
"""

from __future__ import annotations

import statistics
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Frame",
    "METRIC_COLUMNS",
    "cell_frame",
    "row_delta",
    "distribution",
]

#: Metrics-blob scalars hoisted into first-class frame columns. Every one
#: is ``None`` on rows without a blob (and on rows whose cell skipped the
#: phase), so aggregations must treat ``None`` as "absent", not zero.
METRIC_COLUMNS = (
    "total_ms",
    "build_ms",
    "compute_ms",
    "verify_ms",
    "queue_ms",
    "attempts",
    "window",
    "shards",
)


class Frame:
    """A list-of-dicts table with the handful of relational verbs the
    report layer needs. Rows are plain dicts (never copied on
    construction); every verb returns a new :class:`Frame` over the same
    row dicts, so chaining is cheap and mutation-free by convention."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Mapping[str, Any]]):
        self.rows: List[Dict[str, Any]] = [dict(r) if not isinstance(r, dict) else r for r in rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def column(self, name: str, *, drop_none: bool = False) -> List[Any]:
        """One column as a list, optionally with ``None`` entries dropped
        (the useful form for feeding an aggregate)."""
        values = [row.get(name) for row in self.rows]
        if drop_none:
            values = [v for v in values if v is not None]
        return values

    def where(
        self,
        predicate: Optional[Callable[[Mapping[str, Any]], Any]] = None,
        **equals: Any,
    ) -> "Frame":
        """Rows matching a predicate and/or column equalities."""
        rows = self.rows
        if predicate is not None:
            rows = [r for r in rows if predicate(r)]
        for key, value in equals.items():
            rows = [r for r in rows if r.get(key) == value]
        return Frame(rows)

    def group_by(self, *keys: str) -> "List[Tuple[Tuple[Any, ...], Frame]]":
        """Rows partitioned by a column tuple, groups in sorted key
        order — the deterministic iteration the report renderers need."""
        groups: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = {}
        for row in self.rows:
            groups.setdefault(tuple(row.get(k) for k in keys), []).append(row)
        ordered = sorted(
            groups.items(), key=lambda item: tuple(_orderable(v) for v in item[0])
        )
        return [(key, Frame(rows)) for key, rows in ordered]


def _orderable(value: Any) -> Tuple[int, Any]:
    """A total order over mixed scalar types: numbers first (by value),
    then everything else by ``(type name, repr)``."""
    if isinstance(value, bool):
        return (1, (type(value).__name__, repr(value)))
    if isinstance(value, (int, float)):
        return (0, float(value))
    return (1, (type(value).__name__, repr(value)))


# -- the one aggregate ------------------------------------------------------

def distribution(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The five-number summary of ``values`` (count, then min, median,
    mean and max rounded to 3 decimals), or ``None`` for no values — the
    one shape ``repro stats`` and ``repro report`` print distributions in."""
    if not values:
        return None
    return {
        "count": len(values),
        "min": round(min(values), 3),
        "median": round(statistics.median(values), 3),
        "mean": round(statistics.fmean(values), 3),
        "max": round(max(values), 3),
    }


# -- the store join ----------------------------------------------------------

#: Per-workload Δ derivations: families whose parameters *are* the max
#: degree. Anything not listed resolves Δ only from the row's ``extra``
#: disclosure (algorithms that measured it) — never guessed.
_WORKLOAD_DELTA: Dict[str, Callable[[Mapping[str, Any]], Optional[int]]] = {
    "random-regular": lambda p: p.get("d"),
    "scale-regular": lambda p: p.get("d"),
    "xl-regular": lambda p: p.get("d"),
    "bipartite-regular": lambda p: p.get("d"),
    "torus": lambda p: 4,
    "hypercube": lambda p: p.get("dim"),
    "complete": lambda p: (p.get("n") or 0) - 1 if p.get("n") else None,
}


def row_delta(row: Mapping[str, Any]) -> Optional[int]:
    """The cell's maximum degree, when the row discloses it: either the
    runner measured it into ``extra["delta"]`` or the workload family
    pins it by construction (d-regular, torus, …). ``None`` otherwise —
    the report renders the bound column as unknown rather than
    recomputing Δ from a graph the reader never rebuilds."""
    extra = row.get("extra")
    if isinstance(extra, Mapping):
        value = extra.get("delta")
        if isinstance(value, (int, float)):
            return int(value)
    derive = _WORKLOAD_DELTA.get(str(row.get("workload")))
    if derive is not None:
        params = row.get("workload_params")
        value = derive(params if isinstance(params, Mapping) else {})
        if isinstance(value, (int, float)) and value > 0:
            return int(value)
    return None


def cell_frame(rows: Sequence[Mapping[str, Any]]) -> Frame:
    """Join store rows with their parsed metrics blobs into one frame.

    Every store column survives untouched; on top of those each record
    gains the hoisted :data:`METRIC_COLUMNS` scalars, ``counters`` (the
    blob's counter snapshot, ``{}`` when absent), ``warning_count``, and
    ``delta`` (see :func:`row_delta`).
    """
    out: List[Dict[str, Any]] = []
    for row in rows:
        metrics = row.get("metrics")
        if not isinstance(metrics, Mapping):
            metrics = {}
        record = dict(row)
        for column in METRIC_COLUMNS:
            value = metrics.get(column)
            record[column] = (
                float(value) if isinstance(value, (int, float)) else None
            )
        counters = metrics.get("counters")
        record["counters"] = dict(counters) if isinstance(counters, Mapping) else {}
        warnings = metrics.get("warnings")
        record["warning_count"] = len(warnings) if isinstance(warnings, (list, tuple)) else 0
        record["delta"] = row_delta(row)
        out.append(record)
    return Frame(out)
