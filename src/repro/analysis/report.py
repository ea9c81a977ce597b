"""The campaign report: publication tables over the verdict-carrying store.

``repro report`` turns one experiment store (and, optionally, a JSONL
trace) into the paper-facing artifacts, rendered three ways from one
deterministic payload:

* **frontier** — per (algorithm × workload): the worst observed palette
  and round counts next to the theoretical palette bound, recomputed
  through :func:`repro.verify.oracles.claimed_palette_bound` — i.e. the
  same ``core/params.py`` formulas (``star_target_colors``,
  ``cd_target_colors``, Section 5's ``palette_bound``) as f(Δ, a, n) —
  from what the rows themselves disclose. Rows that disclose no Δ render
  an unknown bound instead of silently rebuilding graphs.
* **verdicts** — the verification ledger per algorithm (ok/fail/skip/
  error/unverified), straight off the store's verdict column.
* **campaign** — wall/queue/utilization breakdowns from the schema-v3
  metrics blobs and the persisted ``last_campaign`` summary.

Renderers: markdown, CSV, and a single self-contained static HTML file
(inline CSS, inline SVG charts and span timeline, no JS, no external
assets). Every renderer is byte-deterministic given the injected
``timestamp`` — no wall-clock reads happen here — so CI byte-compares
re-renders of the same store.
"""

from __future__ import annotations

import csv
import html as _html
import io
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.dataframes import (
    Frame,
    agg_count,
    agg_max,
    agg_mean,
    agg_median,
    agg_min,
    agg_sum,
    cell_frame,
)

__all__ = [
    "build_report",
    "palette_frontier",
    "verdict_summary",
    "campaign_breakdown",
    "row_palette_bound",
    "render_markdown",
    "render_csv",
    "render_html",
    "write_report",
    "REPORT_FORMATS",
]

REPORT_FORMATS = ("html", "md", "csv", "all")

FRONTIER_COLUMNS = (
    "algorithm", "workload", "cells", "colors_max", "palette_bound",
    "within_bound", "rounds_max", "rounds_modeled_max",
)
VERDICT_COLUMNS = (
    "algorithm", "cells", "ok", "fail", "skip", "error", "unverified",
    "errored_rows",
)


def _num(value: Any) -> str:
    """Deterministic scalar formatting shared by every renderer."""
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return repr(value)
        text = f"{value:.3f}".rstrip("0").rstrip(".")
        return text if text not in ("", "-") else "0"
    return str(value)


# -- palette bounds over rows ------------------------------------------------

class _BoundUnknown(Exception):
    """The row does not disclose the quantity the bound formula needs."""


class _RowOracleView:
    """Duck-typed :class:`~repro.verify.oracles.OracleContext` stand-in
    built from one store row — no graph behind it. ``delta`` and
    ``arboricity`` resolve from the row's disclosures (the runner's
    ``extra`` dict, or a workload family that pins Δ by construction)
    and raise :class:`_BoundUnknown` otherwise, so a bound function that
    needs an undisclosed quantity yields "unknown", never a wrong
    number."""

    __slots__ = ("extra", "params", "algorithm", "n", "m", "_delta")

    def __init__(self, row: Mapping[str, Any]):
        extra = row.get("extra")
        self.extra = extra if isinstance(extra, Mapping) else {}
        params = row.get("algo_params")
        self.params = params if isinstance(params, Mapping) else {}
        self.algorithm = row.get("algorithm")
        self.n = int(row.get("n") or 0)
        self.m = int(row.get("m") or 0)
        delta = row.get("delta")
        if delta is None:
            from repro.analysis.dataframes import row_delta

            delta = row_delta(row)
        self._delta = delta

    @property
    def delta(self) -> int:
        if self._delta is None:
            raise _BoundUnknown("row discloses no Delta")
        return int(self._delta)

    @property
    def arboricity(self) -> int:
        value = self.extra.get("arboricity")
        if not isinstance(value, (int, float)):
            raise _BoundUnknown("row discloses no arboricity")
        return int(value)


def row_palette_bound(row: Mapping[str, Any]) -> Optional[int]:
    """The palette bound the row's algorithm claims on this instance,
    recomputed from the registered bound formulas (which delegate to
    ``core/params.py``), or ``None`` when the algorithm states no exact
    bound or the row lacks the disclosures the formula needs."""
    from repro.verify.oracles import claimed_palette_bound

    try:
        bound = claimed_palette_bound(str(row.get("algorithm")), _RowOracleView(row))
    except _BoundUnknown:
        return None
    except (TypeError, ValueError, KeyError, ArithmeticError):
        # A bound formula choking on partial disclosures means "no
        # computable bound" for this row, not a report crash.
        return None
    return int(bound) if isinstance(bound, (int, float)) else None


# -- report sections ---------------------------------------------------------

def palette_frontier(frame: Frame) -> List[Dict[str, Any]]:
    """Per (algorithm × workload): worst observed colors/rounds across
    seeds and engines vs the claimed palette bound (the max claimed
    bound across the group's instances — bounds vary with the seeded
    instance's Δ). Errored rows are excluded: they have no frontier."""
    out: List[Dict[str, Any]] = []
    clean = frame.where(lambda r: not r.get("error"))
    for (algorithm, workload), group in clean.group_by("algorithm", "workload"):
        colors = group.column("colors_used", drop_none=True)
        rounds = group.column("rounds_actual", drop_none=True)
        modeled = group.column("rounds_modeled", drop_none=True)
        bounds = [b for b in (row_palette_bound(r) for r in group) if b is not None]
        bound = max(bounds) if len(bounds) == len(group) and bounds else None
        colors_max = max(colors) if colors else None
        out.append({
            "algorithm": algorithm,
            "workload": workload,
            "cells": len(group),
            "colors_max": colors_max,
            "palette_bound": bound,
            "within_bound": (
                None if bound is None or colors_max is None
                else colors_max <= bound
            ),
            "rounds_max": max(rounds) if rounds else None,
            "rounds_modeled_max": max(modeled) if modeled else None,
        })
    return out


def verdict_summary(frame: Frame) -> List[Dict[str, Any]]:
    """The verification ledger per algorithm: one count per verdict
    state, ``unverified`` for rows without a verdict (pre-migration or
    verify-disabled campaigns), ``errored_rows`` for rows whose run
    itself errored."""
    out: List[Dict[str, Any]] = []
    for (algorithm,), group in frame.group_by("algorithm"):
        record: Dict[str, Any] = {
            "algorithm": algorithm,
            "cells": len(group),
            "ok": 0, "fail": 0, "skip": 0, "error": 0,
            "unverified": 0,
            "errored_rows": len(group.where(lambda r: bool(r.get("error")))),
        }
        for row in group:
            verdict = row.get("verdict")
            if verdict in ("ok", "fail", "skip", "error"):
                record[verdict] += 1
            else:
                record["unverified"] += 1
        out.append(record)
    return out


def _distribution(frame: Frame, column: str) -> Optional[Dict[str, Any]]:
    values = frame.column(column, drop_none=True)
    if not values:
        return None
    return {
        "count": agg_count(values),
        "min": round(agg_min(values), 3),
        "median": round(agg_median(values), 3),
        "mean": round(agg_mean(values), 3),
        "max": round(agg_max(values), 3),
    }


def campaign_breakdown(
    frame: Frame, summary: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """Wall/queue/utilization breakdowns from the per-cell metrics blobs
    plus the persisted ``last_campaign`` runner summary (the only place
    a cache-hit rate can come from)."""
    phase_totals = {
        phase: round(agg_sum(frame.column(phase, drop_none=True)), 3)
        if frame.column(phase, drop_none=True) else None
        for phase in ("build_ms", "compute_ms", "verify_ms", "total_ms")
    }
    breakdown: Dict[str, Any] = {
        "cells": len(frame),
        "pre_v3": len(frame.where(has_metrics=False)),
        "errored_rows": len(frame.where(lambda r: bool(r.get("error")))),
        "wall_ms": _distribution(frame, "wall_ms"),
        "queue_ms": _distribution(frame, "queue_ms"),
        "phase_ms_total": phase_totals,
        "window_max": agg_max(frame.column("window", drop_none=True))
        if frame.column("window", drop_none=True) else None,
        "sharded_cells": len(frame.where(lambda r: r.get("shards"))),
    }
    if isinstance(summary, Mapping):
        done = summary.get("done", 0) or 0
        hits = summary.get("hits", 0) or 0
        breakdown["last_campaign"] = {
            key: summary.get(key)
            for key in (
                "done", "hits", "computed", "errors", "retried",
                "elapsed_s", "jobs", "engine", "worker_utilization",
            )
        }
        breakdown["last_campaign"]["hit_rate"] = (
            round(hits / done, 4) if done else None
        )
    else:
        breakdown["last_campaign"] = None
    return breakdown


# -- assembly ----------------------------------------------------------------

def build_report(
    rows: Sequence[Mapping[str, Any]],
    *,
    summary: Optional[Mapping[str, Any]] = None,
    events: Optional[Sequence[Mapping[str, Any]]] = None,
    timestamp: str = "",
    store_label: str = "",
) -> Dict[str, Any]:
    """The one deterministic payload every renderer consumes. ``rows``
    are store query results; ``summary`` the persisted ``last_campaign``
    meta; ``events`` decoded trace events for the timeline;
    ``timestamp`` the *injected* generation stamp — this function never
    reads a clock."""
    frame = cell_frame(rows)
    counters: Dict[str, float] = {}
    for row in frame:
        for key, value in row["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {
        "v": 1,
        "generated_at": timestamp,
        "store": store_label,
        "cells": len(frame),
        "frontier": palette_frontier(frame),
        "verdicts": verdict_summary(frame),
        "campaign": campaign_breakdown(frame, summary),
        "counters": dict(sorted(counters.items())),
        "events": list(events) if events else [],
    }


# -- markdown ----------------------------------------------------------------

def _md_table(columns: Sequence[str], records: Sequence[Mapping[str, Any]]) -> str:
    header = "| " + " | ".join(columns) + " |"
    rule = "|" + "|".join("---" for _ in columns) + "|"
    body = [
        "| " + " | ".join(_num(rec.get(c)) for c in columns) + " |"
        for rec in records
    ]
    return "\n".join([header, rule, *body])


def _campaign_records(campaign: Mapping[str, Any]) -> List[Dict[str, Any]]:
    records = [
        {"key": "cells", "value": campaign["cells"]},
        {"key": "pre_v3 rows", "value": campaign["pre_v3"]},
        {"key": "errored rows", "value": campaign["errored_rows"]},
        {"key": "sharded cells", "value": campaign["sharded_cells"]},
        {"key": "max in-flight window", "value": campaign["window_max"]},
    ]
    for phase, total in campaign["phase_ms_total"].items():
        records.append({"key": f"{phase} total", "value": total})
    for dist_name in ("wall_ms", "queue_ms"):
        dist = campaign[dist_name]
        if dist:
            records.append({
                "key": f"{dist_name} (min/med/mean/max)",
                "value": (
                    f"{_num(dist['min'])} / {_num(dist['median'])} / "
                    f"{_num(dist['mean'])} / {_num(dist['max'])}"
                ),
            })
    last = campaign.get("last_campaign")
    if last:
        records.append({
            "key": "last campaign",
            "value": (
                f"{_num(last.get('done'))} done, {_num(last.get('hits'))} hits "
                f"(rate {_num(last.get('hit_rate'))}), "
                f"{_num(last.get('computed'))} computed, "
                f"{_num(last.get('errors'))} errors, "
                f"{_num(last.get('retried'))} retried, "
                f"{_num(last.get('elapsed_s'))}s elapsed"
            ),
        })
        records.append({
            "key": "worker utilization",
            "value": (
                f"{_num(last.get('worker_utilization'))} "
                f"(jobs={_num(last.get('jobs'))}, engine={_num(last.get('engine'))})"
            ),
        })
    return records


def render_markdown(report: Mapping[str, Any]) -> str:
    lines: List[str] = []
    lines.append("# Campaign report")
    lines.append("")
    lines.append(
        f"generated: {report['generated_at']} · store: {report['store'] or '(unnamed)'}"
        f" · {report['cells']} cells"
    )
    lines.append("")
    lines.append("## Color/round frontier vs claimed palette bounds")
    lines.append("")
    if report["frontier"]:
        lines.append(_md_table(FRONTIER_COLUMNS, report["frontier"]))
    else:
        lines.append("(no rows)")
    lines.append("")
    lines.append("## Verification verdicts")
    lines.append("")
    if report["verdicts"]:
        lines.append(_md_table(VERDICT_COLUMNS, report["verdicts"]))
    else:
        lines.append("(no rows)")
    lines.append("")
    lines.append("## Campaign breakdown")
    lines.append("")
    lines.append(_md_table(("key", "value"), _campaign_records(report["campaign"])))
    lines.append("")
    return "\n".join(lines)


# -- CSV ---------------------------------------------------------------------

def _csv_text(columns: Sequence[str], records: Sequence[Mapping[str, Any]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        writer.writerow(["" if rec.get(c) is None else rec.get(c) for c in columns])
    return buffer.getvalue()


def render_csv(report: Mapping[str, Any]) -> Dict[str, str]:
    """One CSV per section, keyed by file name."""
    return {
        "frontier.csv": _csv_text(FRONTIER_COLUMNS, report["frontier"]),
        "verdicts.csv": _csv_text(VERDICT_COLUMNS, report["verdicts"]),
        "campaign.csv": _csv_text(
            ("key", "value"), _campaign_records(report["campaign"])
        ),
    }


# -- HTML --------------------------------------------------------------------

_CSS = """
body { font-family: Georgia, 'Times New Roman', serif; margin: 2rem auto;
       max-width: 72rem; color: #1a1a1a; line-height: 1.45; }
h1, h2 { font-weight: 600; }
h2 { border-bottom: 1px solid #ccc; padding-bottom: 0.2rem; margin-top: 2rem; }
p.meta { color: #555; }
table { border-collapse: collapse; margin: 0.75rem 0; font-size: 0.92rem; }
th, td { border: 1px solid #bbb; padding: 0.25rem 0.6rem; text-align: left; }
th { background: #f0ede6; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
tr.flagged td { background: #fde8e8; }
svg { display: block; margin: 0.75rem 0; }
.bar { fill: #4a6fa5; }
.lane-label, .axis { font-family: monospace; font-size: 11px; fill: #333; }
.span-rect { fill: #4a6fa5; opacity: 0.85; }
.gate-line { stroke: #a4262c; stroke-width: 1.5; }
"""


def _esc(value: Any) -> str:
    return _html.escape(_num(value))


def _html_table(
    columns: Sequence[str],
    records: Sequence[Mapping[str, Any]],
    flag_key: Optional[str] = None,
) -> str:
    """``flag_key`` marks rows whose value under that key is exactly
    ``False`` (tri-state columns: ``None`` means "unknown", not bad)."""
    parts = ["<table>", "<tr>" + "".join(f"<th>{_esc(c)}</th>" for c in columns) + "</tr>"]
    for rec in records:
        flagged = flag_key is not None and rec.get(flag_key) is False
        cls = ' class="flagged"' if flagged else ""
        cells = "".join(
            f'<td class="num">{_esc(rec.get(c))}</td>'
            if isinstance(rec.get(c), (int, float)) and not isinstance(rec.get(c), bool)
            else f"<td>{_esc(rec.get(c))}</td>"
            for c in columns
        )
        parts.append(f"<tr{cls}>{cells}</tr>")
    parts.append("</table>")
    return "\n".join(parts)


def _svg_bars(
    entries: Sequence[Tuple[str, Optional[float], Optional[float]]],
    *,
    width: int = 720,
    label_w: int = 260,
    bar_h: int = 16,
    gap: int = 6,
    unit: str = "",
) -> str:
    """A horizontal bar chart: one ``(label, value, reference)`` row
    each; ``reference`` (the bound/threshold) draws as a red tick on the
    same scale. Pure inline SVG, deterministic coordinates."""
    drawable = [(l, v, r) for l, v, r in entries if v is not None]
    if not drawable:
        return "<p>(nothing to chart)</p>"
    scale_max = max(
        [v for _, v, _ in drawable] + [r for _, _, r in drawable if r is not None]
    )
    scale_max = scale_max or 1.0
    plot_w = width - label_w - 80
    height = len(drawable) * (bar_h + gap) + gap
    parts = [
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}" '
        'xmlns="http://www.w3.org/2000/svg" role="img">'
    ]
    y = gap
    for label, value, ref in drawable:
        w = round(plot_w * float(value) / scale_max, 2)
        parts.append(
            f'<text class="lane-label" x="{label_w - 6}" y="{y + bar_h - 4}" '
            f'text-anchor="end">{_html.escape(str(label))}</text>'
        )
        parts.append(
            f'<rect class="bar" x="{label_w}" y="{y}" width="{w}" height="{bar_h}"/>'
        )
        if ref is not None:
            rx = round(label_w + plot_w * float(ref) / scale_max, 2)
            parts.append(
                f'<line class="gate-line" x1="{rx}" y1="{y - 2}" '
                f'x2="{rx}" y2="{y + bar_h + 2}"/>'
            )
        parts.append(
            f'<text class="axis" x="{label_w + max(w, 0) + 6}" '
            f'y="{y + bar_h - 4}">{_esc(value)}{_html.escape(unit)}</text>'
        )
        y += bar_h + gap
    parts.append("</svg>")
    return "\n".join(parts)


def _svg_timeline(
    events: Sequence[Mapping[str, Any]],
    *,
    width: int = 960,
    label_w: int = 200,
    lane_h: int = 22,
    max_spans_per_lane: int = 400,
) -> str:
    """Per-lane span timeline as inline SVG. Lanes come from
    :func:`repro.obs.render.timeline_lanes` — the same grouping the
    ``repro trace show`` text renderer uses, including the synthetic
    per-shard-worker lanes — so both views of a trace always agree."""
    from repro.obs.render import timeline_lanes

    lanes = []
    for label, group in timeline_lanes(events):
        spans = [
            e for e in group
            if e.get("kind") == "span"
            and isinstance(e.get("ts_ms"), (int, float))
            and isinstance(e.get("dur_ms"), (int, float))
        ][:max_spans_per_lane]
        if spans:
            lanes.append((label, spans))
    if not lanes:
        return "<p>(no spans in trace)</p>"
    t0 = min(e["ts_ms"] - e["dur_ms"] for _, spans in lanes for e in spans)
    t1 = max(e["ts_ms"] for _, spans in lanes for e in spans)
    extent = (t1 - t0) or 1.0
    plot_w = width - label_w - 20
    height = len(lanes) * lane_h + 24
    parts = [
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}" '
        'xmlns="http://www.w3.org/2000/svg" role="img">'
    ]
    y = 4
    for label, spans in lanes:
        parts.append(
            f'<text class="lane-label" x="{label_w - 6}" y="{y + lane_h - 8}" '
            f'text-anchor="end">{_html.escape(label)}</text>'
        )
        for event in spans:
            start = event["ts_ms"] - event["dur_ms"]
            x = round(label_w + plot_w * (start - t0) / extent, 2)
            w = max(round(plot_w * event["dur_ms"] / extent, 2), 0.5)
            title = (
                f"{event.get('name')} {event['dur_ms']:.3f}ms "
                f"@{start:.3f}ms"
            )
            parts.append(
                f'<rect class="span-rect" x="{x}" y="{y + 2}" width="{w}" '
                f'height="{lane_h - 8}"><title>{_html.escape(title)}</title></rect>'
            )
        y += lane_h
    parts.append(
        f'<text class="axis" x="{label_w}" y="{height - 6}">'
        f"{t0:.1f}ms … {t1:.1f}ms</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)


def render_html(report: Mapping[str, Any]) -> str:
    """The single self-contained static artifact: inline CSS, inline
    SVG, zero JS, zero external fetches."""
    frontier_entries = [
        (
            f"{rec['algorithm']} · {rec['workload']}",
            float(rec["colors_max"]) if rec["colors_max"] is not None else None,
            float(rec["palette_bound"]) if rec["palette_bound"] is not None else None,
        )
        for rec in report["frontier"]
    ]
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>Campaign report</title>",
        f"<style>{_CSS}</style>",
        "</head><body>",
        "<h1>Campaign report</h1>",
        f'<p class="meta">generated: {_esc(report["generated_at"])} · '
        f'store: {_esc(report["store"] or "(unnamed)")} · '
        f'{_esc(report["cells"])} cells</p>',
        "<h2>Color/round frontier vs claimed palette bounds</h2>",
        "<p>Worst observed palette per (algorithm × workload) against the "
        "bound the algorithm claims on the instance — recomputed from the "
        "registered bound formulas (<code>core/params.py</code>) as "
        "f(Δ, a, n) over what the rows disclose. Red ticks mark the claimed "
        "bound.</p>",
    ]
    if report["frontier"]:
        parts.append(
            _html_table(FRONTIER_COLUMNS, report["frontier"], flag_key="within_bound")
        )
        parts.append(_svg_bars(frontier_entries, unit=" colors"))
    else:
        parts.append("<p>(no rows)</p>")
    parts.append("<h2>Verification verdicts</h2>")
    if report["verdicts"]:
        parts.append(_html_table(VERDICT_COLUMNS, report["verdicts"]))
    else:
        parts.append("<p>(no rows)</p>")
    parts.append("<h2>Campaign breakdown</h2>")
    parts.append(_html_table(("key", "value"), _campaign_records(report["campaign"])))
    parts.append("<h2>Span timeline</h2>")
    if report["events"]:
        parts.append(_svg_timeline(report["events"]))
    else:
        parts.append("<p>(no trace supplied — pass <code>--trace</code>)</p>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


# -- output ------------------------------------------------------------------

def write_report(
    report: Mapping[str, Any], out_dir: Any, fmt: str = "all"
) -> List[Path]:
    """Render ``report`` into ``out_dir`` (``report.html``,
    ``report.md``, and/or the per-section CSVs) and return the written
    paths in sorted order."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}; use one of {REPORT_FORMATS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    if fmt in ("html", "all"):
        path = out / "report.html"
        path.write_text(render_html(report), encoding="utf-8")
        written.append(path)
    if fmt in ("md", "all"):
        path = out / "report.md"
        path.write_text(render_markdown(report), encoding="utf-8")
        written.append(path)
    if fmt in ("csv", "all"):
        for name, text in sorted(render_csv(report).items()):
            path = out / name
            path.write_text(text, encoding="utf-8")
            written.append(path)
    return sorted(written)
