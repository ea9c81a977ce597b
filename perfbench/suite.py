"""The four workloads and one measured pass over a workload.

Every workload is a list of :class:`~repro.analysis.campaign.CampaignCell`
driven through :class:`~repro.analysis.campaign.CampaignRunner` into a
fresh SQLite store, as ``repro campaign cells --store`` runs them. A pass
is that cold campaign plus rendering ``repro report`` from the store.
After each pass the same cells run again against the filled store (the
resume), and every row of both is checked against the pinned outputs.
"""

from __future__ import annotations

import contextlib
import gc
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ENGINE = "vector"

#: ``--seed`` is folded onto this many pairs of grid seeds, so every input
#: the benchmark can make has pinned outputs (see ``pins.json``).
GRID_SEED_PAIRS = 8

#: Workload sizes: ``full`` is what the benchmark measures, ``smoke`` a
#: reduced copy of each workload for the tests.
SIZES = ("full", "smoke")


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int  # campaign worker processes (1 = inline)
    resume_reps: int  # resumes timed after each pass
    cells: Callable[[int, str], List[Any]] = field(repr=False)  # (seed, size)


def _cell(algorithm: str, workload: str, params: Dict[str, Any], seed: int,
          shards: Optional[int] = None):
    from repro import workloads
    from repro.analysis.campaign import CampaignCell

    return CampaignCell(
        algorithm=algorithm,
        workload=workload,
        workload_params=workloads.canonical_params(workload, params),
        seed=seed,
        engine=ENGINE,
        shards=shards,
    )


def _xl_grid(seed: int, size: str, shards: Optional[int] = None) -> List[Any]:
    side = 1_000 if size == "full" else 60
    # xl-grid is unseeded: the seed is recorded but the topology is fixed.
    return [_cell("linial", "xl-grid", {"rows": side, "cols": side}, seed, shards)]


def _paper(seed: int, size: str) -> List[Any]:
    # One fixed instance, like xl-grid's topology: star4's round count
    # varies by up to 20% between star-forest-stack seeds, which would move
    # wall_s by more than a third of its bound from run to run. Seed
    # variety comes from the grid workload.
    del seed
    if size == "full":
        stack = {"n_centers": 40, "leaves_per_center": 124, "a": 2}
        regular = {"n": 400, "d": 16}
    else:
        stack = {"n_centers": 4, "leaves_per_center": 12, "a": 2}
        regular = {"n": 40, "d": 6}
    return [
        _cell("star4", "star-forest-stack", stack, 0),
        _cell("thm52", "star-forest-stack", stack, 0),
        _cell("cd", "random-regular", regular, 0),
    ]


def _grid(seed: int, size: str) -> List[Any]:
    from repro import registry, workloads
    from repro.analysis.campaign import grid_cells

    first = 2 * (seed % GRID_SEED_PAIRS)
    if size == "full":
        return grid_cells(
            registry.names(), workloads.default_grid_names(),
            [first, first + 1], engine=ENGINE,
        )
    return grid_cells(
        ["linial", "cole-vishkin", "thm52"], ["random-tree", "complete"],
        [first], engine=ENGINE,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "xl-linial",
            jobs=1, resume_reps=50,
            cells=lambda seed, size: _xl_grid(seed, size),
        ),
        Workload(
            "xl-linial-sharded",
            jobs=1, resume_reps=50,
            cells=lambda seed, size: _xl_grid(seed, size, shards=4),
        ),
        Workload(
            "paper-pipelines",
            jobs=1, resume_reps=50,
            cells=_paper,
        ),
        Workload(
            "grid",
            jobs=2, resume_reps=1,
            cells=_grid,
        ),
    )
}


@dataclass
class PassResult:
    """What one pass measured; spans are filled only when traced."""

    start: float
    end: float
    rows: List[Dict[str, Any]]
    summary: Dict[str, Any]
    store_bytes: int
    resume_s: List[float] = field(default_factory=list)
    resume_rows: List[List[Dict[str, Any]]] = field(default_factory=list)
    resume_hits: int = 0
    resume_gets: int = 0
    resume_computed: int = 0
    spans: List[Dict[str, Any]] = field(default_factory=list)
    resume_spans: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _row_spans(rows_lists: List[List[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    from perfbench.tracing import ROW_KEY

    seen = set()
    spans: List[Dict[str, Any]] = []
    for rows in rows_lists:
        for row in rows:
            for span in row.get(ROW_KEY) or ():
                if span["id"] not in seen:  # in-run duplicates share a row
                    seen.add(span["id"])
                    spans.append(span)
    return spans


def run_pass(workload: Workload, cells: List[Any], workdir: Path,
             recorder: Optional[Any] = None) -> PassResult:
    """One cold campaign plus report render into a fresh store under
    ``workdir``, then ``workload.resume_reps`` resumes against it. With a
    :class:`~perfbench.tracing.SpanRecorder` the caller has instrumented
    the layers; the report render gets its own span here."""
    from repro.analysis.campaign import CampaignRunner
    from repro.analysis.report import build_report, write_report
    from repro.store import ExperimentStore, RunCache

    workdir.mkdir(parents=True)
    db = workdir / "store.db"
    render_span = (
        recorder.span("report.render") if recorder is not None
        else contextlib.nullcontext()
    )
    try:
        start = time.perf_counter()
        with ExperimentStore(db) as store:
            runner = CampaignRunner(
                cells, engine=ENGINE, jobs=workload.jobs, cache=RunCache(store)
            )
            rows = runner.run()
            with render_span:
                report = build_report(
                    store.query(),
                    summary=store.get_meta("last_campaign"),
                    timestamp="perfbench",
                    store_label=db.name,
                )
                write_report(report, workdir / "report", fmt="all")
        end = time.perf_counter()
        result = PassResult(
            start=start, end=end, rows=rows, summary=runner.last_summary or {},
            store_bytes=sum(
                p.stat().st_size for p in workdir.glob("store.db*") if p.is_file()
            ),
        )
        if recorder is not None:
            result.spans = recorder.take() + _row_spans([rows])
        # Collect the pass's garbage now, so that a resume of a few
        # milliseconds does not pay for it.
        gc.collect()
        for _ in range(workload.resume_reps):
            began = time.perf_counter()
            with ExperimentStore(db) as store:
                cache = RunCache(store)
                runner = CampaignRunner(
                    cells, engine=ENGINE, jobs=workload.jobs, cache=cache
                )
                again = runner.run()
            result.resume_s.append(time.perf_counter() - began)
            result.resume_rows.append(again)
            result.resume_hits += cache.hits
            result.resume_gets += cache.hits + cache.misses
            result.resume_computed += runner.last_progress.computed
        if recorder is not None:
            result.resume_spans = recorder.take() + _row_spans(result.resume_rows)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
