"""Cell campaigns: fan (algorithm x workload x seed) grids across a
process pool and persist every cell's row.

Every cell is one ``(algorithm x workload x seed)`` triple resolved
through :mod:`repro.registry` and :mod:`repro.workloads`, executed under
a per-cell engine choice (see :mod:`repro.engine`) and streamed across
``--jobs`` worker processes. Results are structured JSON rows —
wall-clock, colors, rounds, messages, verdicts — that the store, the
report and the tables consume uniformly::

    python -m repro campaign cells --engine vector --jobs 8 --out cells.json

The executor is a *windowed* ``as_completed`` stream: at most a bounded
number of payloads/futures exist at any moment (a 100k-cell grid never
materializes in memory), every resolved cell is handed to the attached
:class:`~repro.store.RunCache` the instant its future completes (so a
SIGKILL loses at most the in-flight window), transient failures are
retried per cell, and a ``BrokenProcessPool`` costs only the in-flight
cells — the pool is rebuilt and the campaign resumes.

The paper's tables are not a campaign: their one persisted snapshot is
the generated block of ``EXPERIMENTS.md`` (see
:mod:`repro.analysis.experiments`).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import workloads as _workloads
from repro.errors import InvalidParameterError
from repro.store.cache import RunCache

PathLike = Union[str, Path]

CELL_CAMPAIGN_FORMAT = 2


def _library_version() -> str:
    import repro

    return repro.__version__


@dataclass(frozen=True)
class CampaignCell:
    """One schedulable unit: algorithm x workload x seed, plus overrides.

    ``engine`` selects the execution engine for this cell alone; ``None``
    defers to the runner-wide choice. The whole cell is a plain picklable
    description so process-pool workers rebuild everything locally.

    ``shards`` requests sharded out-of-core execution (see
    :mod:`repro.shard`). It is deliberately *not* part of :meth:`key`:
    sharded runs are bit-identical to unsharded ones, so the same run key
    lets sharded and unsharded campaigns share cache rows and lets CI
    byte-compare their stores.
    """

    algorithm: str
    workload: str
    workload_params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    algo_params: Mapping[str, Any] = field(default_factory=dict)
    engine: Optional[str] = None
    shards: Optional[int] = None

    def key(self) -> str:
        wp = ",".join(f"{k}={v}" for k, v in sorted(self.workload_params.items()))
        ap = ",".join(f"{k}={v}" for k, v in sorted(self.algo_params.items()))
        return f"{self.algorithm}|{self.workload}({wp})|seed={self.seed}|{ap}"


#: Value types a dict may hold and still be shared between rows.
_FLAT = frozenset({str, int, float, bool, type(None)})


def _shared_values(value: Any, memo: Dict[str, Any]) -> Any:
    """``value`` with its strings interned and its flat dicts and floats
    shared.

    Every row arrives as fresh objects (unpickled from a worker or decoded
    from the store), yet its field names, metric names, labels and most
    values repeat from row to row, and so do whole flat dicts: workload
    and algorithm params, ``extra`` and the metrics counters. A runner
    returns all of its rows, so interned they share one copy of each
    string, and ``memo`` — one per :meth:`CampaignRunner.run` — hands
    every content-equal flat dict and every equal float the first one's
    object. ``repr`` is the key: it keeps key order and tells ``1`` from
    ``1.0`` from ``True``. A timer's total and maximum, decoded from the
    store as two floats, become one. Nothing mutates a returned row."""
    if isinstance(value, dict):
        out = {
            sys.intern(k) if isinstance(k, str) else k: _shared_values(v, memo)
            for k, v in value.items()
        }
        if all(type(v) in _FLAT for v in out.values()):
            return memo.setdefault(repr(out), out)
        return out
    if isinstance(value, list):
        return [_shared_values(v, memo) for v in value]
    if isinstance(value, str):
        return sys.intern(value)
    if type(value) is float:
        return memo.setdefault(repr(value), value)
    return value


def _freeze_gc() -> None:
    """Pool worker initializer: move the heap the worker inherited (the
    imported library) into the permanent generation.

    The pipeline glue reads its transient subgraphs and line graphs
    without caching nx views, so refcounting frees them; cyclic garbage
    from elsewhere (networkx's own routines, exception tracebacks) still
    waits for a full collection. With the inherited heap frozen, full
    collections fire sooner and scan only what the cells allocated, which
    keeps a worker's peak RSS flat when the kernels leave few per-node
    objects to trigger collections."""
    import gc

    gc.freeze()


def _new_pool(workers: int) -> ProcessPoolExecutor:
    """The campaign's worker pool — the first one and every rebuild after
    a ``BrokenProcessPool`` — with the freezing initializer."""
    return ProcessPoolExecutor(max_workers=workers, initializer=_freeze_gc)


def _row_base(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The payload-echo header every campaign row starts from — computed
    rows and synthesized error rows share one schema by construction."""
    return {
        "algorithm": payload["algorithm"],
        "workload": payload["workload"],
        "workload_params": dict(payload["workload_params"]),
        "seed": payload["seed"],
        "algo_params": dict(payload["algo_params"]),
        "engine": payload["engine"],
    }


#: Version stamp of the per-cell metrics blob (the store's ``metrics``
#: column). Bump when the blob's shape changes; readers must tolerate
#: older stamps. v2 adds the optional ``shards`` disclosure (the shard
#: count a cell actually executed with).
METRICS_VERSION = 2


def _execute_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: build the graph, run through the registry under
    the requested engine, run the algorithm's declared invariant oracles
    (see :mod:`repro.verify`) while graph and output are still in hand,
    and report one structured row carrying the verdict. Errors are
    isolated per cell — a failing cell never takes the campaign down.

    Every cell executes under its own :func:`repro.obs.collect` scope:
    phase timings (build/compute/verify), the cell's counter snapshot
    (kernel dispatches and declines, engine rounds and delegations) and
    any warnings the run raised are folded into a ``metrics`` blob on the
    row — observation only; nothing in the blob feeds back into the
    deterministic columns or the run key. With
    ``REPRO_TRACE`` set (inherited by forked pool workers) the scope also
    streams span/point events to the per-run JSONL trace file.
    """
    import contextlib
    import warnings as _warnings

    from repro import obs, registry
    from repro.engine import record_engine_runs
    from repro.kernels.program import release_heap

    row: Dict[str, Any] = _row_base(payload)
    cell_started = time.perf_counter()
    build_ms: Optional[float] = None
    wall_ms: Optional[float] = None
    verify_ms: Optional[float] = None
    shards_used: Optional[int] = None
    with obs.collect(trace_path=obs.trace_path_from_env()) as runtime, \
            _warnings.catch_warnings(record=True) as caught:
        # Record every warning (no "once" dedup inside the cell — the
        # runner dedupes across the campaign) without leaking them to the
        # worker's stderr; the blob and the runner's re-emit are the
        # user-facing channel.
        _warnings.simplefilter("always")
        try:
            if runtime.trace is not None:
                runtime.emit("point", "campaign.cell", cell=CampaignCell(
                    algorithm=payload["algorithm"],
                    workload=payload["workload"],
                    workload_params=payload["workload_params"],
                    seed=payload["seed"],
                    algo_params=payload["algo_params"],
                    engine=payload["engine"],
                ).key())
            with obs.span("campaign.build", workload=payload["workload"]):
                graph = _workloads.build(
                    payload["workload"], payload["workload_params"],
                    seed=payload["seed"],
                )
            build_ms = (time.perf_counter() - cell_started) * 1000.0
            release_heap()  # the build's temporaries, before the run
            started = time.perf_counter()
            with contextlib.ExitStack() as stack:
                if payload.get("shards"):
                    shards_used = _enter_sharding(
                        stack, graph, payload, obs
                    )
                with record_engine_runs() as engines_ran:
                    run = registry.run(
                        payload["algorithm"],
                        graph,
                        engine=payload["engine"],
                        **payload["algo_params"],
                    )
            wall_ms = (time.perf_counter() - started) * 1000.0
            # Provenance honesty: if the cell pinned an engine but a different
            # scheduler actually executed (a vector engine delegation),
            # say so in the row — the store's ``engine`` column must keep the
            # run-key's pinned value, so the disclosure lives in ``extra``.
            effective = "+".join(engines_ran)
            if engines_ran and payload["engine"] and effective != payload["engine"]:
                run.extra = dict(run.extra, effective_engine=effective)
            from repro.verify import verify_run

            verify_started = time.perf_counter()
            with obs.span("campaign.verify", algorithm=payload["algorithm"]):
                outcome = verify_run(graph, run, params=payload["algo_params"])
            verify_ms = (time.perf_counter() - verify_started) * 1000.0
            row.update(
                n=graph.number_of_nodes(),
                m=graph.number_of_edges(),
                kind=run.kind,
                colors_used=run.colors_used,
                rounds_actual=run.rounds_actual,
                rounds_modeled=run.rounds_modeled,
                wall_ms=wall_ms,
                extra=run.extra,
                verified=outcome.status == "ok",
                verdict=outcome.status,
                violation=outcome.violation,
                error=None,
            )
        except Exception as exc:  # noqa: BLE001 - per-cell isolation is the contract
            row.update(error=f"{type(exc).__name__}: {exc}")
        row["metrics"] = _cell_metrics(
            runtime,
            caught,
            build_ms=build_ms,
            compute_ms=wall_ms,
            verify_ms=verify_ms,
            total_ms=(time.perf_counter() - cell_started) * 1000.0,
            shards=shards_used,
        )
    return row


def _enter_sharding(stack, graph, payload: Dict[str, Any], obs) -> Optional[int]:
    """Install a sharded-execution scope on ``stack`` for a cell that
    requested ``shards``: partition the built workload graph into a
    per-cell temporary bundle and run inline (campaign workers are
    already one process per cell; nesting a shard pool would
    oversubscribe). Non-compact workloads cannot shard — the fallthrough
    is disclosed, never silent. Returns the shard count actually
    installed (None when fallen through), for the metrics blob."""
    import tempfile

    from repro.graphcore import CompactGraph
    from repro.shard import partition as _partition
    from repro.shard import sharding as _sharding

    shards = int(payload["shards"])
    if not isinstance(graph, CompactGraph):
        obs.incr(
            "shard.fallback",
            reason="non-compact-workload",
            algorithm=payload["algorithm"],
        )
        return None
    tmpdir = stack.enter_context(
        tempfile.TemporaryDirectory(prefix="repro-shards-")
    )
    with obs.span("shard.partition", shards=shards, n=graph.n):
        bundle = _partition(graph, shards, tmpdir)
    stack.enter_context(_sharding(graph, bundle, inline=True))
    return shards


def _cell_metrics(
    runtime: "Any",
    caught: Sequence[Any],
    build_ms: Optional[float],
    compute_ms: Optional[float],
    verify_ms: Optional[float],
    total_ms: float,
    shards: Optional[int] = None,
) -> Dict[str, Any]:
    """The per-cell metrics blob: phase timings, the counter/timer
    snapshot, and the (category, message) list of warnings the cell
    raised. Plain JSON by construction — it rides the row back over the
    pool and into the store's ``metrics`` column."""
    snapshot = runtime.snapshot()
    warning_pairs: List[List[str]] = []
    for item in caught:
        pair = [type(item.message).__name__, str(item.message)]
        if pair not in warning_pairs:
            warning_pairs.append(pair)
    blob: Dict[str, Any] = {
        "v": METRICS_VERSION,
        "total_ms": round(total_ms, 3),
        "counters": snapshot["counters"],
        "timers": snapshot["timers"],
    }
    if shards is not None:
        blob["shards"] = shards
    if build_ms is not None:
        blob["build_ms"] = round(build_ms, 3)
    if compute_ms is not None:
        blob["compute_ms"] = round(compute_ms, 3)
    if verify_ms is not None:
        blob["verify_ms"] = round(verify_ms, 3)
    if warning_pairs:
        blob["warnings"] = warning_pairs
    return blob


def _reemit_warning(category: str, message: str) -> None:
    """Surface one deduped worker warning from the runner process.

    Cells capture their warnings into the metrics blob (a vector campaign
    over an algorithm with no program would otherwise print one identical
    ``EngineFallbackWarning`` per cell); the runner re-raises
    each distinct (category, message) pair exactly once per campaign,
    mapped back to its real category where the library defines it."""
    import warnings as _warnings

    from repro.engine import EngineFallbackWarning

    categories = {
        "EngineFallbackWarning": EngineFallbackWarning,
        "DeprecationWarning": DeprecationWarning,
        "RuntimeWarning": RuntimeWarning,
    }
    _warnings.warn(
        f"[campaign] {message}",
        categories.get(category, UserWarning),
        stacklevel=3,
    )


def _error_row(payload: Dict[str, Any], message: str) -> Dict[str, Any]:
    """The row shape :func:`_execute_cell` produces for a cell that never
    yielded a result at all (worker process died, result undeliverable)."""
    return dict(_row_base(payload), error=message)


@dataclass
class CampaignProgress:
    """Live counters of a streaming campaign, handed to the ``progress``
    callback after every resolved cell (cache hit, computed row, retry).

    ``done = hits + computed``; ``hits`` counts cells served without
    executing (store hits and in-run duplicates of an already-executed
    key); ``errors`` counts computed rows whose final attempt still
    failed; ``retried`` counts re-submissions. ``elapsed_s`` measures
    from the start of *computing* — the clock re-anchors while hits are
    being served — so ``eta_s``, which extrapolates the per-computed-cell
    rate over the remaining cells, is not inflated by a long warm-resume
    hit scan; it is ``None`` until the first computed cell lands. The
    callback receives the same (mutated) instance each time — treat it
    as read-only.
    """

    total: int
    done: int = 0
    hits: int = 0
    computed: int = 0
    errors: int = 0
    retried: int = 0
    elapsed_s: float = 0.0

    @property
    def rate(self) -> Optional[float]:
        """Computed cells per second of compute-anchored wall time, or
        ``None`` before the first computed cell lands (a pure hit scan
        has no meaningful compute rate)."""
        if self.computed <= 0 or self.elapsed_s <= 0:
            return None
        return self.computed / self.elapsed_s

    @property
    def eta_s(self) -> Optional[float]:
        """Remaining-cell extrapolation of :attr:`rate` — derived from
        ``computed`` (cells that actually cost wall time), never from
        ``done``, so a warm resume serving thousands of hits does not
        collapse the estimate toward zero."""
        rate = self.rate
        if rate is None:
            return None
        return (self.total - self.done) / rate


class _ProgressTracker:
    """Owns one :class:`CampaignProgress` and pushes it to the callback."""

    def __init__(self, callback: Optional[Callable[[CampaignProgress], None]], total: int):
        self._callback = callback
        self._started = time.monotonic()
        self.progress = CampaignProgress(total=total)

    def hit(self) -> None:
        self.progress.done += 1
        self.progress.hits += 1
        if self.progress.computed == 0:
            # still serving hits — anchor the ETA clock at compute start
            self._started = time.monotonic()
        self._emit()

    def computed(self, row: Mapping[str, Any]) -> None:
        self.progress.done += 1
        self.progress.computed += 1
        if row.get("error"):
            self.progress.errors += 1
        self._emit()

    def retried(self) -> None:
        self.progress.retried += 1
        self._emit()

    def _emit(self) -> None:
        if self._callback is None:
            return
        self.progress.elapsed_s = time.monotonic() - self._started
        self._callback(self.progress)


class CampaignRunner:
    """Stream registered (algorithm x workload x seed) cells across a
    process pool with per-cell engine selection and an optional run cache.

    ``engine`` is the default for cells that do not pin one; ``jobs`` is
    the worker-process count (1 = run inline, no pool). Results come back
    in cell order regardless of completion order.

    The pool path is a windowed ``as_completed`` stream: at most
    ``2 * jobs`` payloads/futures are in flight, so
    arbitrarily large grids run in bounded memory. A cell whose final
    attempt errored gets an error row; ``retries`` extra attempts are
    made first (transient failures heal, deterministic ones just repeat).
    A ``BrokenProcessPool`` (worker SIGKILLed, OOM, segfault) costs only
    the in-flight cells: each gets one requeue (more with ``retries``)
    on a fresh pool before an error row is recorded, and the campaign
    continues instead of aborting.

    With a :class:`~repro.store.RunCache` attached, cells whose
    content-addressed key is already in the store are served from SQLite
    without touching the pool, and every freshly-computed cell is recorded
    the instant its future resolves — regardless of cell order, so killing
    the process mid-campaign loses at most the in-flight window, and
    rerunning the same command finishes the rest. Cells that resolve to
    the same run key (an unseeded workload swept across seeds) execute
    once and share the computed row. Cached rows carry ``cached=True``
    and their ``run_key``.

    ``progress`` is an optional callback receiving a
    :class:`CampaignProgress` snapshot after every resolved cell.
    """

    def __init__(
        self,
        cells: Sequence[CampaignCell],
        engine: Optional[str] = None,
        jobs: int = 1,
        cache: Optional[RunCache] = None,
        retries: int = 0,
        progress: Optional[Callable[[CampaignProgress], None]] = None,
    ):
        if jobs < 1:
            raise InvalidParameterError("jobs must be >= 1")
        if retries < 0:
            raise InvalidParameterError("retries must be >= 0")
        self.cells = list(cells)
        self.engine = engine
        self.jobs = jobs
        self.cache = cache
        self.retries = retries
        self.progress = progress
        #: Final counters of the most recent :meth:`run` (hit/computed/
        #: error totals where in-run duplicates count as hits) — the
        #: consistent source for summary lines.
        self.last_progress: Optional[CampaignProgress] = None
        #: Aggregated telemetry of the most recent :meth:`run` — merged
        #: per-cell counters, deduped warnings, worker utilization. Also
        #: persisted to the attached store's ``meta`` table under
        #: ``last_campaign`` (the source of ``repro stats``' hit-rate
        #: line: cache hits never rewrite rows, so only the runner can
        #: report them).
        self.last_summary: Optional[Dict[str, Any]] = None
        # Per-index submit bookkeeping for queue-latency / occupancy /
        # attempt metrics (runner side — workers cannot see the queue).
        self._cell_meta: Dict[int, Dict[str, Any]] = {}

    def _note_submit(self, index: int, occupancy: int) -> None:
        """Record one submission of cell ``index`` with ``occupancy``
        futures in flight (including this one). The first submission
        anchors the queue-latency clock; later ones only bump the
        attempt count (retries, pool-break requeues)."""
        meta = self._cell_meta.get(index)
        if meta is None:
            self._cell_meta[index] = {
                "queued_at": time.monotonic(),
                "submits": 1,
                "occupancy": occupancy,
            }
        else:
            meta["submits"] += 1

    def _enrich_metrics(self, index: int, row: Dict[str, Any]) -> Dict[str, Any]:
        """Fold the runner-side view into the worker's metrics blob:
        queue latency (submit-to-resolve minus in-worker time), attempt
        count, and the in-flight window occupancy at submit."""
        meta = self._cell_meta.pop(index, None)
        metrics = row.get("metrics")
        if not isinstance(metrics, dict):
            return row
        metrics = dict(metrics)
        if meta is not None:
            in_worker = metrics.get("total_ms")
            in_worker = float(in_worker) if isinstance(in_worker, (int, float)) else 0.0
            waited_ms = (time.monotonic() - meta["queued_at"]) * 1000.0
            metrics["queue_ms"] = round(max(0.0, waited_ms - in_worker), 3)
            metrics["attempts"] = meta["submits"]
            metrics["window"] = meta["occupancy"]
        return dict(row, metrics=metrics)

    def _payload(self, cell: CampaignCell, engine: Optional[str] = None) -> Dict[str, Any]:
        return {
            "algorithm": cell.algorithm,
            "workload": cell.workload,
            "workload_params": dict(cell.workload_params),
            "seed": cell.seed,
            "algo_params": dict(cell.algo_params),
            "engine": engine if engine is not None else (cell.engine or self.engine),
            "shards": cell.shards,
        }

    def run(self) -> List[Dict[str, Any]]:
        # One identity plan serves both modes: cells resolving to the
        # same content address — an unseeded workload swept across seeds
        # — execute once and share the row, and every row carries the
        # key-normalized seed, so cached and uncached runs of one grid
        # agree on every identity field. With a cache, the engine is
        # additionally pinned to an explicit name so the executed engine
        # and the one folded into the run key cannot drift, hits are
        # served from the store, and computed rows are recorded the
        # instant they arrive.
        from repro.obs import ObsRuntime
        from repro.store.keys import run_key

        run_started = time.monotonic()
        self._cell_meta = {}
        aggregate = ObsRuntime()  # merged per-cell counter/timer snapshots
        seen_warnings: set = set()
        deduped_warnings: Dict[Tuple[str, str], int] = {}
        busy_ms = 0.0
        shared: Dict[str, Any] = {}  # the memo of _shared_values

        cache = self.cache
        default_engine = self.engine
        if cache is not None:
            from repro.engine import current_engine_name

            default_engine = self.engine or current_engine_name()
        total = len(self.cells)
        results: List[Optional[Dict[str, Any]]] = [None] * total
        tracker = _ProgressTracker(self.progress, total=total)
        engines: List[Optional[str]] = []
        keys: List[Optional[str]] = []
        seeds: List[int] = []
        miss_indices: List[int] = []
        primary_by_key: Dict[str, int] = {}
        duplicates: Dict[int, List[int]] = {}
        for index, cell in enumerate(self.cells):
            engine = cell.engine or default_engine
            engines.append(engine)
            try:
                if cache is not None:
                    key = cache.key_for(cell, engine=engine)
                else:
                    key = run_key(
                        algorithm=cell.algorithm,
                        algo_params=cell.algo_params,
                        workload=cell.workload,
                        workload_params=cell.workload_params,
                        seed=cell.seed,
                        engine=engine,
                    )
                seed = _workloads.normalized_seed(cell.workload, cell.seed)
            except Exception:  # noqa: BLE001 - per-cell isolation: an
                # unaddressable cell (unknown workload, bad params) still
                # executes so its error lands in a row, not an exception.
                keys.append(None)
                seeds.append(cell.seed)
                miss_indices.append(index)
                continue
            keys.append(key)
            seeds.append(seed)
            if key in primary_by_key:
                # The same computation is already served or scheduled
                # this run: share its row instead of reading or
                # recomputing it.
                primary = primary_by_key[key]
                if results[primary] is not None:
                    results[index] = dict(results[primary])
                    tracker.hit()
                else:
                    duplicates.setdefault(primary, []).append(index)
                continue
            primary_by_key[key] = index
            hit = cache.get(key) if cache is not None else None
            if hit is not None:
                results[index] = _shared_values(hit, shared)
                tracker.hit()
            else:
                miss_indices.append(index)

        def on_row(index: int, row: Dict[str, Any]) -> None:
            nonlocal busy_ms
            row = self._enrich_metrics(index, row)
            metrics = row.get("metrics")
            if isinstance(metrics, Mapping):
                aggregate.merge(metrics)
                total_ms = metrics.get("total_ms")
                if isinstance(total_ms, (int, float)):
                    busy_ms += float(total_ms)
                for category, message in metrics.get("warnings") or ():
                    pair = (str(category), str(message))
                    deduped_warnings[pair] = deduped_warnings.get(pair, 0) + 1
                    if pair not in seen_warnings:
                        seen_warnings.add(pair)
                        _reemit_warning(*pair)
            if cache is not None:
                row = dict(row, seed=seeds[index], cached=False, run_key=keys[index])
                if keys[index] is not None:
                    cache.record(
                        keys[index],
                        row,
                        family=_algorithm_family(row["algorithm"]),
                        engine=engines[index],
                    )
            else:
                row = dict(row, seed=seeds[index])
            results[index] = row = _shared_values(row, shared)
            tracker.computed(row)
            for dup in duplicates.get(index, ()):
                results[dup] = dict(row)
                tracker.hit()  # shared, not re-executed

        tasks = (
            (index, self._payload(self.cells[index], engine=engines[index]))
            for index in miss_indices
        )
        self._stream(tasks, len(miss_indices), on_row, tracker)
        self.last_progress = tracker.progress
        progress = tracker.progress
        elapsed_s = time.monotonic() - run_started
        capacity_ms = elapsed_s * 1000.0 * self.jobs
        snapshot = aggregate.snapshot()
        summary: Dict[str, Any] = {
            "v": 1,
            "cells": total,
            "done": progress.done,
            "hits": progress.hits,
            "computed": progress.computed,
            "errors": progress.errors,
            "retried": progress.retried,
            "elapsed_s": round(elapsed_s, 3),
            "jobs": self.jobs,
            "engine": default_engine,
            "worker_utilization": (
                round(min(1.0, busy_ms / capacity_ms), 4) if capacity_ms > 0 else None
            ),
            "counters": snapshot["counters"],
            "timers": snapshot["timers"],
            "warnings": [
                [category, message, count]
                for (category, message), count in sorted(deduped_warnings.items())
            ],
        }
        self.last_summary = summary
        if cache is not None:
            # Best-effort: a read-only or vanished store must not fail a
            # campaign whose rows all landed.
            try:
                cache.store.set_meta("last_campaign", summary)
            except Exception:  # noqa: BLE001 - best-effort meta write; a read-only store must not fail a finished campaign
                pass
        return results  # type: ignore[return-value]

    # -- the streaming executor -------------------------------------------

    def _stream(
        self,
        tasks: Iterator[Tuple[int, Dict[str, Any]]],
        count: int,
        on_row: Callable[[int, Dict[str, Any]], None],
        tracker: _ProgressTracker,
    ) -> None:
        """Execute ``count`` lazily-built ``(index, payload)`` tasks,
        calling ``on_row`` the instant each cell's final row is available
        (completion order, not cell order — callers index by ``index``)."""
        tasks = iter(tasks)
        if self.jobs == 1 or count <= 1:
            from repro.kernels.program import release_heap

            for index, payload in tasks:
                on_row(index, self._execute_inline(payload, tracker, index=index))
                # the next cell starts on a heap this one left nothing in
                release_heap()
            return

        window = max(2 * self.jobs, 2)
        workers = min(self.jobs, count)
        # In-flight bookkeeping: (index, payload, attempt, breaks), where
        # ``attempt`` counts error retries and ``breaks`` counts pool-break
        # requeues — separate budgets, so a cell that spent its retries on
        # an ordinary failure still gets its crash requeue (and its real
        # error message is never masked by a BrokenProcessPool row).
        Entry = Tuple[int, Dict[str, Any], int, int]
        pending: Dict[Future, Entry] = {}
        backlog: List[Entry] = []
        # Cells swept up by a BrokenProcessPool re-run one at a time with
        # nothing else in flight: an innocent bystander completes solo,
        # while a poison cell (it keeps killing workers) can only take
        # itself down, so its requeue budget bounds the pool rebuilds.
        quarantine: List[Entry] = []
        exhausted = False
        solo = False  # a quarantined cell is in flight, alone by design
        pool = _new_pool(workers)
        try:
            while True:
                while len(pending) < window:
                    if solo:
                        break
                    if quarantine:
                        entry = quarantine.pop()
                        try:
                            pending[pool.submit(_execute_cell, entry[1])] = entry
                        except BrokenProcessPool:
                            # The entry never ran (no budget charge); the
                            # pool broke between waits. Quarantine submits
                            # happen with nothing else in flight, so swap
                            # the pool and retry.
                            quarantine.append(entry)
                            pool.shutdown(wait=False)
                            pool = _new_pool(workers)
                            continue
                        self._note_submit(entry[0], len(pending))
                        solo = True
                        break
                    if backlog:
                        entry = backlog.pop()
                    elif not exhausted:
                        try:
                            index, payload = next(tasks)
                        except StopIteration:
                            exhausted = True
                            continue
                        entry = (index, payload, 0, 0)
                    else:
                        break
                    try:
                        pending[pool.submit(_execute_cell, entry[1])] = entry
                    except BrokenProcessPool:
                        # Never ran, so no budget charge. With futures in
                        # flight, fall through: draining them surfaces the
                        # break and the pool_broken path rebuilds; with
                        # nothing in flight, rebuild here and keep going.
                        backlog.append(entry)
                        if pending:
                            break
                        pool.shutdown(wait=False)
                        pool = _new_pool(workers)
                        continue
                    self._note_submit(entry[0], len(pending))
                if not pending:
                    break
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                pool_broken = False
                for future in done:
                    index, payload, attempt, breaks = pending.pop(future)
                    try:
                        row = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        self._requeue_or_fail(
                            (index, payload, attempt, breaks),
                            quarantine, on_row, tracker,
                        )
                        continue
                    except Exception as exc:  # noqa: BLE001 - a cell whose
                        # result cannot come back (unpicklable, worker lost)
                        # becomes an error row, never a campaign abort.
                        row = _error_row(payload, f"{type(exc).__name__}: {exc}")
                    if row.get("error") and attempt < self.retries:
                        tracker.retried()
                        backlog.append((index, payload, attempt + 1, breaks))
                    else:
                        on_row(index, row)
                if pool_broken:
                    # The executor is unusable; anything still pending is
                    # lost with it. Quarantine (or fail) those cells and
                    # resume on a fresh pool — in-flight cells are the
                    # only casualties.
                    for entry in pending.values():
                        self._requeue_or_fail(entry, quarantine, on_row, tracker)
                    pending.clear()
                    pool.shutdown(wait=False)
                    pool = _new_pool(workers)
                if not pending:
                    solo = False
        finally:
            pool.shutdown(wait=True)

    def _execute_inline(
        self,
        payload: Dict[str, Any],
        tracker: _ProgressTracker,
        index: Optional[int] = None,
    ) -> Dict[str, Any]:
        if index is not None:
            self._note_submit(index, 1)
        row = _execute_cell(payload)
        attempt = 0
        while row.get("error") and attempt < self.retries:
            attempt += 1
            tracker.retried()
            if index is not None:
                self._note_submit(index, 1)
            row = _execute_cell(payload)
        return row

    def _requeue_or_fail(
        self,
        entry: Tuple[int, Dict[str, Any], int, int],
        quarantine: List[Tuple[int, Dict[str, Any], int, int]],
        on_row: Callable[[int, Dict[str, Any]], None],
        tracker: _ProgressTracker,
    ) -> None:
        """A cell lost to a broken pool gets at least one solo requeue (it
        is usually an innocent bystander of another cell's crash); a cell
        that keeps killing workers exhausts its break budget — counted
        apart from ordinary error retries — and becomes an error row, so
        one poison cell cannot wedge the campaign."""
        index, payload, attempt, breaks = entry
        if breaks < max(self.retries, 1):
            tracker.retried()
            quarantine.append((index, payload, attempt, breaks + 1))
        else:
            on_row(
                index,
                _error_row(
                    payload,
                    "BrokenProcessPool: worker process died while running this cell",
                ),
            )


def _algorithm_family(name: str) -> Optional[str]:
    from repro import registry

    try:
        return registry.get(name).family
    except Exception:  # noqa: BLE001 - unknown algorithms still get stored
        return None


def grid_cells(
    algorithms: Sequence[str],
    workloads: Sequence[str],
    seeds: Sequence[int],
    engine: Optional[str] = None,
) -> List[CampaignCell]:
    """The declarative campaign grid: every ``(algorithm x workload x
    seed)`` triple, by name, with workload defaults as parameters. Both
    name lists are validated eagerly against their registries so typos
    fail before any cell runs."""
    from repro import registry

    for algorithm in algorithms:
        registry.get(algorithm)
    for workload in workloads:
        _workloads.get(workload)
    return [
        CampaignCell(
            algorithm=algorithm,
            workload=workload,
            workload_params=_workloads.canonical_params(workload),
            seed=seed,
            engine=engine,
        )
        for algorithm in algorithms
        for workload in workloads
        for seed in seeds
    ]


def default_cells(
    seeds: Sequence[int] = (0, 1),
    engine: Optional[str] = None,
) -> List[CampaignCell]:
    """A compact high-throughput grid: the paper's algorithms and the
    executable baselines across three workload families."""
    algorithms = ("star4", "star", "thm52", "cor55", "forest", "greedy", "vizing")
    grids = (
        ("random-regular", {"n": 48, "d": 8}),
        ("star-forest-stack", {"n_centers": 6, "leaves_per_center": 18, "a": 2}),
        ("erdos-renyi", {"n": 48, "p": 0.15}),
    )
    cells: List[CampaignCell] = []
    for algorithm in algorithms:
        for workload, params in grids:
            for seed in seeds:
                cells.append(
                    CampaignCell(
                        algorithm=algorithm,
                        workload=workload,
                        workload_params=params,
                        seed=seed,
                        engine=engine,
                    )
                )
    return cells


def save_cell_results(results: Sequence[Dict[str, Any]], path: PathLike) -> None:
    payload = {
        "format": CELL_CAMPAIGN_FORMAT,
        "library_version": _library_version(),
        "python": platform.python_version(),
        "results": list(results),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def load_cell_results(path: PathLike) -> List[Dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != CELL_CAMPAIGN_FORMAT:
        raise InvalidParameterError(
            f"{path}: unsupported cell campaign format {payload.get('format')!r}"
        )
    return payload["results"]
