"""The sharded execution runtime: worker pool, BSP coordinator, and the
:func:`sharding` scope.

One worker per shard, each a long-lived process connected by a pipe (or
an in-process slot under ``inline=True``, for callers that already live
inside a process pool — campaign workers — where nesting pools would
oversubscribe). A worker memory-maps *only its own* ``.csrs`` file, so
its peak RSS is bounded by the shard, not the graph. The coordinator
never touches CSR arrays at all: per round it concatenates the shards'
boundary values, scatters each shard's halo slice back out (one
bulk-synchronous exchange), and lets the program decide whether to
continue.

The round loop is checkpointable: after each completed round the workers
write their state dicts to per-shard ``.npz`` files and the coordinator
commits ``meta.json`` (both atomically, tmp + rename), so a run killed
mid-exchange resumes from the last completed round — the resumed result
is byte-identical because programs are deterministic functions of
(plan, state). ``REPRO_SHARD_CRASH_AFTER_ROUND=<r>`` makes the
coordinator SIGKILL itself right after committing round ``r``'s
checkpoint; the resume test drives exactly that path.

A scope never hijacks runs it cannot reproduce: anything without a
registered program, on a graph other than the partitioned parent, or
with inputs the program declines (in ``plan``, or in the workers' init
stats when only the CSR shows it) falls through to the ordinary engine
path before the first round, disclosed via the ``shard.fallback``
counter. Dispatched runs are disclosed too (``shard.dispatch``), call
:func:`~repro.engine.base.note_engine_run` with ``"sharded"`` so store
rows record the effective engine, and report per-shard round/exchange
timings through :mod:`repro.obs` spans.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.kernels import KernelUnsupported, get_program
from repro.kernels.program import node_space, outputs_by_id
from repro.local.network import RunResult
from repro.shard import context as _context
from repro.shard.partition import Shard, ShardBundle

_CRASH_ENV = "REPRO_SHARD_CRASH_AFTER_ROUND"
_META_NAME = "meta.json"


class ShardWorkerError(RuntimeError):
    """A worker failed outside the algorithm's own semantics (authentic
    algorithm errors are raised coordinator-side from the round stats)."""


def _maxrss_kb() -> int:
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class _ShardSlot:
    """Dispatch table shared by the process worker loop and the inline
    pool: one shard's program/state plus the message handlers."""

    def __init__(self, shard: Shard):
        self.shard = shard
        self.program = None
        self.state: Optional[Dict[str, np.ndarray]] = None

    def handle(self, msg: Tuple[Any, ...]) -> Tuple[Any, Dict[str, Any]]:
        op = msg[0]
        started = time.perf_counter()
        if op == "init":
            self.program = get_program(msg[1])
            self.state, stats = self.program.init_state(self.shard, msg[2])
            self._disclose(stats, started)
            return self.program.boundary(self.shard, self.state), stats
        if op == "step":
            stats = self.program.step(self.shard, self.state, msg[1], msg[2])
            self._disclose(stats, started)
            return self.program.boundary(self.shard, self.state), stats
        if op == "finalize":
            return self.program.finalize(self.shard, self.state), {}
        if op == "save":
            path = Path(msg[1])
            tmp = path.with_suffix(".tmp")
            with open(tmp, "wb") as handle:
                np.savez(handle, **self.state)
            os.replace(tmp, path)
            return None, {}
        if op == "load":
            self.program = get_program(msg[1])
            with np.load(Path(msg[2])) as payload:
                self.state = {key: payload[key] for key in payload.files}
            stats: Dict[str, Any] = {}
            self._disclose(stats, started)
            return self.program.boundary(self.shard, self.state), stats
        raise ShardWorkerError(f"unknown worker op {op!r}")

    @staticmethod
    def _disclose(stats: Dict[str, Any], started: float) -> None:
        """Worker-side observability disclosures on every stats-bearing
        reply: peak RSS, the worker's pid (process pool — the shard's
        own process; inline pool — the coordinator), and the op's
        in-worker duration. The coordinator turns these into per-worker
        ``shard.worker.*`` trace spans; stats keys are additive, so
        programs reading their own keys never notice."""
        stats["maxrss_kb"] = _maxrss_kb()
        stats["pid"] = os.getpid()
        stats["op_ms"] = (time.perf_counter() - started) * 1000.0


def _emit_worker_spans(
    op: str, stats: List[Dict[str, Any]], round_no: Optional[int] = None
) -> None:
    """Turn one round of worker stats replies into per-worker trace
    spans. Shard workers never hold the trace sink (process-pool workers
    are plain pipe servers), so the coordinator emits
    ``shard.worker.<op>`` on their behalf, stamped with the worker's pid
    in ``fields`` — which is what lets the timeline renderers lane a
    sharded run per worker. No sink, no work."""
    from repro import obs

    rt = obs.active()
    if rt is None or rt.trace is None:
        return
    for shard_id, stat in enumerate(stats):
        pid = stat.get("pid")
        if pid is None:
            continue
        fields: Dict[str, Any] = {"shard": shard_id, "worker_pid": int(pid)}
        if round_no is not None:
            fields["round"] = round_no
        dur = stat.get("op_ms")
        rt.emit(
            "span",
            f"shard.worker.{op}",
            dur_ms=float(dur) if isinstance(dur, (int, float)) else None,
            **fields,
        )


def _bind_to_parent_lifetime() -> None:
    """Ask the kernel to SIGTERM this worker when the coordinator dies.

    Pipe EOF alone cannot be relied on: workers forked later inherit the
    parent ends of earlier workers' pipes (and the coordinator's stdio),
    so a SIGKILLed coordinator would otherwise leave the whole pool
    orphaned, holding those fds open forever."""
    with contextlib.suppress(Exception):
        import ctypes

        PR_SET_PDEATHSIG = 1
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0
        )
        if os.getppid() == 1:  # parent died before the prctl took effect
            os._exit(0)


def _worker_main(conn: Any, bundle_dir: str, shard_id: int) -> None:
    """Process worker entry point: open own shard, serve ops until the
    pipe closes (coordinator exit — clean or killed — ends the loop)."""
    _bind_to_parent_lifetime()
    try:
        slot = _ShardSlot(ShardBundle.open(bundle_dir).shard(shard_id))
    except BaseException as exc:  # noqa: BLE001 - a worker has no stderr anyone watches; every open failure must travel the pipe
        conn.send(("err", type(exc).__name__, str(exc)))
        return
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg[0] == "shutdown":
            conn.send(("ok", None, {}))
            return
        try:
            payload, stats = slot.handle(msg)
        except BaseException as exc:  # noqa: BLE001 - report-and-continue is the worker protocol; the coordinator re-raises as ShardWorkerError
            conn.send(("err", type(exc).__name__, str(exc)))
        else:
            conn.send(("ok", payload, stats))


class _InlinePool:
    """Same protocol as the process pool, executed synchronously in the
    coordinator process. Used inside campaign workers (already one
    process per cell) and by most tests."""

    kind = "inline"

    def __init__(self, bundle: ShardBundle):
        self._slots = [
            _ShardSlot(bundle.shard(s)) for s in range(bundle.num_shards)
        ]

    def request(self, msgs: List[Tuple[Any, ...]]) -> List[Tuple[Any, Dict[str, Any]]]:
        return [slot.handle(msg) for slot, msg in zip(self._slots, msgs)]

    def close(self) -> None:
        self._slots = []


class _ProcessPool:
    """One persistent process per shard, pipe-connected. All shards of a
    round run concurrently: requests are written to every pipe before
    any reply is read."""

    kind = "process"

    def __init__(self, bundle: ShardBundle):
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context("spawn")
        self._conns = []
        self._procs = []
        for shard_id in range(bundle.num_shards):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child, str(bundle.directory), shard_id),
                daemon=True,
                name=f"repro-shard-{shard_id}",
            )
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)

    def request(self, msgs: List[Tuple[Any, ...]]) -> List[Tuple[Any, Dict[str, Any]]]:
        for conn, msg in zip(self._conns, msgs):
            conn.send(msg)
        out = []
        for shard_id, conn in enumerate(self._conns):
            try:
                reply = conn.recv()
            except EOFError:
                raise ShardWorkerError(
                    f"shard worker {shard_id} died mid-request"
                )
            if reply[0] == "err":
                raise ShardWorkerError(
                    f"shard worker {shard_id} failed: {reply[1]}: {reply[2]}"
                )
            out.append((reply[1], reply[2]))
        return out

    def close(self) -> None:
        for conn in self._conns:
            with contextlib.suppress(OSError, BrokenPipeError):
                conn.send(("shutdown",))
        for conn in self._conns:
            with contextlib.suppress(Exception):
                conn.recv()
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
        self._conns, self._procs = [], []


class ShardingScope:
    """An installed sharding context: intercepts
    :func:`~repro.local.network.run_on_graph` calls on the partitioned
    parent graph and executes them shard-by-shard."""

    def __init__(
        self,
        graph: Any,
        bundle: ShardBundle,
        *,
        inline: bool = False,
        checkpoint: Optional[Path] = None,
    ):
        self.graph = graph
        self.bundle = bundle
        self.inline = inline
        self.checkpoint = Path(checkpoint) if checkpoint else None
        self.last_stats: Optional[Dict[str, Any]] = None
        self._pool = None
        self._table: Optional[Dict[str, Any]] = None

    # ---- plumbing ---------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            self._pool = (
                _InlinePool(self.bundle)
                if self.inline
                else _ProcessPool(self.bundle)
            )
        return self._pool

    def _exchange_table(self) -> Dict[str, Any]:
        if self._table is None:
            self._table = self.bundle.boundary_table()
        return self._table

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ---- checkpointing ----------------------------------------------------
    def _state_path(self, shard_id: int) -> Path:
        return self.checkpoint / f"state-{shard_id:04d}.npz"

    def _read_meta(self, program, plan) -> Optional[Dict[str, Any]]:
        """The resume point, if a committed checkpoint matches this exact
        run (same algorithm, plan fingerprint, parent graph, and shard
        count) and every state file exists."""
        if self.checkpoint is None:
            return None
        meta_path = self.checkpoint / _META_NAME
        if not meta_path.exists():
            return None
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError):
            return None
        matches = (
            meta.get("algorithm") == program.name
            and meta.get("plan_fingerprint") == program.fingerprint(plan)
            and meta.get("parent_digest") == self.bundle.parent_digest
            and meta.get("num_shards") == self.bundle.num_shards
        )
        if not matches:
            return None
        if not all(
            self._state_path(s).exists() for s in range(self.bundle.num_shards)
        ):
            return None
        return meta

    def _write_meta(self, program, plan, completed: int, arg: Any) -> None:
        meta = {
            "algorithm": program.name,
            "plan_fingerprint": program.fingerprint(plan),
            "parent_digest": self.bundle.parent_digest,
            "num_shards": self.bundle.num_shards,
            "completed": completed,
            "acc": plan.get("acc", {}),
            "next_arg": arg,
        }
        tmp = self.checkpoint / (_META_NAME + ".tmp")
        tmp.write_text(json.dumps(meta, sort_keys=True) + "\n")
        os.replace(tmp, self.checkpoint / _META_NAME)

    # ---- the interception point -------------------------------------------
    def maybe_run(
        self,
        graph: Any,
        algorithm: Any,
        extras: Optional[Dict[str, Any]],
        max_rounds: int,
    ) -> Optional[RunResult]:
        """Execute sharded if this scope can reproduce the run exactly;
        return None (with a disclosed ``shard.fallback``) otherwise."""
        from repro import obs

        name = getattr(algorithm, "name", None)
        if graph is not self.graph:
            # derived graphs (subgraphs, line graphs, recursion on color
            # classes) are not the partitioned parent; shard files do not
            # describe them.
            obs.incr("shard.fallback", reason="foreign-graph", algorithm=str(name))
            return None
        program = get_program(name)
        if program is None:
            obs.incr("shard.fallback", reason="no-program", algorithm=str(name))
            return None
        ids, lookup = node_space(graph)
        try:
            plan, short = program.plan(
                self.bundle.manifest,
                program.intern_extras(extras or {}, ids, lookup),
                max_rounds,
            )
        except KernelUnsupported as exc:
            obs.incr("shard.fallback", reason=str(exc), algorithm=name)
            return None
        if short is not None:
            self._disclose_dispatch(name)
            short.engine = "sharded"
            return outputs_by_id(short, ids)
        with obs.span(
            f"shard.run.{name}",
            shards=self.bundle.num_shards,
            n=int(self.bundle.manifest["n"]),
        ):
            result = self._execute(program, plan)
            if result is None:
                return None
            result.engine = "sharded"
            return outputs_by_id(result, ids)

    def _disclose_dispatch(self, name: str) -> None:
        from repro import obs
        from repro.engine.base import note_engine_run

        note_engine_run("sharded")
        obs.incr(
            "shard.dispatch",
            algorithm=name,
            shards=self.bundle.num_shards,
            pool=self._pool.kind if self._pool else ("inline" if self.inline else "process"),
        )

    def _execute(self, program, plan) -> Optional[RunResult]:
        from repro import obs

        bundle = self.bundle
        num = bundle.num_shards
        table = self._exchange_table()
        pool = self._ensure_pool()
        peak_rss = 0
        resumed = False

        meta = self._read_meta(program, plan)
        if meta is not None:
            resumed = True
            self._disclose_dispatch(program.name)
            replies = pool.request(
                [
                    ("load", program.name, str(self._state_path(s)))
                    for s in range(num)
                ]
            )
            boundaries = [reply[0] for reply in replies]
            plan["acc"] = meta["acc"]
            completed = int(meta["completed"])
            arg = meta["next_arg"]
            peak_rss = max(
                [peak_rss] + [int(r[1].get("maxrss_kb", 0)) for r in replies]
            )
            obs.incr("shard.resume", algorithm=program.name, round=completed)
        else:
            with obs.span("shard.init", shards=num):
                replies = pool.request(
                    [
                        ("init", program.name, program.init_payload(plan, bundle.shard(s)))
                        for s in range(num)
                    ]
                )
            boundaries = [reply[0] for reply in replies]
            stats = [reply[1] for reply in replies]
            peak_rss = max(
                [peak_rss] + [int(s.get("maxrss_kb", 0)) for s in stats]
            )
            _emit_worker_spans("init", stats)
            declined = [s["decline"] for s in stats if "decline" in s]
            if declined:
                # a decline only the CSR shows (the first shard's reason)
                obs.incr("shard.fallback", reason=declined[0], algorithm=program.name)
                return None
            self._disclose_dispatch(program.name)
            completed = 0
            arg = program.next_action(plan, completed, stats)

        while arg is not None:
            # bulk-synchronous exchange: one gather of every boundary
            # value, one scatter per shard through the precomputed maps.
            boundary_all = (
                np.concatenate(boundaries)
                if boundaries and num
                else np.empty(0, dtype=np.int64)
            )
            halos = [boundary_all[table["halo_sources"][s]] for s in range(num)]
            with obs.span(
                "shard.round", round=completed + 1, exchanged=int(boundary_all.size)
            ):
                replies = pool.request(
                    [("step", halos[s], arg) for s in range(num)]
                )
            completed += 1
            obs.incr("shard.rounds")
            obs.incr("shard.exchanged_values", int(boundary_all.size))
            boundaries = [reply[0] for reply in replies]
            stats = [reply[1] for reply in replies]
            peak_rss = max(
                [peak_rss] + [int(s.get("maxrss_kb", 0)) for s in stats]
            )
            _emit_worker_spans("step", stats, round_no=completed)
            arg = program.next_action(plan, completed, stats)
            if self.checkpoint is not None:
                self.checkpoint.mkdir(parents=True, exist_ok=True)
                pool.request(
                    [("save", str(self._state_path(s))) for s in range(num)]
                )
                self._write_meta(program, plan, completed, arg)
                if os.environ.get(_CRASH_ENV) == str(completed):
                    # fault-injection hook for the resume tests: die the
                    # hard way (no cleanup) right after the commit point.
                    os.kill(os.getpid(), signal.SIGKILL)

        with obs.span("shard.finalize", shards=num):
            replies = pool.request([("finalize",) for _ in range(num)])
        outputs = (
            np.concatenate([reply[0] for reply in replies])
            if num
            else np.empty(0, dtype=np.int64)
        )
        self.last_stats = {
            "algorithm": program.name,
            "shards": num,
            "pool": pool.kind,
            "rounds_executed": completed,
            "resumed": resumed,
            "worker_peak_rss_kb": peak_rss,
        }
        return program.result(plan, outputs, bundle.manifest)


@contextlib.contextmanager
def sharding(
    graph: Any,
    bundle: ShardBundle,
    *,
    inline: bool = False,
    checkpoint: Optional[Path] = None,
    parent_digest: Optional[str] = None,
):
    """Install a sharded-execution scope for ``graph``.

    ``bundle`` must have been partitioned from exactly this graph;
    ``parent_digest`` short-circuits the content check when the digest is
    already known (e.g. from ``read_info``), sparing a full-array hash of
    a memory-mapped 10M-node graph.
    """
    digest = parent_digest if parent_digest is not None else graph.digest()
    if digest != bundle.parent_digest:
        raise InvalidParameterError(
            f"shard bundle {bundle.directory} was partitioned from digest "
            f"{bundle.parent_digest[:12]}, but this graph hashes to "
            f"{digest[:12]} — repartition with `repro graph partition`"
        )
    scope = ShardingScope(
        graph,
        bundle,
        inline=inline,
        checkpoint=checkpoint,
    )
    token = _context._ACTIVE.set(scope)
    try:
        yield scope
    finally:
        _context._ACTIVE.reset(token)
        scope.close()
