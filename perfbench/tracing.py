"""In-memory spans around the calls into each layer's public functions.

The benchmark records these from its own code: :func:`instrument`
replaces a fixed set of public ``repro`` functions with timing wrappers
for the duration of a traced pass and puts the originals back after it.
Nothing inside ``repro`` changes. Campaign workers are forked from the
benchmark process, so they inherit the wrappers; the wrapper around the
per-cell entry point ships each cell's spans back on its result row
under :data:`ROW_KEY`.

A span is a plain dict: ``id`` (``"<pid>:<seq>"``), ``parent`` (the id
of the span open when it started, or ``None``), ``name``, ``start`` and
``end`` (``time.perf_counter`` seconds, one system-wide monotonic clock
on Linux, so spans from forked workers line up with the parent's) and
``cell`` (the campaign cell key, or ``None`` outside a cell).
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
import types
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Row key carrying a cell's spans from the worker back to the benchmark.
ROW_KEY = "perfbench_spans"

#: Layer spans whose union, over a pass, is the pass's covered time.
COVERAGE_LAYERS = (
    "workloads.build",
    "registry.run",
    "verify.run",
    "shard.partition",
    "store.put",
    "store.get",
    "report.render",
)


class SpanRecorder:
    """Keeps finished spans in memory, in the order they end, and the
    stack of spans still open in this process."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[Tuple[str, str]] = []  # (id, name)
        self._seq = 0
        self.cell: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` block. A span nested in an
        open span of the same name (recursion) is not recorded again."""
        if any(open_name == name for _, open_name in self._open):
            yield
            return
        self._seq += 1
        sid = f"{os.getpid()}:{self._seq}"
        parent = self._open[-1][0] if self._open else None
        self._open.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(
                {"id": sid, "parent": parent, "name": name,
                 "start": start, "end": end, "cell": self.cell}
            )

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped_by_perfbench__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_kernel_lookup(self, get_kernel: Callable[..., Any]) -> Callable[..., Any]:
        """``repro.kernels.get_kernel`` returning kernels that record a
        ``kernels.<name>`` span per call."""

        @functools.wraps(get_kernel)
        def traced(name: Any) -> Any:
            kernel = get_kernel(name)
            if kernel is None:
                return None
            return self.wrap(f"kernels.{name}", kernel)

        return traced

    def wrap_cell(self, execute_cell: Callable[..., Any]) -> Callable[..., Any]:
        """The campaign's per-cell entry point, recorded as a
        ``campaign.cell`` span; the spans the cell produced are removed
        from this recorder and returned on the row under :data:`ROW_KEY`
        (in a pool worker the row is the only way back)."""
        from repro.analysis.campaign import CampaignCell

        # wraps() keeps the original's module and name, so the pool pickles
        # this wrapper by reference to the patched module attribute, which
        # a forked worker resolves to the same wrapper.
        @functools.wraps(execute_cell)
        def traced(payload: Dict[str, Any]) -> Dict[str, Any]:
            self.cell = CampaignCell(
                algorithm=payload["algorithm"],
                workload=payload["workload"],
                workload_params=payload["workload_params"],
                seed=payload["seed"],
                algo_params=payload["algo_params"],
            ).key()
            mark = len(self.spans)
            try:
                with self.span("campaign.cell"):
                    row = execute_cell(payload)
            finally:
                self.cell = None
            cell_spans = self.spans[mark:]
            del self.spans[mark:]
            return dict(row, **{ROW_KEY: cell_spans})

        return traced

    def take(self) -> List[Dict[str, Any]]:
        """Remove and return every finished span."""
        spans, self.spans = self.spans, []
        return spans


def _patch_everywhere(
    original: Callable[..., Any], replacement: Callable[..., Any],
    undo: List[Tuple[Any, str, Any]],
) -> None:
    """Rebind every module-level name in loaded ``repro`` modules that
    refers to ``original`` (``from x import f`` copies the binding)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install the layer wrappers for the ``with`` block, then restore
    every original binding."""
    from repro import kernels, registry, verify, workloads
    from repro.analysis import campaign
    from repro.engine.vector import VectorEngine
    from repro.graphs import linegraph, properties
    from repro import shard
    from repro.store.cache import RunCache

    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Callable[..., Any]) -> None:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    patch(campaign.CampaignRunner, "run",
          recorder.wrap("campaign.run", campaign.CampaignRunner.run))
    patch(campaign, "_execute_cell", recorder.wrap_cell(campaign._execute_cell))
    patch(kernels, "get_kernel", recorder.wrap_kernel_lookup(kernels.get_kernel))
    patch(VectorEngine, "run", recorder.wrap("engine.run", VectorEngine.run))
    patch(RunCache, "record", recorder.wrap("store.put", RunCache.record))
    patch(RunCache, "get", recorder.wrap("store.get", RunCache.get))
    for name, fn in (
        ("workloads.build", workloads.build),
        ("registry.run", registry.run),
        ("verify.run", verify.verify_run),
        ("shard.partition", shard.partition),
        ("graphs.arboricity_bounds", properties.arboricity_bounds),
        ("graphs.line_graph", linegraph.line_graph_with_cover),
    ):
        _patch_everywhere(fn, recorder.wrap(name, fn), undo)
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        # Modules first imported inside the block copied wrapped bindings.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and hasattr(
                    value, "__wrapped_by_perfbench__"
                ):
                    setattr(module, attr, value.__wrapped_by_perfbench__)
