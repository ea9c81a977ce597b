"""Unified algorithm registry.

Every runnable coloring algorithm in ``repro.core``, ``repro.substrates``
and ``repro.baselines`` self-registers an :class:`AlgorithmSpec` at import
time: a stable name, its family and output kind, the paper's color/round
guarantees, the graph properties it needs, and a uniform
``runner(graph, **params) -> AlgorithmRun`` adapter. The CLI, the
campaign runner, the benchmarks and the EXPERIMENTS.md harnesses
(``analysis/tables.py::verified_run``, which also checks each run with
:func:`repro.verify.verify_run`) resolve algorithms through this table
instead of importing algorithm functions directly; only Table 2 calls
``cd_coloring`` itself, because its instances come with explicit clique
covers. A new algorithm becomes a CLI subcommand choice, a campaign cell
and a parity-test subject by registering itself once.

Engine selection composes orthogonally: ``run(name, graph, engine="vector")``
scopes the whole invocation with :func:`repro.engine.use_engine`.

Example::

    from repro import registry

    run = registry.run("star4", graph)
    print(run.colors_used, run.rounds_actual)

    for spec in registry.specs(kind="edge-coloring"):
        print(spec.name, spec.color_bound)
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import InvalidParameterError

#: Families an algorithm may belong to.
FAMILIES = ("core", "baseline", "substrate")

#: Output kinds. ``edge-coloring`` maps canonical edges to colors,
#: ``vertex-coloring`` maps vertices, ``decomposition`` maps vertices to
#: structural labels (e.g. H-partition levels).
KINDS = ("edge-coloring", "vertex-coloring", "decomposition")


@dataclass
class AlgorithmRun:
    """Normalized outcome of one registry-resolved execution."""

    name: str
    kind: str
    coloring: Dict[Any, int]
    colors_used: int
    rounds_actual: Optional[float] = None
    rounds_modeled: Optional[float] = None
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class AlgorithmSpec:
    """Metadata + runner for one registered algorithm.

    ``requires`` names graph properties the guarantee depends on (e.g.
    ``bounded-arboricity``); purely informational for callers assembling
    workloads. ``params`` lists the keyword arguments the runner accepts —
    :func:`run` rejects anything else eagerly so campaign grids fail fast.
    ``invariants`` names the :mod:`repro.verify` oracles this algorithm's
    output must satisfy, in the order they run; ``()`` declares none.
    ``palette_bound(ctx)`` is the exact palette the algorithm claims on
    one instance (``None`` when it claims none there), read only through
    ``ctx.delta``, ``ctx.n``, ``ctx.m``, ``ctx.params`` and ``ctx.extra``;
    a spec has one exactly when it declares the ``palette-bound``
    invariant, so a claim never detaches from its check. Algorithms with
    asymptotic-only guarantees (Linial's O(Delta^2)) have none.

    A runner receives the workload's graph as built — a networkx graph or
    a :class:`~repro.graphcore.CompactGraph` — and reads it only through
    the shared read API (nodes/edges/neighbors/degree, ``subgraph``,
    ``has_edge``); :func:`run` never converts it.
    """

    name: str
    family: str
    kind: str
    summary: str
    color_bound: str
    rounds_bound: str
    runner: Callable[..., AlgorithmRun] = field(repr=False)
    invariants: Tuple[str, ...]
    requires: Tuple[str, ...] = ()
    params: Tuple[str, ...] = ()
    palette_bound: Optional[Callable[[Any], Optional[int]]] = field(
        default=None, repr=False
    )


_REGISTRY: Dict[str, AlgorithmSpec] = {}
_LOADED = False

#: Modules whose import populates the registry (self-registration blocks at
#: the bottom of each algorithm module).
_ALGORITHM_MODULES = (
    "repro.core",
    "repro.baselines",
    "repro.substrates",
)


def register(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Register ``spec``; duplicate names are an error (re-imports of the
    same module are idempotent because the previous spec is identical)."""
    if spec.family not in FAMILIES:
        raise InvalidParameterError(
            f"algorithm {spec.name!r}: unknown family {spec.family!r}"
        )
    if spec.kind not in KINDS:
        raise InvalidParameterError(
            f"algorithm {spec.name!r}: unknown kind {spec.kind!r}"
        )
    declared = "palette-bound" in spec.invariants
    if declared and spec.palette_bound is None:
        raise InvalidParameterError(
            f"algorithm {spec.name!r} declares the palette-bound invariant "
            f"but has no palette_bound"
        )
    if spec.palette_bound is not None and not declared:
        raise InvalidParameterError(
            f"algorithm {spec.name!r} has a palette_bound but does not "
            f"declare the palette-bound invariant"
        )
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing.runner is not spec.runner:
        raise InvalidParameterError(f"algorithm {spec.name!r} registered twice")
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_loaded() -> None:
    # repro-check: ok fork-global-write — idempotent lazy-load latch; re-running
    # the imports after a fork reproduces the identical registry
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    for module in _ALGORITHM_MODULES:
        importlib.import_module(module)


def get(name: str) -> AlgorithmSpec:
    """Resolve ``name`` to its spec, loading the algorithm packages first."""
    _ensure_loaded()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise InvalidParameterError(
            f"unknown algorithm {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        )
    return spec


def specs(
    family: Optional[str] = None, kind: Optional[str] = None
) -> List[AlgorithmSpec]:
    """All registered specs, optionally filtered, in registration order."""
    _ensure_loaded()
    return [
        spec
        for spec in _REGISTRY.values()
        if (family is None or spec.family == family)
        and (kind is None or spec.kind == kind)
    ]


def names(family: Optional[str] = None, kind: Optional[str] = None) -> List[str]:
    """Names of registered algorithms, optionally filtered."""
    return [spec.name for spec in specs(family=family, kind=kind)]


def run(
    name: str,
    graph,
    engine: Optional[str] = None,
    **params: Any,
) -> AlgorithmRun:
    """Execute algorithm ``name`` on ``graph`` under ``engine`` (current
    engine when ``None``) and return the normalized result."""
    spec = get(name)
    unknown = set(params) - set(spec.params)
    if unknown:
        raise InvalidParameterError(
            f"algorithm {name!r} does not accept parameters {sorted(unknown)}; "
            f"accepted: {sorted(spec.params)}"
        )
    from repro import obs
    from repro.engine import use_engine

    with use_engine(engine), obs.span("registry.run", algorithm=name):
        result = spec.runner(graph, **params)
    if result.name != name or result.kind != spec.kind:
        raise InvalidParameterError(
            f"runner for {name!r} returned mislabeled run "
            f"({result.name!r}, {result.kind!r})"
        )
    return result
