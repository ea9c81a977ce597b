"""Invariant oracles: machine-checkable correctness claims.

Every registered algorithm (see :mod:`repro.registry`) declares, via its
``AlgorithmSpec.invariants`` tuple, which invariants its output must
satisfy; :data:`ORACLES` maps each invariant name to the check that
inspects the *(graph, run)* pair and returns a violation message (or
``None``). The palette check reads the claimed bound off the spec
(``AlgorithmSpec.palette_bound``), whose formulas — the paper's, from
:mod:`repro.core.params`, as a function of ``(Delta, n, params)`` — live
beside each algorithm; the bound is never trusted from the run itself,
except for the Section 5 pipelines, whose exact bound the result object
carries as ``extra['palette_bound']``.

:func:`verify_run` is the single entry point: it runs the oracles the
run's algorithm declares, in order, and folds the outcome into a
:class:`Verdict` (``ok`` / ``fail`` / ``skip``) with the joined violation
messages — the exact value the campaign runner persists into the
experiment store's ``verdict`` / ``violation`` columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import networkx as nx

from repro.errors import ColoringError, InvalidParameterError
from repro.graphs.properties import max_degree, number_of_edges
from repro.types import color_classes, num_colors
from repro.verify.checkers import (
    verify_edge_coloring,
    verify_h_partition,
    verify_star_partition,
    verify_vertex_coloring,
)

#: Verdict statuses the subsystem can produce. ``skip`` means no oracle
#: applies (an algorithm that declares no invariants);
#: ``error`` is reserved for rows whose verification itself crashed.
VERDICTS = ("ok", "fail", "skip", "error")


@dataclass
class OracleContext:
    """Everything an oracle may inspect: the input graph, the normalized
    run, and the parameters the algorithm executed with. ``delta`` and
    ``arboricity`` (a degeneracy-based upper bound — every formula here
    is monotone in ``a``, so an upper bound keeps checks sound) are
    computed lazily and shared across the oracles of one run."""

    graph: nx.Graph
    kind: str
    coloring: Mapping[Any, Any]
    colors_used: int
    extra: Mapping[str, Any] = field(default_factory=dict)
    params: Mapping[str, Any] = field(default_factory=dict)
    algorithm: Optional[str] = None
    _delta: Optional[int] = field(default=None, repr=False)
    _arboricity: Optional[int] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def m(self) -> int:
        return number_of_edges(self.graph)

    @property
    def delta(self) -> int:
        if self._delta is None:
            self._delta = max_degree(self.graph)
        return self._delta

    @property
    def arboricity(self) -> int:
        if self._arboricity is None:
            from repro.graphs.properties import arboricity_bounds

            self._arboricity = max(1, arboricity_bounds(self.graph).upper)
        return self._arboricity


@dataclass(frozen=True)
class Verdict:
    """The outcome of running every applicable oracle on one cell."""

    status: str
    violation: Optional[str] = None
    checks: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# --------------------------------------------------------------------------
# Builtin oracles
# --------------------------------------------------------------------------


def _strict_message(check: Callable[[], Any]) -> Optional[str]:
    try:
        check()
    except ColoringError as exc:
        return str(exc)
    return None


def _check_proper_vertex(ctx: OracleContext) -> Optional[str]:
    if ctx.kind != "vertex-coloring":
        return f"expected a vertex coloring, got kind {ctx.kind!r}"
    return _strict_message(lambda: verify_vertex_coloring(ctx.graph, ctx.coloring))


def _check_proper_edge(ctx: OracleContext) -> Optional[str]:
    if ctx.kind != "edge-coloring":
        return f"expected an edge coloring, got kind {ctx.kind!r}"
    return _strict_message(lambda: verify_edge_coloring(ctx.graph, ctx.coloring))


#: What a check returns when its claim does not apply to the run: the
#: oracle is then left out of the verdict's ``checks``, so provenance
#: never names a check that did not run.
_NOT_APPLICABLE = object()


def _check_palette(ctx: OracleContext) -> Any:
    from repro import registry

    bound = registry.get(str(ctx.algorithm)).palette_bound(ctx)
    if bound is None:
        return _NOT_APPLICABLE
    # Never trust the run's own counter: recount the distinct colors in
    # the coloring itself, and flag a counter that misreports them (a
    # runner bug the bound check alone could self-certify away).
    used = num_colors(ctx.coloring)
    if ctx.kind in ("edge-coloring", "vertex-coloring") and ctx.colors_used != used:
        return (
            f"run reports colors_used={ctx.colors_used} but the coloring "
            f"uses {used} distinct colors"
        )
    if max(used, ctx.colors_used) > bound:
        return (
            f"{max(used, ctx.colors_used)} colors used > claimed bound {bound} "
            f"(Delta={ctx.delta}, a<={ctx.arboricity}, n={ctx.n})"
        )
    return None


def _check_star_partition(ctx: OracleContext) -> Optional[str]:
    """Section 4 view of the final coloring: the color classes must
    partition E(G) into stars of size at most 1 (each class a matching) —
    the q = 1 endpoint of the (p, q)-star-partition recursion."""
    if ctx.kind != "edge-coloring":
        return f"expected an edge coloring, got kind {ctx.kind!r}"
    classes = color_classes(ctx.coloring)
    return _strict_message(lambda: verify_star_partition(ctx.graph, classes, q=1))


def _check_h_partition(ctx: OracleContext) -> Optional[str]:
    threshold = ctx.extra.get("threshold")
    if threshold is None:
        return "run exports no 'threshold' in extra — cannot check H-partition"
    return _strict_message(
        lambda: verify_h_partition(ctx.graph, ctx.coloring, int(threshold))
    )


def _check_clique_decomposition(ctx: OracleContext) -> Optional[str]:
    """Section 2 view of an edge coloring: on the line graph, whose cover
    cliques are the edge stars delta(v), each color class may keep at most
    one vertex per clique — exactly the (p, 1)-clique-decomposition the
    CD-Coloring recursion bottoms out in."""
    if ctx.kind != "edge-coloring":
        return f"expected an edge coloring, got kind {ctx.kind!r}"
    from repro.graphs.linegraph import line_graph_with_cover
    from repro.verify.checkers import verify_clique_decomposition

    line, cover = line_graph_with_cover(ctx.graph)
    classes = color_classes(ctx.coloring)
    return _strict_message(
        lambda: verify_clique_decomposition(line, cover, classes, max_clique=1)
    )


def _check_defective(ctx: OracleContext) -> Optional[str]:
    """For runs that certify a defect bound (``extra['defect_bound']``):
    every vertex has at most that many same-colored neighbors."""
    defect = ctx.extra.get("defect_bound")
    if defect is None:
        return "run exports no 'defect_bound' in extra — cannot check defect"
    from repro.verify.checkers import verify_defective_coloring

    return _strict_message(
        lambda: verify_defective_coloring(ctx.graph, ctx.coloring, int(defect))
    )


#: Every invariant an ``AlgorithmSpec`` may name, in its ``invariants``,
#: mapped to its check: ``check(ctx)`` returns ``None`` when the invariant
#: holds and a violation message when it does not, and never raises —
#: oracle bugs must surface as verification errors, not silent passes.
ORACLES: Dict[str, Callable[[OracleContext], Any]] = {
    "proper-vertex-coloring": _check_proper_vertex,
    "proper-edge-coloring": _check_proper_edge,
    "palette-bound": _check_palette,
    "star-partition": _check_star_partition,
    "h-partition": _check_h_partition,
    "clique-decomposition": _check_clique_decomposition,
    "defective-coloring": _check_defective,
}


def verify_run(
    graph: nx.Graph,
    run: Any,
    params: Optional[Mapping[str, Any]] = None,
) -> Verdict:
    """Run every oracle ``run``'s algorithm declares against ``run`` (an
    :class:`~repro.registry.AlgorithmRun`-shaped object) on ``graph``.

    Returns ``ok`` when at least one oracle ran and none found a
    violation, ``fail`` with the joined messages otherwise, and ``skip``
    for algorithms with no applicable oracle."""
    from repro import registry

    invariants = registry.get(run.name).invariants
    for name in invariants:
        if name not in ORACLES:
            raise InvalidParameterError(
                f"unknown invariant oracle {name!r}; registered: "
                f"{', '.join(sorted(ORACLES))}"
            )
    ctx = OracleContext(
        graph=graph,
        kind=run.kind,
        coloring=run.coloring,
        colors_used=run.colors_used,
        extra=getattr(run, "extra", None) or {},
        params=dict(params or {}),
        algorithm=run.name,
    )
    violations: List[str] = []
    checks: List[str] = []
    for name in invariants:
        message = ORACLES[name](ctx)
        if message is _NOT_APPLICABLE:
            continue
        checks.append(name)
        if message is not None:
            violations.append(f"{name}: {message}")
    if violations:
        return Verdict(status="fail", violation="; ".join(violations), checks=tuple(checks))
    if not checks:
        return Verdict(status="skip", checks=())
    return Verdict(status="ok", checks=tuple(checks))
