"""The invariant-oracle registry: machine-checkable correctness claims.

Every registered algorithm (see :mod:`repro.registry`) declares, via its
``AlgorithmSpec.invariants`` tuple, which invariants its output must
satisfy; each invariant name resolves here to an :class:`InvariantOracle`
whose ``check`` inspects the *(graph, run)* pair and returns a violation
message (or ``None``). Palette bounds are recomputed independently from
the paper's formulas in :mod:`repro.core.params` — as a function of
``(Delta, a, n, params)`` — never trusted from the run itself, except for
the Section 5 pipeline whose exact bound the result object carries as
``extra['palette_bound']``.

:func:`verify_run` is the single entry point: it resolves the oracles for
an algorithm (falling back to kind-level defaults for specs that declare
nothing), runs them all, and folds the outcome into a :class:`Verdict`
(``ok`` / ``fail`` / ``skip``) with the joined violation messages — the
exact value the campaign runner persists into the experiment store's
``verdict`` / ``violation`` columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import networkx as nx

from repro.errors import ColoringError, InvalidParameterError
from repro.graphs.properties import max_degree, number_of_edges
from repro.verify.checkers import (
    verify_edge_coloring,
    verify_h_partition,
    verify_star_partition,
    verify_vertex_coloring,
)

#: Verdict statuses the subsystem can produce. ``skip`` means no oracle
#: applies (an algorithm with no declared or derivable invariants);
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


CheckFn = Callable[[OracleContext], Optional[str]]


@dataclass(frozen=True)
class InvariantOracle:
    """One named machine-checkable invariant.

    ``check`` returns ``None`` when the invariant holds, a human-readable
    violation message when it does not, and may raise nothing: oracle
    bugs must surface as verification errors, not silent passes.
    ``applies`` gates the oracle per run — an inapplicable oracle is left
    out of the verdict's ``checks`` entirely, so provenance never claims
    a check that did not actually run (e.g. the palette oracle on an
    algorithm with an asymptotic-only bound).
    """

    name: str
    summary: str
    check: CheckFn = field(repr=False)
    applies: Callable[["OracleContext"], bool] = field(
        default=lambda ctx: True, repr=False
    )


_ORACLES: Dict[str, InvariantOracle] = {}

#: Per-algorithm claimed-palette bound functions: ``fn(ctx) -> bound`` or
#: ``None`` when the algorithm states no exact bound (asymptotic-only
#: guarantees such as Linial's O(Delta^2)).
_PALETTE_BOUNDS: Dict[str, Callable[[OracleContext], Optional[int]]] = {}


def register_oracle(oracle: InvariantOracle) -> InvariantOracle:
    existing = _ORACLES.get(oracle.name)
    if existing is not None and existing.check is not oracle.check:
        raise InvalidParameterError(f"oracle {oracle.name!r} registered twice")
    _ORACLES[oracle.name] = oracle
    return oracle


def register_palette_bound(
    algorithm: str, bound: Callable[[OracleContext], Optional[int]]
) -> None:
    """Declare the claimed palette bound of ``algorithm`` as a function of
    the oracle context (Delta, arboricity, n, params)."""
    _PALETTE_BOUNDS[algorithm] = bound


def get_oracle(name: str) -> InvariantOracle:
    oracle = _ORACLES.get(name)
    if oracle is None:
        raise InvalidParameterError(
            f"unknown invariant oracle {name!r}; registered: "
            f"{', '.join(sorted(_ORACLES))}"
        )
    return oracle


def oracle_names() -> List[str]:
    return sorted(_ORACLES)


#: Kind-level defaults for algorithms that declare nothing: the output
#: shape alone already implies a properness invariant (and the palette
#: oracle self-skips when no bound function is registered).
_KIND_DEFAULTS = {
    "edge-coloring": ("proper-edge-coloring", "palette-bound"),
    "vertex-coloring": ("proper-vertex-coloring", "palette-bound"),
    "decomposition": (),
}


def oracles_for(algorithm: str) -> List[InvariantOracle]:
    """The oracles algorithm ``algorithm`` must satisfy: its spec's
    declared ``invariants``, or the kind-level defaults when it declares
    none. Resolution goes through :mod:`repro.registry`, so the algorithm
    and every declared oracle name are validated."""
    from repro import registry

    spec = registry.get(algorithm)
    names = spec.invariants or _KIND_DEFAULTS.get(spec.kind, ())
    return [get_oracle(name) for name in names]


def claimed_palette_bound(
    algorithm: str, ctx: OracleContext
) -> Optional[int]:
    """The palette size ``algorithm`` claims on this instance, or ``None``
    when it states no exact bound."""
    bound = _PALETTE_BOUNDS.get(algorithm)
    return None if bound is None else bound(ctx)


def verify_run(
    graph: nx.Graph,
    run: Any,
    algorithm: Optional[str] = None,
    params: Optional[Mapping[str, Any]] = None,
) -> Verdict:
    """Run every oracle ``algorithm`` declares against ``run`` (an
    :class:`~repro.registry.AlgorithmRun`-shaped object) on ``graph``.

    Returns ``ok`` when at least one oracle ran and none found a
    violation, ``fail`` with the joined messages otherwise, and ``skip``
    for algorithms with no applicable oracle."""
    name = algorithm or run.name
    ctx = OracleContext(
        graph=graph,
        kind=run.kind,
        coloring=run.coloring,
        colors_used=run.colors_used,
        extra=getattr(run, "extra", None) or {},
        params=dict(params or {}),
        algorithm=name,
    )
    violations: List[str] = []
    checks: List[str] = []
    for oracle in oracles_for(name):
        if not oracle.applies(ctx):
            continue
        checks.append(oracle.name)
        message = oracle.check(ctx)
        if message is not None:
            violations.append(f"{oracle.name}: {message}")
    if violations:
        return Verdict(status="fail", violation="; ".join(violations), checks=tuple(checks))
    if not checks:
        return Verdict(status="skip", checks=())
    return Verdict(status="ok", checks=tuple(checks))


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
    return _strict_message(lambda: verify_vertex_coloring(ctx.graph, dict(ctx.coloring)))


def _check_proper_edge(ctx: OracleContext) -> Optional[str]:
    if ctx.kind != "edge-coloring":
        return f"expected an edge coloring, got kind {ctx.kind!r}"
    return _strict_message(lambda: verify_edge_coloring(ctx.graph, dict(ctx.coloring)))


def _palette_applies(ctx: OracleContext) -> bool:
    return (
        ctx.algorithm is not None
        and claimed_palette_bound(ctx.algorithm, ctx) is not None
    )


def _check_palette(ctx: OracleContext) -> Optional[str]:
    bound = claimed_palette_bound(str(ctx.algorithm), ctx)
    if bound is None:  # pragma: no cover - gated by _palette_applies
        return None
    # Never trust the run's own counter: recount the distinct colors in
    # the coloring itself, and flag a counter that misreports them (a
    # runner bug the bound check alone could self-certify away).
    from repro.verify.checkers import count_colors

    used = count_colors(ctx.coloring)
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
    classes: Dict[int, List[Any]] = {}
    for edge, color in ctx.coloring.items():
        classes.setdefault(color, []).append(edge)
    return _strict_message(lambda: verify_star_partition(ctx.graph, classes, q=1))


def _check_h_partition(ctx: OracleContext) -> Optional[str]:
    threshold = ctx.extra.get("threshold")
    if threshold is None:
        return "run exports no 'threshold' in extra — cannot check H-partition"
    return _strict_message(
        lambda: verify_h_partition(ctx.graph, dict(ctx.coloring), int(threshold))
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
    classes: Dict[int, List[Any]] = {}
    for edge, color in ctx.coloring.items():
        classes.setdefault(color, []).append(edge)
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
        lambda: verify_defective_coloring(ctx.graph, dict(ctx.coloring), int(defect))
    )


register_oracle(
    InvariantOracle(
        name="proper-vertex-coloring",
        summary="total assignment over V(G), no monochromatic edge",
        check=_check_proper_vertex,
    )
)
register_oracle(
    InvariantOracle(
        name="proper-edge-coloring",
        summary="total assignment over E(G), no shared-endpoint color",
        check=_check_proper_edge,
    )
)
register_oracle(
    InvariantOracle(
        name="palette-bound",
        summary="colors used <= the paper's claimed bound (core/params.py)",
        check=_check_palette,
        applies=_palette_applies,
    )
)
register_oracle(
    InvariantOracle(
        name="star-partition",
        summary="color classes partition E(G) into stars of size <= 1",
        check=_check_star_partition,
    )
)
register_oracle(
    InvariantOracle(
        name="h-partition",
        summary="every vertex has <= threshold neighbors at levels >= its own",
        check=_check_h_partition,
    )
)
register_oracle(
    InvariantOracle(
        name="clique-decomposition",
        summary="each color class keeps <= 1 vertex of every line-graph clique",
        check=_check_clique_decomposition,
    )
)
register_oracle(
    InvariantOracle(
        name="defective-coloring",
        summary="every vertex has <= extra['defect_bound'] same-colored neighbors",
        check=_check_defective,
    )
)


# --------------------------------------------------------------------------
# Claimed palette bounds (core/params.py formulas, per algorithm)
# --------------------------------------------------------------------------


def _x_param(ctx: OracleContext, default: int) -> int:
    value = ctx.extra.get("x", ctx.params.get("x", default))
    return int(value) if value is not None else default


def _star_family_bound(ctx: OracleContext, x: int) -> int:
    from repro.core.params import star_target_colors

    # The trim pass reduces any raw product palette down to the headline
    # target (2^(x+1) * Delta >= 2*Delta - 1 always, so the reduction is
    # admissible), making the Theorem 4.1 target the hard ceiling.
    return star_target_colors(ctx.delta, x) if ctx.delta else 0


def _bound_star4(ctx: OracleContext) -> int:
    return _star_family_bound(ctx, 1)


def _bound_star(ctx: OracleContext) -> int:
    return _star_family_bound(ctx, _x_param(ctx, 1))


def _bound_cd(ctx: OracleContext) -> int:
    from repro.core.params import cd_target_colors

    # Theorem 3.3(ii) runs CD-Coloring on the line graph: diversity 2,
    # clique size max(Delta, 3) (the line-graph cover pads tiny stars).
    if ctx.m == 0:
        return 0
    return cd_target_colors(2, max(ctx.delta, 3), _x_param(ctx, 1))


def _bound_extra_palette(ctx: OracleContext) -> Optional[int]:
    bound = ctx.extra.get("palette_bound")
    return int(bound) if bound is not None else None


def _bound_delta_plus_one(ctx: OracleContext) -> int:
    return ctx.delta + 1


def _bound_two_delta_minus_one(ctx: OracleContext) -> int:
    return max(2 * ctx.delta - 1, 0)


def _bound_randomized(ctx: OracleContext) -> int:
    factor = float(ctx.params.get("palette_factor", 2.0))
    return int(math.ceil(factor * ctx.delta))


def _bound_cole_vishkin(ctx: OracleContext) -> int:
    return min(3, ctx.n)


register_palette_bound("star4", _bound_star4)
register_palette_bound("star", _bound_star)
register_palette_bound("cd", _bound_cd)
register_palette_bound("thm52", _bound_extra_palette)
register_palette_bound("thm53", _bound_extra_palette)
register_palette_bound("thm54", _bound_extra_palette)
register_palette_bound("cor55", _bound_extra_palette)
register_palette_bound("oracle-vertex", _bound_delta_plus_one)
register_palette_bound("greedy-vertex", _bound_delta_plus_one)
register_palette_bound("vertex-arboricity", _bound_delta_plus_one)
register_palette_bound("vizing", _bound_delta_plus_one)
register_palette_bound("oracle-edge", _bound_two_delta_minus_one)
register_palette_bound("greedy", _bound_two_delta_minus_one)
register_palette_bound("randomized", _bound_randomized)
register_palette_bound("cole-vishkin", _bound_cole_vishkin)
# linial (O(Delta^2)), weak/weak-vertex (Delta^(1+eps)), split and forest
# (constant-factor families) state asymptotic bounds only: their properness
# oracles still run, the palette oracle self-skips.
