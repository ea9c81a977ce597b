"""The workload registry: specs, lookup, building, JSON round-trips."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import InvalidParameterError

#: Families a workload may belong to.
FAMILIES = (
    "random",
    "regular",
    "arboricity",
    "diversity",
    "topology",
    "adversarial",
    "scale",
    "xl",
)

#: Families whose instances are too large for the unfiltered default
#: campaign grid: ``scale`` (>= 50k nodes) and ``xl`` (>= 1M nodes,
#: resolving to :class:`~repro.graphcore.CompactGraph`). They run only
#: when named explicitly (``--workloads``); the CLI listing marks them so
#: the exclusion is visible instead of implicit.
EXCLUDED_FROM_DEFAULT_GRID = ("scale", "xl")


@dataclass(frozen=True)
class WorkloadSpec:
    """Metadata + factory for one registered graph scenario.

    ``defaults`` are the full parameterization — :func:`build` merges
    overrides into them, so the *resolved* parameter set is always total
    and content-addressed run keys are stable across spellings.
    ``params`` lists the accepted keyword names (``None`` disables eager
    validation; the factory's ``TypeError`` rejects bad names). ``seeded``
    marks whether the factory consumes a ``seed`` keyword; deterministic
    topologies ignore seeds entirely. ``compact`` marks factories that
    return a :class:`~repro.graphcore.CompactGraph` (the streaming CSR
    builders of the ``xl`` family) instead of a ``networkx.Graph`` —
    the canonical instance payload (and therefore the run key) is
    identical either way: name + resolved params + normalized seed
    fully determine the CSR arrays, whose content digest is stable
    across builds.
    """

    name: str
    family: str
    summary: str
    factory: Callable[..., Any] = field(repr=False)
    defaults: Mapping[str, Any] = field(default_factory=dict)
    params: Optional[Tuple[str, ...]] = None
    seeded: bool = True
    compact: bool = False


_REGISTRY: Dict[str, WorkloadSpec] = {}
_BUILTINS_LOADED = False


def register(spec: WorkloadSpec) -> WorkloadSpec:
    """Register ``spec``; re-registering the same factory is idempotent,
    a different factory under an existing name is an error."""
    if spec.family not in FAMILIES:
        raise InvalidParameterError(
            f"workload {spec.name!r}: unknown family {spec.family!r}; "
            f"choose from {FAMILIES}"
        )
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing.factory is not spec.factory:
        raise InvalidParameterError(f"workload {spec.name!r} registered twice")
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_loaded() -> None:
    # repro-check: ok fork-global-write — idempotent lazy-load latch; re-running
    # the import after a fork reproduces the identical registry
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from repro.workloads import builtin  # noqa: F401 - registers on import


def get(name: str) -> WorkloadSpec:
    """Resolve ``name`` to its spec, loading the builtin catalogue first."""
    _ensure_loaded()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise InvalidParameterError(
            f"unknown workload {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        )
    return spec


def specs(family: Optional[str] = None) -> List[WorkloadSpec]:
    """All registered specs, optionally filtered by family, sorted by name."""
    _ensure_loaded()
    return [
        spec
        for _, spec in sorted(_REGISTRY.items())
        if family is None or spec.family == family
    ]


def names(family: Optional[str] = None) -> List[str]:
    """Sorted names of registered workloads, optionally filtered."""
    return [spec.name for spec in specs(family=family)]


def canonical_params(
    name: str, params: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """The *resolved* parameter set: spec defaults with ``params`` merged
    in, after rejecting names the workload does not accept."""
    spec = get(name)
    overrides = dict(params or {})
    if spec.params is not None:
        unknown = set(overrides) - set(spec.params) - set(spec.defaults)
        if unknown:
            raise InvalidParameterError(
                f"workload {name!r} rejected parameters {sorted(unknown)}; "
                f"accepted: {sorted(set(spec.params) | set(spec.defaults))}"
            )
    merged = dict(spec.defaults)
    merged.update(overrides)
    return {k: merged[k] for k in sorted(merged)}


def default_grid_names() -> List[str]:
    """The workload names the unfiltered default campaign grid runs:
    everything except the :data:`EXCLUDED_FROM_DEFAULT_GRID` families."""
    return [
        spec.name
        for spec in specs()
        if spec.family not in EXCLUDED_FROM_DEFAULT_GRID
    ]


def build(
    name: str, params: Optional[Mapping[str, Any]] = None, seed: int = 0
):
    """Instantiate workload ``name`` with ``params`` merged over its
    defaults, under ``seed`` (ignored by unseeded workloads). Returns a
    ``networkx.Graph``, or a :class:`~repro.graphcore.CompactGraph` for
    ``compact`` specs (the ``xl`` family)."""
    spec = get(name)
    merged = canonical_params(name, params)
    kwargs = dict(merged)
    if spec.seeded:
        kwargs["seed"] = seed
    try:
        return spec.factory(**kwargs)
    except TypeError as exc:
        raise InvalidParameterError(
            f"workload {name!r} rejected parameters {dict(params or {})!r}: {exc}"
        ) from exc


def normalized_seed(name: str, seed: int = 0) -> int:
    """The seed run keys fold in for workload ``name``. Unseeded
    (deterministic-topology) workloads ignore seeds entirely, so every
    seed is normalized to 0: each seed of such a workload denotes the
    *same* instance and must share one run key (``--seeds 0,1,2`` over a
    torus is one computation, not three). The single source of truth —
    the campaign runner and the run cache both defer here."""
    return int(seed) if get(name).seeded else 0


def canonical_instance(
    name: str, params: Optional[Mapping[str, Any]] = None, seed: int = 0
) -> Dict[str, Any]:
    """The canonical description of one workload instance — the payload
    content-addressed run keys hash. Parameters are fully resolved and
    sorted; the seed is normalized via :func:`normalized_seed`."""
    return {
        "workload": name,
        "params": canonical_params(name, params),
        "seed": normalized_seed(name, seed),
    }


def to_json(
    name: str, params: Optional[Mapping[str, Any]] = None, seed: int = 0
) -> str:
    """Serialize one workload instance to canonical (sorted-key) JSON."""
    return json.dumps(
        canonical_instance(name, params, seed), sort_keys=True, separators=(",", ":")
    )


def from_json(text: str):
    """Rebuild the graph a :func:`to_json` description denotes."""
    try:
        payload = json.loads(text)
        name = payload["workload"]
        params = payload.get("params", {})
        seed = payload.get("seed", 0)
    except (json.JSONDecodeError, TypeError, KeyError) as exc:
        raise InvalidParameterError(f"malformed workload JSON: {exc}") from exc
    return build(name, params, seed=seed)
