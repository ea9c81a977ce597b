"""Declarative workload registry: named, parameterized graph scenarios.

A *workload* is a named recipe for building a graph: a factory, its
default parameters, and whether it consumes a seed. Workloads mirror the
algorithm registry (:mod:`repro.registry`) — every scenario self-registers
a :class:`WorkloadSpec` so campaigns, benchmarks and the CLI resolve
scenarios by name, and a whole campaign is fully described by plain
``(algorithm names x workload names x seeds)`` strings.

Specs serialize to and from canonical JSON (:func:`to_json` /
:func:`from_json`), and :func:`canonical_instance` produces the exact
sorted-key payload the experiment store (:mod:`repro.store`) hashes into
content-addressed run keys — two cells that resolve to the same merged
parameters share a cache entry even if one spelled out the defaults and
the other did not.

Example::

    from repro import workloads

    graph = workloads.build("random-regular", {"n": 48, "d": 8}, seed=3)
    for spec in workloads.specs(family="arboricity"):
        print(spec.name, dict(spec.defaults))
"""

from repro.workloads.registry import (
    EXCLUDED_FROM_DEFAULT_GRID,
    FAMILIES,
    WorkloadSpec,
    build,
    canonical_instance,
    canonical_params,
    default_grid_names,
    from_json,
    get,
    names,
    normalized_seed,
    register,
    specs,
    to_json,
)

__all__ = [
    "EXCLUDED_FROM_DEFAULT_GRID",
    "FAMILIES",
    "WorkloadSpec",
    "default_grid_names",
    "build",
    "canonical_instance",
    "canonical_params",
    "from_json",
    "get",
    "names",
    "normalized_seed",
    "register",
    "specs",
    "to_json",
]
