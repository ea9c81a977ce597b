"""Differential cross-engine checking and stored-row re-verification.

Two independent lines of defense beyond the per-run oracles:

* :func:`differential_check` executes one cell under both engines
  (ReferenceEngine and VectorEngine) and compares the resulting
  :class:`~repro.registry.AlgorithmRun`s field by field — coloring,
  colors_used, rounds, and every ``extra`` key. Any divergence means an
  array program changed semantics.
* :func:`recheck_row` takes a persisted experiment-store row, rebuilds its
  workload instance from the stored (workload, params, seed), re-executes
  the algorithm under the stored engine, re-runs the oracles, and compares
  the deterministic stored columns against the recomputation — the
  ``repro verify`` CLI path that catches rows corrupted after the fact or
  produced by a buggy build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.verify.oracles import Verdict, verify_run

#: Stored columns that must reproduce exactly when a row's cell is
#: re-executed (everything deterministic the store keeps about the run
#: output; wall-clock and timestamps are measurement metadata).
RECHECK_COLUMNS = (
    "n",
    "m",
    "kind",
    "colors_used",
    "rounds_actual",
    "rounds_modeled",
)

#: Run fields compared across engines, before the per-key ``extra`` diff.
DIFF_FIELDS = ("kind", "coloring", "colors_used", "rounds_actual", "rounds_modeled")

#: The engines a differential cell runs under; the first is the reference.
DIFF_ENGINES = ("reference", "vector")


@dataclass(frozen=True)
class FieldMismatch:
    """One field whose value differs between two executions."""

    field: str
    expected: Any
    actual: Any

    def __str__(self) -> str:
        def _short(value: Any) -> str:
            text = repr(value)
            return text if len(text) <= 80 else text[:77] + "..."

        return f"{self.field}: {_short(self.expected)} != {_short(self.actual)}"


@dataclass
class DiffResult:
    """Outcome of one cross-engine differential cell."""

    algorithm: str
    workload: str
    workload_params: Dict[str, Any]
    seed: int
    algo_params: Dict[str, Any]
    engines: Tuple[str, ...]
    mismatches: List[FieldMismatch] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.mismatches

    def describe(self) -> str:
        where = f"{self.algorithm} on {self.workload} seed={self.seed}"
        if self.error:
            return f"{where}: ERROR {self.error}"
        if not self.mismatches:
            return f"{where}: engines agree on every field"
        details = "; ".join(str(m) for m in self.mismatches)
        return f"{where}: {len(self.mismatches)} field mismatches ({details})"


def compare_runs(reference: Any, other: Any) -> List[FieldMismatch]:
    """Field-by-field comparison of two AlgorithmRun-shaped objects,
    including a per-key diff of ``extra``."""
    mismatches: List[FieldMismatch] = []
    for name in DIFF_FIELDS:
        a, b = getattr(reference, name), getattr(other, name)
        if a != b:
            mismatches.append(FieldMismatch(name, a, b))
    ref_extra = dict(getattr(reference, "extra", None) or {})
    other_extra = dict(getattr(other, "extra", None) or {})
    for key in sorted(set(ref_extra) | set(other_extra)):
        a, b = ref_extra.get(key), other_extra.get(key)
        if a != b:
            mismatches.append(FieldMismatch(f"extra[{key!r}]", a, b))
    return mismatches


def differential_check(
    algorithm: str,
    workload: str,
    workload_params: Optional[Mapping[str, Any]] = None,
    seed: int = 0,
    algo_params: Optional[Mapping[str, Any]] = None,
) -> DiffResult:
    """Run one cell under both engines (:data:`DIFF_ENGINES`) on the
    *same* built graph and diff the vector run against the reference
    run."""
    from repro import registry
    from repro import workloads

    result = DiffResult(
        algorithm=algorithm,
        workload=workload,
        workload_params=dict(workload_params or {}),
        seed=seed,
        algo_params=dict(algo_params or {}),
        engines=DIFF_ENGINES,
    )
    try:
        graph = workloads.build(workload, workload_params, seed=seed)
        runs = [
            registry.run(algorithm, graph, engine=engine, **dict(algo_params or {}))
            for engine in DIFF_ENGINES
        ]
    except Exception as exc:  # noqa: BLE001 - a cell error is a result
        result.error = f"{type(exc).__name__}: {exc}"
        return result
    for other in runs[1:]:
        result.mismatches.extend(compare_runs(runs[0], other))
    return result


def default_diff_cells() -> List[Dict[str, Any]]:
    """The standard differential sample: the paper's pipelines and the
    engine-sensitive substrates across structurally distinct workload
    families — including the ``scale`` family, size-reduced through its
    declared parameters so the check stays interactive."""
    algorithms = ("star4", "star", "thm52", "cor55", "oracle-vertex", "linial")
    grids: Tuple[Tuple[str, Dict[str, Any]], ...] = (
        ("random-regular", {"n": 32, "d": 6}),
        ("star-forest-stack", {"n_centers": 4, "leaves_per_center": 12, "a": 2}),
        ("planar-grid", {"rows": 6, "cols": 6}),
        # The scale family at a campaign-friendly size: same generators,
        # same family metadata, smaller n.
        ("scale-regular", {"n": 256, "d": 8}),
    )
    return [
        {
            "algorithm": algorithm,
            "workload": workload,
            "workload_params": params,
            "seed": 0,
        }
        for algorithm in algorithms
        for workload, params in grids
    ]


@dataclass
class RecheckResult:
    """Outcome of re-verifying one persisted store row."""

    run_key: str
    verdict: Verdict
    mismatches: List[FieldMismatch] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def status(self) -> str:
        if self.error is not None:
            return "error"
        if self.mismatches:
            return "fail"
        return self.verdict.status

    @property
    def violation(self) -> Optional[str]:
        parts: List[str] = []
        if self.error is not None:
            parts.append(self.error)
        if self.mismatches:
            parts.append(
                "stored row drifted from recomputation: "
                + "; ".join(str(m) for m in self.mismatches)
            )
        if self.verdict.violation:
            parts.append(self.verdict.violation)
        return "; ".join(parts) or None


def recheck_row(row: Mapping[str, Any]) -> RecheckResult:
    """Re-execute the cell a store row describes and re-verify it.

    Rebuilds the workload instance from the stored identity columns,
    re-runs the algorithm under the stored engine, runs the oracles on
    the fresh output, and compares every :data:`RECHECK_COLUMNS` value
    against what the store holds."""
    from repro import registry
    from repro import workloads

    run_key = str(row.get("run_key", ""))
    try:
        graph = workloads.build(
            row["workload"], row.get("workload_params") or {}, seed=row.get("seed", 0)
        )
        run = registry.run(
            row["algorithm"],
            graph,
            engine=row.get("engine"),
            **dict(row.get("algo_params") or {}),
        )
    except Exception as exc:  # noqa: BLE001 - per-row isolation
        return RecheckResult(
            run_key=run_key,
            verdict=Verdict(status="error"),
            error=f"{type(exc).__name__}: {exc}",
        )
    verdict = verify_run(graph, run, params=row.get("algo_params") or {})
    recomputed = {
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "kind": run.kind,
        "colors_used": run.colors_used,
        "rounds_actual": run.rounds_actual,
        "rounds_modeled": run.rounds_modeled,
    }
    mismatches = [
        FieldMismatch(column, row.get(column), recomputed[column])
        for column in RECHECK_COLUMNS
        if row.get(column) != recomputed[column]
    ]
    return RecheckResult(run_key=run_key, verdict=verdict, mismatches=mismatches)
