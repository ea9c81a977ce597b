"""First-class invariant verification.

Three layers, each load-bearing in the pipeline:

* :mod:`repro.verify.checkers` — strict checkers for every correctness
  claim the paper states (proper vertex/edge colorings, star partitions,
  clique decompositions, defective colorings, H-partitions). Partial and
  spurious assignments are explicit violations.
* :mod:`repro.verify.oracles` — the invariant oracles, one table from
  name to check. Every algorithm in :mod:`repro.registry` declares the
  invariants its output must satisfy (``AlgorithmSpec.invariants``) and,
  with the ``palette-bound`` invariant, the palette it claims
  (``AlgorithmSpec.palette_bound``, recomputed from
  :mod:`repro.core.params`). :func:`verify_run` folds the oracles into a
  :class:`Verdict` — the value the campaign runner persists per cell.
* :mod:`repro.verify.differential` — cross-engine differential execution
  (ReferenceEngine vs VectorEngine, field-by-field) and
  :func:`recheck_row`, the ``repro verify`` CLI path that re-executes and
  re-verifies persisted store rows.
"""

from repro.verify.checkers import (
    max_star_size,
    verify_clique_decomposition,
    verify_defective_coloring,
    verify_edge_coloring,
    verify_h_partition,
    verify_star_partition,
    verify_vertex_coloring,
)
from repro.verify.differential import (
    DiffResult,
    FieldMismatch,
    RecheckResult,
    compare_runs,
    default_diff_cells,
    differential_check,
    recheck_row,
)
from repro.verify.oracles import (
    VERDICTS,
    OracleContext,
    Verdict,
    verify_run,
)

__all__ = [
    "max_star_size",
    "verify_clique_decomposition",
    "verify_defective_coloring",
    "verify_edge_coloring",
    "verify_h_partition",
    "verify_star_partition",
    "verify_vertex_coloring",
    "DiffResult",
    "FieldMismatch",
    "RecheckResult",
    "compare_runs",
    "default_diff_cells",
    "differential_check",
    "recheck_row",
    "VERDICTS",
    "OracleContext",
    "Verdict",
    "verify_run",
]
