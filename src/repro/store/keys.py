"""Content-addressed run keys.

A run key is the ``sha256`` of the canonical JSON of everything that
determines a cell's outcome: the algorithm name and its parameters, the
fully-resolved workload instance (name, merged parameters, seed), the
engine the cell executes under, and the library code version. Two cells
with the same key are the same computation; anything that could change
the result — a parameter, the seed, the engine, a new release — changes
the key, so stale cache entries are unreachable rather than wrong.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Optional

from repro.errors import InvalidParameterError


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(
            f"run-key payload is not canonical-JSON serializable: {exc}"
        ) from exc


def _code_version() -> str:
    import repro

    return repro.__version__


def run_key(
    algorithm: str,
    algo_params: Optional[Mapping[str, Any]] = None,
    workload: str = "",
    workload_params: Optional[Mapping[str, Any]] = None,
    seed: int = 0,
    engine: Optional[str] = None,
    code_version: Optional[str] = None,
) -> str:
    """The content address of one campaign cell.

    ``workload_params`` are resolved through the workload registry (so
    explicit defaults and omitted defaults hash identically) and ``engine``
    ``None`` resolves to the current engine before hashing.
    """
    from repro.engine import current_engine_name
    from repro.workloads import canonical_instance

    payload: Dict[str, Any] = {
        "algorithm": algorithm,
        "algo_params": dict(algo_params or {}),
        "instance": canonical_instance(workload, workload_params, seed),
        "engine": engine or current_engine_name(),
        "code_version": code_version if code_version is not None else _code_version(),
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
