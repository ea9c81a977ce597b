"""RunCache: the campaign-facing front-end of the experiment store.

:class:`~repro.analysis.campaign.CampaignRunner` consults a ``RunCache``
before streaming cells out: hits come straight from SQLite
(short-circuiting the process pool), misses execute and are recorded the
instant each cell's future resolves — completion order, not cell order —
which is what makes a killed campaign resumable with at most the
in-flight window lost: rerun the same command and only the unfinished
cells compute.

Errored rows are persisted (so ``query`` can show failures) but never
served as hits — a failed cell is retried on the next campaign. A row
without a verification verdict is a miss too: every campaign verifies
the cells it computes, so no campaign wrote such a row, and recomputing
it is what gives it a verdict.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.store.keys import run_key
from repro.store.store import ExperimentStore


class RunCache:
    """Content-addressed lookup/record layer over one
    :class:`ExperimentStore`.

    ``refresh=True`` turns every lookup into a miss (recompute and
    overwrite — the ``--fresh`` CLI flag); ``code_version`` overrides the
    library version folded into run keys (tests use this to simulate
    releases).
    """

    def __init__(
        self,
        store: ExperimentStore,
        code_version: Optional[str] = None,
        refresh: bool = False,
    ):
        self.store = store
        self.code_version = code_version
        self.refresh = refresh
        self.hits = 0
        self.misses = 0

    def key_for(self, cell: Any, engine: Optional[str] = None) -> str:
        """The run key of ``cell`` (a :class:`CampaignCell`-shaped object)
        under ``engine`` (the runner-wide default for cells that do not
        pin one)."""
        return run_key(
            algorithm=cell.algorithm,
            algo_params=cell.algo_params,
            workload=cell.workload,
            workload_params=cell.workload_params,
            seed=cell.seed,
            engine=cell.engine or engine,
            code_version=self.code_version,
        )

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached campaign row under ``key``, or ``None`` on a miss.
        Errored rows and rows without a verification verdict are misses
        by design: the store file is outside input, and a campaign must
        return only verified results."""
        if self.refresh:
            self.misses += 1
            return None
        stored = self.store.get(key)
        if (
            stored is None
            or stored.get("error") is not None
            or stored.get("verdict") is None
        ):
            self.misses += 1
            return None
        self.hits += 1
        return _campaign_row(stored)

    def record(
        self,
        key: str,
        row: Mapping[str, Any],
        family: Optional[str] = None,
        engine: Optional[str] = None,
    ) -> None:
        """Persist one freshly-executed campaign row under ``key``.

        ``engine`` is the engine folded into ``key`` — callers that know
        it (the campaign runner always does) must pass it, so the stored
        ``engine`` column can never contradict the engine the run key
        hashed; the row's own value is only a fallback for direct callers.

        The ``messages`` column is opportunistic: it is populated only for
        runners that export ``extra['messages']`` and stays NULL otherwise
        (no registered runner currently surfaces per-run message totals)."""
        extra = row.get("extra") or {}
        messages = extra.get("messages") if isinstance(extra, Mapping) else None
        # Store the seed the run key hashed: unseeded workloads normalize
        # it to 0 (see workloads.normalized_seed), and a stored nonzero
        # seed would contradict the key.
        try:
            from repro import workloads

            seed = workloads.normalized_seed(row["workload"], row.get("seed", 0))
        except Exception:  # noqa: BLE001 - unknown workloads keep their seed
            seed = row.get("seed", 0)
        self.store.put(
            {
                "run_key": key,
                "algorithm": row["algorithm"],
                "family": family,
                "workload": row["workload"],
                "workload_params": dict(row.get("workload_params") or {}),
                "seed": seed,
                "algo_params": dict(row.get("algo_params") or {}),
                "engine": engine or row.get("engine") or "reference",
                "code_version": self.code_version or _library_version(),
                "n": row.get("n"),
                "m": row.get("m"),
                "kind": row.get("kind"),
                "colors_used": row.get("colors_used"),
                "rounds_actual": row.get("rounds_actual"),
                "rounds_modeled": row.get("rounds_modeled"),
                "messages": messages if isinstance(messages, int) else None,
                "verified": row.get("verified"),
                "verdict": row.get("verdict"),
                "violation": row.get("violation"),
                "error": row.get("error"),
                "wall_ms": row.get("wall_ms"),
                "extra": dict(extra) if isinstance(extra, Mapping) else {},
                "metrics": (
                    dict(row["metrics"])
                    if isinstance(row.get("metrics"), Mapping)
                    else None
                ),
            }
        )


def _library_version() -> str:
    import repro

    return repro.__version__


def _campaign_row(stored: Mapping[str, Any]) -> Dict[str, Any]:
    """Reshape a store row into the row :func:`_execute_cell` produces,
    flagged as served-from-cache."""
    return {
        "algorithm": stored["algorithm"],
        "workload": stored["workload"],
        "workload_params": dict(stored.get("workload_params") or {}),
        "seed": stored.get("seed", 0),
        "algo_params": dict(stored.get("algo_params") or {}),
        "engine": stored.get("engine"),
        "n": stored.get("n"),
        "m": stored.get("m"),
        "kind": stored.get("kind"),
        "colors_used": stored.get("colors_used"),
        "rounds_actual": stored.get("rounds_actual"),
        "rounds_modeled": stored.get("rounds_modeled"),
        "wall_ms": stored.get("wall_ms"),
        "extra": dict(stored.get("extra") or {}),
        "verified": stored.get("verified"),
        "verdict": stored.get("verdict"),
        "violation": stored.get("violation"),
        "error": None,
        "cached": True,
        "run_key": stored["run_key"],
        "metrics": stored.get("metrics"),
    }
