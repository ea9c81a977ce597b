"""SQLite-backed experiment store (stdlib ``sqlite3``, WAL mode).

One row per executed campaign cell, keyed by the content-addressed
:func:`~repro.store.keys.run_key`. WAL journaling plus a busy timeout
makes concurrent writers (process-pool workers, parallel campaigns
against one store file) safe: each writer opens its own connection and
commits independently.

The query API returns plain dicts — "DataFrame-like" rows that
``repro query``/``verify``/``stats`` and the campaign report
(``analysis/dataframes.py``) consume directly. The paper tables are not
served from here: their persisted snapshot is the generated block of
``EXPERIMENTS.md`` (see :mod:`repro.analysis.experiments`).
:func:`stable_row` projects a row onto the deterministic column subset
(everything except wall-clock and timestamps), which is what makes a
killed-and-resumed campaign byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.errors import InvalidParameterError

PathLike = Union[str, Path]

SCHEMA_VERSION = 3

#: Columns whose values are deterministic given the run key — no
#: wall-clock, no timestamps. Resume/uninterrupted comparisons and the
#: ``query --format json`` output use exactly these, in this order.
STABLE_COLUMNS = (
    "run_key",
    "algorithm",
    "family",
    "workload",
    "workload_params",
    "seed",
    "algo_params",
    "engine",
    "code_version",
    "n",
    "m",
    "kind",
    "colors_used",
    "rounds_actual",
    "rounds_modeled",
    "messages",
    "verified",
    "verdict",
    "violation",
    "error",
)

#: All persisted columns (stable ones plus measurement metadata).
#: ``metrics`` is the per-cell observability blob (phase timings,
#: counter snapshot, queue latency — see :mod:`repro.obs`); NULL for
#: rows the runner makes up for a cell that never returned (a dead
#: worker) and for rows put outside a campaign. Deliberately *not* a
#: stable column: instrumentation must never leak into resume/diff
#: comparisons or run keys.
COLUMNS = STABLE_COLUMNS + ("wall_ms", "extra", "metrics", "created_at")

_JSON_COLUMNS = ("workload_params", "algo_params", "extra")

_META_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
)
"""

_SCHEMA = f"""
CREATE TABLE IF NOT EXISTS runs (
    run_key         TEXT PRIMARY KEY,
    algorithm       TEXT NOT NULL,
    family          TEXT,
    workload        TEXT NOT NULL,
    workload_params TEXT NOT NULL DEFAULT '{{}}',
    seed            INTEGER NOT NULL DEFAULT 0,
    algo_params     TEXT NOT NULL DEFAULT '{{}}',
    engine          TEXT NOT NULL,
    code_version    TEXT NOT NULL,
    n               INTEGER,
    m               INTEGER,
    kind            TEXT,
    colors_used     INTEGER,
    rounds_actual   REAL,
    rounds_modeled  REAL,
    messages        INTEGER,
    verified        INTEGER,
    verdict         TEXT,
    violation       TEXT,
    error           TEXT,
    wall_ms         REAL,
    extra           TEXT,
    metrics         TEXT,
    created_at      REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_algorithm ON runs (algorithm);
CREATE INDEX IF NOT EXISTS idx_runs_workload  ON runs (workload);
CREATE INDEX IF NOT EXISTS idx_runs_family    ON runs (family);
CREATE INDEX IF NOT EXISTS idx_runs_version   ON runs (code_version);
"""

#: query() filters that map straight onto equality predicates.
_FILTERS = (
    "algorithm",
    "family",
    "workload",
    "seed",
    "engine",
    "kind",
    "code_version",
    "verdict",
)

def stable_row(row: Mapping[str, Any]) -> Dict[str, Any]:
    """Project ``row`` onto :data:`STABLE_COLUMNS` (deterministic subset)."""
    return {column: row.get(column) for column in STABLE_COLUMNS}


class ExperimentStore:
    """One SQLite file of content-addressed campaign runs.

    Usable as a context manager; safe for concurrent writers across
    processes (WAL + ``busy_timeout``). All JSON-valued columns
    (``workload_params``, ``algo_params``, ``extra``) are decoded on the
    way out, so callers only ever see dicts.
    """

    def __init__(self, path: PathLike, timeout: float = 30.0):
        self.path = str(path)
        self._conn = sqlite3.connect(self.path, timeout=timeout)
        self._conn.row_factory = sqlite3.Row
        self._enable_wal(timeout)
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA busy_timeout={int(timeout * 1000)}")
        self._init_schema()

    # -- lifecycle ---------------------------------------------------------

    def _enable_wal(self, timeout: float) -> None:
        """Switch the file to WAL, retrying until ``timeout`` while another
        connection holds it: SQLite answers ``PRAGMA journal_mode=WAL``
        with BUSY without calling the busy handler, so processes opening
        a fresh file together would otherwise fail at once."""
        deadline = time.monotonic() + timeout
        delay = 0.001
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    raise
            time.sleep(delay)
            delay = min(2 * delay, 0.05)

    def _init_schema(self) -> None:
        """Create a fresh store, or open one of :data:`SCHEMA_VERSION`.

        Any other version is refused before the ``runs`` table or its
        indexes are touched: this code writes only its own schema, so an
        older store is left exactly as it was."""
        with self._conn:
            self._conn.execute(_META_SCHEMA)
            # INSERT OR IGNORE keeps concurrent first-opens race-free: two
            # processes creating the same store file must not both insert.
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) "
                "VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            version = int(row["value"])
            if version == SCHEMA_VERSION:
                self._conn.executescript(_SCHEMA)
                return
        self._conn.close()
        raise InvalidParameterError(
            f"{self.path}: store schema version {version} "
            f"!= supported {SCHEMA_VERSION}"
        )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- writes ------------------------------------------------------------

    def put(self, row: Mapping[str, Any]) -> None:
        """Insert or replace one run row (keyed by ``run_key``)."""
        self.put_many([row])

    def put_many(self, rows: Iterable[Mapping[str, Any]]) -> None:
        prepared = []
        for row in rows:
            if not row.get("run_key"):
                raise InvalidParameterError("store rows require a run_key")
            record = dict(row)
            record.setdefault("created_at", time.time())
            values = []
            for column in COLUMNS:
                value = record.get(column)
                if column in _JSON_COLUMNS:
                    value = json.dumps(value or {}, sort_keys=True)
                elif column == "metrics":
                    # NULL (not '{}') when absent: "no metrics" (a row made
                    # up for a dead worker) must stay distinguishable from
                    # "empty metrics".
                    value = (
                        None if value is None else json.dumps(value, sort_keys=True)
                    )
                elif column == "verified" and value is not None:
                    value = int(bool(value))
                values.append(value)
            prepared.append(tuple(values))
        placeholders = ", ".join("?" for _ in COLUMNS)
        with self._conn:
            self._conn.executemany(
                f"INSERT OR REPLACE INTO runs ({', '.join(COLUMNS)}) "
                f"VALUES ({placeholders})",
                prepared,
            )

    # -- reads -------------------------------------------------------------

    def _decode(self, raw: sqlite3.Row) -> Dict[str, Any]:
        row = dict(raw)
        for column in _JSON_COLUMNS:
            row[column] = json.loads(row[column]) if row.get(column) else {}
        if row.get("metrics") is not None:
            row["metrics"] = json.loads(row["metrics"])
        if row.get("verified") is not None:
            row["verified"] = bool(row["verified"])
        return row

    def get(self, run_key: str) -> Optional[Dict[str, Any]]:
        raw = self._conn.execute(
            "SELECT * FROM runs WHERE run_key = ?", (run_key,)
        ).fetchone()
        return None if raw is None else self._decode(raw)

    def __contains__(self, run_key: str) -> bool:
        return self.get(run_key) is not None

    def __len__(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]

    def query(
        self,
        order_by: str = "run_key",
        include_errors: bool = True,
        **filters: Any,
    ) -> List[Dict[str, Any]]:
        """Rows matching the equality ``filters`` (any of ``algorithm,
        family, workload, seed, engine, kind, code_version, verdict``),
        ordered deterministically by ``order_by`` then ``run_key``;
        ``include_errors=False`` drops errored cells."""
        unknown = set(filters) - set(_FILTERS)
        if unknown:
            raise InvalidParameterError(
                f"unknown query filters {sorted(unknown)}; "
                f"available: {sorted(_FILTERS)}"
            )
        if order_by not in COLUMNS:
            raise InvalidParameterError(f"cannot order by {order_by!r}")
        clauses, values = [], []
        for column, value in filters.items():
            if value is None:
                continue
            clauses.append(f"{column} = ?")
            values.append(value)
        if not include_errors:
            clauses.append("error IS NULL")
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        cursor = self._conn.execute(
            f"SELECT * FROM runs{where} ORDER BY {order_by}, run_key", values
        )
        return [self._decode(raw) for raw in cursor.fetchall()]

    # -- meta --------------------------------------------------------------

    def set_meta(self, key: str, value: Any) -> None:
        """Persist one JSON-encoded entry in the ``meta`` table (the
        campaign runner stores its end-of-run summary here so ``repro
        stats`` can report cache-hit rates — information no per-row
        record can carry, since served-from-store cells never rewrite
        their rows). ``schema_version`` is the store's own key and is
        off-limits."""
        if key == "schema_version":
            raise InvalidParameterError("schema_version is store-managed")
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (key, json.dumps(value, sort_keys=True)),
            )

    def get_meta(self, key: str) -> Optional[Any]:
        """The decoded ``meta`` entry under ``key``, or ``None``."""
        raw = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        if raw is None:
            return None
        try:
            return json.loads(raw["value"])
        except ValueError:
            return raw["value"]

    # -- maintenance -------------------------------------------------------

    def set_verdict(
        self, run_key: str, verdict: Optional[str], violation: Optional[str] = None
    ) -> bool:
        """Update one row's verification columns in place (the ``repro
        verify`` re-check path). The legacy ``verified`` flag is kept
        derived (``verdict == 'ok'``) so a re-checked row can never read
        ``verified`` and ``verdict`` contradictorily. Returns False when
        the key is absent."""
        verified = None if verdict is None else int(verdict == "ok")
        with self._conn:
            cursor = self._conn.execute(
                "UPDATE runs SET verdict = ?, violation = ?, verified = ? "
                "WHERE run_key = ?",
                (verdict, violation, verified, run_key),
            )
        return cursor.rowcount > 0

    def gc(
        self,
        keep_code_version: Optional[str] = None,
        drop_errors: bool = True,
        drop_failed: bool = False,
        dry_run: bool = False,
    ) -> int:
        """Delete unreachable rows: entries from other code versions (their
        keys can never hit again), by default errored cells (so the next
        campaign retries them), and optionally rows whose verification
        verdict is ``fail`` (``drop_failed`` — so the next campaign
        recomputes them with the fixed build). Returns the affected row
        count."""
        clauses, values = [], []
        if keep_code_version is not None:
            clauses.append("code_version != ?")
            values.append(keep_code_version)
        if drop_errors:
            clauses.append("error IS NOT NULL")
        if drop_failed:
            clauses.append("verdict = 'fail'")
        if not clauses:
            return 0
        where = " OR ".join(clauses)
        if dry_run:
            return self._conn.execute(
                f"SELECT COUNT(*) FROM runs WHERE {where}", values
            ).fetchone()[0]
        with self._conn:
            cursor = self._conn.execute(f"DELETE FROM runs WHERE {where}", values)
        self._conn.execute("VACUUM")
        return cursor.rowcount
