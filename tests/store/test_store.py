"""Experiment store: keying, persistence, query filters, gc, and
concurrent writer safety under a process pool."""

import json
import multiprocessing
import sqlite3
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro
from repro.errors import InvalidParameterError
from repro.store import ExperimentStore, run_key, stable_row
from repro.store.store import STABLE_COLUMNS


def _row(key, algorithm="greedy", **overrides):
    row = {
        "run_key": key,
        "algorithm": algorithm,
        "family": "baseline",
        "workload": "random-regular",
        "workload_params": {"n": 16, "d": 4},
        "seed": 0,
        "algo_params": {},
        "engine": "reference",
        "code_version": repro.__version__,
        "n": 16,
        "m": 32,
        "kind": "edge-coloring",
        "colors_used": 7,
        "rounds_actual": 5.0,
        "rounds_modeled": 9.5,
        "verified": True,
        "error": None,
        "wall_ms": 1.25,
        "extra": {"delta": 4},
    }
    row.update(overrides)
    return row


class TestRunKey:
    def test_deterministic(self):
        a = run_key("greedy", {}, "random-regular", {"n": 16, "d": 4}, seed=0)
        b = run_key("greedy", {}, "random-regular", {"n": 16, "d": 4}, seed=0)
        assert a == b and len(a) == 64

    def test_defaults_and_explicit_params_share_a_key(self):
        # random-regular defaults are n=64, d=8 — spelling them out must
        # hash identically to omitting them.
        implicit = run_key("greedy", {}, "random-regular", {}, seed=0)
        explicit = run_key("greedy", {}, "random-regular", {"n": 64, "d": 8}, seed=0)
        assert implicit == explicit

    @pytest.mark.parametrize(
        "change",
        [
            {"algorithm": "star4"},
            {"algo_params": {"x": 2}},
            {"workload": "line-of-regular"},  # also accepts n/d params
            {"workload_params": {"n": 16, "d": 6}},
            {"seed": 1},
            {"engine": "vector"},
            {"code_version": "999.0.0"},
        ],
    )
    def test_any_ingredient_changes_the_key(self, change):
        base = dict(
            algorithm="greedy",
            algo_params={},
            workload="random-regular",
            workload_params={"n": 16, "d": 4},
            seed=0,
            engine="reference",
            code_version=repro.__version__,
        )
        assert run_key(**base) != run_key(**{**base, **change})

    def test_unknown_workload_param_rejected(self):
        with pytest.raises(InvalidParameterError, match="rejected parameters"):
            run_key("greedy", {}, "random-regular", {"bogus": 1})


class TestStoreRoundTrip:
    def test_put_get(self, tmp_path):
        with ExperimentStore(tmp_path / "runs.db") as store:
            store.put(_row("k1"))
            row = store.get("k1")
        assert row["algorithm"] == "greedy"
        assert row["workload_params"] == {"n": 16, "d": 4}
        assert row["extra"] == {"delta": 4}
        assert row["verified"] is True
        assert row["created_at"] > 0

    def test_reopen_persists(self, tmp_path):
        path = tmp_path / "runs.db"
        with ExperimentStore(path) as store:
            store.put(_row("k1"))
        with ExperimentStore(path) as store:
            assert "k1" in store
            assert len(store) == 1

    def test_replace_on_same_key(self, tmp_path):
        with ExperimentStore(tmp_path / "runs.db") as store:
            store.put(_row("k1", colors_used=7))
            store.put(_row("k1", colors_used=9))
            assert len(store) == 1
            assert store.get("k1")["colors_used"] == 9

    def test_missing_run_key_rejected(self, tmp_path):
        with ExperimentStore(tmp_path / "runs.db") as store:
            with pytest.raises(InvalidParameterError, match="run_key"):
                store.put({"algorithm": "greedy"})

    def test_stable_row_strips_volatile_columns(self):
        stable = stable_row(_row("k1"))
        assert tuple(stable) == STABLE_COLUMNS
        assert "wall_ms" not in stable and "created_at" not in stable


class TestQuery:
    @pytest.fixture
    def store(self, tmp_path):
        with ExperimentStore(tmp_path / "runs.db") as store:
            store.put_many(
                [
                    _row("k1", algorithm="greedy", seed=0),
                    _row("k2", algorithm="greedy", seed=1),
                    _row("k3", algorithm="star4", family="core", engine="vector"),
                    _row("k4", algorithm="broken", error="Boom: no", colors_used=None),
                ]
            )
            yield store

    def test_filters(self, store):
        assert {r["run_key"] for r in store.query(algorithm="greedy")} == {"k1", "k2"}
        assert [r["run_key"] for r in store.query(family="core")] == ["k3"]
        assert [r["run_key"] for r in store.query(engine="vector")] == ["k3"]
        assert [r["run_key"] for r in store.query(seed=1)] == ["k2"]

    def test_exclude_errors(self, store):
        keys = {r["run_key"] for r in store.query(include_errors=False)}
        assert keys == {"k1", "k2", "k3"}

    def test_deterministic_order(self, store):
        assert [r["run_key"] for r in store.query()] == ["k1", "k2", "k3", "k4"]

    def test_unknown_filter(self, store):
        with pytest.raises(InvalidParameterError, match="unknown query filters"):
            store.query(color="red")

    def test_rows_are_json_serializable(self, store):
        json.dumps([stable_row(r) for r in store.query()])


class TestGc:
    def test_drops_stale_versions_and_errors(self, tmp_path):
        with ExperimentStore(tmp_path / "runs.db") as store:
            store.put_many(
                [
                    _row("k1"),
                    _row("k2", code_version="0.0.1"),
                    _row("k3", error="Boom"),
                ]
            )
            assert store.gc(keep_code_version=repro.__version__, dry_run=True) == 2
            assert len(store) == 3
            assert store.gc(keep_code_version=repro.__version__) == 2
            assert [r["run_key"] for r in store.query()] == ["k1"]

    def test_keep_errors(self, tmp_path):
        with ExperimentStore(tmp_path / "runs.db") as store:
            store.put_many([_row("k1"), _row("k2", error="Boom")])
            assert store.gc(keep_code_version=repro.__version__, drop_errors=False) == 0
            assert len(store) == 2

    def test_drop_failed_collects_only_fail_verdicts(self, tmp_path):
        with ExperimentStore(tmp_path / "runs.db") as store:
            store.put_many(
                [
                    _row("k1", verdict="ok"),
                    _row("k2", verdict="fail", violation="bad color"),
                    _row("k3", verdict="skip"),
                ]
            )
            assert store.gc(drop_failed=True, dry_run=True) == 1
            assert len(store) == 3
            assert store.gc(drop_failed=True) == 1
            assert [r["run_key"] for r in store.query()] == ["k1", "k3"]

    def test_no_clauses_is_a_noop(self, tmp_path):
        with ExperimentStore(tmp_path / "runs.db") as store:
            store.put(_row("k1", seed=3))
            assert store.gc(drop_errors=False) == 0
            assert len(store) == 1


def _write_batch(payload):
    """Worker entry point: open the shared store file and write a batch."""
    path, worker, count = payload
    with ExperimentStore(path) as store:
        for i in range(count):
            store.put(_row(f"w{worker}-{i}", seed=i))
    return worker


#: Shared by the first-open workers: every worker opens file ``i`` at
#: the same moment.
_OPEN_BARRIER = None


def _set_open_barrier(barrier):
    global _OPEN_BARRIER
    _OPEN_BARRIER = barrier


def _open_fresh_files(payload):
    """Worker entry point: open ``count`` store files that do not exist
    yet, in lockstep with the other workers; return the errors seen."""
    root, count = payload
    errors = []
    for i in range(count):
        _OPEN_BARRIER.wait(timeout=60)
        try:
            with ExperimentStore(f"{root}/runs-{i}.db"):
                pass
        except sqlite3.OperationalError as exc:
            errors.append(f"runs-{i}.db: {exc}")
    return errors


class TestConcurrentWriters:
    def test_concurrent_first_opens_of_fresh_files(self, tmp_path):
        # SQLite answers the WAL switch of a file another connection is
        # creating with BUSY and no busy-handler wait; without a retry a
        # few of these 200 opens fail with "database is locked"
        workers, files = 4, 50
        barrier = multiprocessing.Barrier(workers)
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_set_open_barrier,
            initargs=(barrier,),
        ) as pool:
            errors = [
                e for batch in pool.map(
                    _open_fresh_files, [(str(tmp_path), files)] * workers
                ) for e in batch
            ]
        assert errors == []
        with ExperimentStore(tmp_path / "runs-0.db") as store:
            assert store._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"

    def test_process_pool_writers(self, tmp_path):
        path = str(tmp_path / "runs.db")
        workers, per_worker = 4, 25
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(
                pool.map(
                    _write_batch,
                    [(path, w, per_worker) for w in range(workers)],
                )
            )
        assert sorted(done) == list(range(workers))
        with ExperimentStore(path) as store:
            assert len(store) == workers * per_worker
            assert len(store.query(seed=3)) == workers
