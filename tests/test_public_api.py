"""Tests for the top-level lazy API surface."""

import importlib
import inspect
import pkgutil
import sqlite3

import pytest

import repro


class TestLazyExports:
    def test_headline_algorithms_reachable(self):
        from repro.graphs import random_regular

        g = random_regular(12, 4, seed=1)
        result = repro.four_delta_edge_coloring(g)
        repro.verify_edge_coloring(g, result.coloring)

    def test_every_lazy_name_resolves(self):
        for name in repro._LAZY_EXPORTS:
            assert getattr(repro, name) is not None

    def test_dir_lists_lazy_names(self):
        listing = dir(repro)
        assert "cd_coloring" in listing
        assert "oracle_vertex_coloring" in listing
        assert "oracle_edge_coloring" in listing

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_error_hierarchy_exported(self):
        assert issubclass(repro.ColoringError, repro.ReproError)
        assert issubclass(repro.RoundLimitExceeded, repro.SimulationError)


def _pipeline_functions():
    """Every public function defined in ``repro.core``, ``repro.baselines``
    and ``repro.substrates``, as ``(qualified name, function)``."""
    found = []
    for package in ("repro.core", "repro.baselines", "repro.substrates"):
        pkg = importlib.import_module(package)
        for info in pkgutil.iter_modules(pkg.__path__):
            module = importlib.import_module(f"{package}.{info.name}")
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ == module.__name__ and not name.startswith("_"):
                    found.append((f"{module.__name__}.{name}", fn))
    return found


class TestPipelineSignatures:
    def test_no_function_takes_an_oracle_palette_or_partition(self):
        offenders = [
            (name, param)
            for name, fn in _pipeline_functions()
            for param in inspect.signature(fn).parameters
            if param in ("oracle", "palette_size", "partition")
        ]
        assert offenders == []

    def test_only_cd_coloring_takes_trim(self):
        takers = [
            name for name, fn in _pipeline_functions()
            if "trim" in inspect.signature(fn).parameters
        ]
        assert takers == ["repro.core.cd_coloring.cd_coloring"]

    def test_oracle_is_two_functions(self):
        from repro.substrates import oracle

        assert not hasattr(oracle, "ColoringOracle")
        assert not hasattr(repro, "ColoringOracle")
        for fn in (oracle.oracle_vertex_coloring, oracle.oracle_edge_coloring):
            assert list(inspect.signature(fn).parameters) == [
                "graph", "initial", "ledger", "label",
            ]


class TestEngineContract:
    """An engine runs a node algorithm on a graph in the failure-free
    LOCAL model: no crash schedule, bandwidth tracking or tracer."""

    def test_engines_are_the_fixed_pair(self):
        from repro.engine import available_engines, get_engine

        assert available_engines() == ["reference", "vector"]
        for name in available_engines():
            # one instance per name, built on first use
            assert get_engine(name) is get_engine(name)
            assert get_engine(name).name == name

    @pytest.mark.parametrize("name", ["abstract", "reference", "vector"])
    def test_every_engine_run_takes_the_four_parameters(self, name):
        from repro.engine import Engine, get_engine

        run = Engine.run if name == "abstract" else get_engine(name).run
        params = [p for p in inspect.signature(run).parameters if p != "self"]
        assert params == ["graph", "algorithm", "extras", "max_rounds"]

    def test_network_run_takes_algorithm_ctx_and_max_rounds(self):
        from repro.local import Network

        params = [p for p in inspect.signature(Network.run).parameters if p != "self"]
        assert params == ["algorithm", "ctx", "max_rounds"]

    def test_run_result_fields(self):
        import dataclasses

        from repro.local import RunResult

        assert [f.name for f in dataclasses.fields(RunResult)] == [
            "rounds", "messages", "outputs", "round_messages", "engine",
        ]

    def test_run_on_graph_takes_no_engine(self):
        from repro.local import run_on_graph

        assert "engine" not in inspect.signature(run_on_graph).parameters

    def test_removed_names_are_gone(self):
        import repro.engine
        import repro.local
        import repro.obs

        for module, name in (
            (repro.local, "Tracer"),
            (repro.local, "estimate_payload_bits"),
            (repro.obs, "render_rounds"),
            (repro.engine, "register_engine"),
        ):
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in module.__all__
        for gone in ("repro.local.congest", "repro.local.trace"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(gone)


#: The current ``runs`` columns, in schema order; older stores lack some.
_RUNS_COLUMNS = (
    "run_key TEXT PRIMARY KEY",
    "algorithm TEXT NOT NULL",
    "family TEXT",
    "workload TEXT NOT NULL",
    "workload_params TEXT NOT NULL DEFAULT '{}'",
    "seed INTEGER NOT NULL DEFAULT 0",
    "algo_params TEXT NOT NULL DEFAULT '{}'",
    "engine TEXT NOT NULL",
    "code_version TEXT NOT NULL",
    "n INTEGER",
    "m INTEGER",
    "kind TEXT",
    "colors_used INTEGER",
    "rounds_actual REAL",
    "rounds_modeled REAL",
    "messages INTEGER",
    "verified INTEGER",
    "verdict TEXT",
    "violation TEXT",
    "error TEXT",
    "wall_ms REAL",
    "extra TEXT",
    "metrics TEXT",
    "created_at REAL NOT NULL",
)

#: What each hand-built store lacks of the current ``runs`` table: schema
#: v1 had no verdict columns, v2 no metrics blob; 99 stands for a store
#: written by a later release.
_MISSING_COLUMNS = {1: ("verdict", "violation", "metrics"), 2: ("metrics",), 99: ()}


def _hand_built_store(path, version):
    columns = [c for c in _RUNS_COLUMNS if c.split()[0] not in _MISSING_COLUMNS[version]]
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
    conn.execute(f"CREATE TABLE runs ({', '.join(columns)})")
    conn.execute("INSERT INTO meta VALUES ('schema_version', ?)", (str(version),))
    conn.executemany(
        "INSERT INTO runs (run_key, algorithm, workload, seed, engine, "
        "code_version, colors_used, verified, created_at) "
        "VALUES (?, 'star4', 'random-regular', ?, 'reference', '1.0.0', ?, 1, ?)",
        [(f"key-{i}", i, 20 + i, 1700000000.0 + i) for i in range(3)],
    )
    conn.commit()
    conn.close()


def _store_snapshot(path):
    conn = sqlite3.connect(path)
    try:
        return {
            query: conn.execute(query).fetchall()
            for query in (
                "PRAGMA table_info(runs)",
                "SELECT * FROM runs ORDER BY run_key",
                "SELECT * FROM meta ORDER BY key",
                "SELECT type, name, sql FROM sqlite_master ORDER BY name",
            )
        }
    finally:
        conn.close()


class TestStoreContract:
    """The store reads and writes one schema generation; the campaign
    always verifies. No migration, no unverified campaign and no reader
    branch for rows this code cannot write."""

    @staticmethod
    def _params(function):
        return [p for p in inspect.signature(function).parameters if p != "self"]

    def test_campaign_runner_signature(self):
        from repro.analysis.campaign import CampaignRunner

        assert self._params(CampaignRunner.__init__) == [
            "cells", "engine", "jobs", "cache", "retries", "progress",
        ]

    def test_run_cache_get_takes_only_the_key(self):
        from repro.store import RunCache

        assert self._params(RunCache.get) == ["key"]

    def test_store_query_and_gc_signatures(self):
        from repro.store import ExperimentStore

        assert self._params(ExperimentStore.query) == [
            "order_by", "include_errors", "filters",
        ]
        assert self._params(ExperimentStore.gc) == [
            "keep_code_version", "drop_errors", "drop_failed", "dry_run",
        ]

    def test_removed_store_readers_are_gone(self):
        from repro.analysis import dataframes
        from repro.store import ExperimentStore

        for name in ("slowest", "distinct"):
            assert not hasattr(ExperimentStore, name), name
        for name in ("select", "sort", "aggregate", "distinct"):
            assert not hasattr(dataframes.Frame, name), name
        for name in ("load_store_frame", "row_compute_ms"):
            assert not hasattr(dataframes, name), name
            assert name not in dataframes.__all__

    @pytest.mark.parametrize("command", ["query", "verify"])
    def test_cli_rejects_unverified(self, command, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--store", "runs.db", "--unverified"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --unverified" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_other_schema_versions_are_refused_untouched(self, tmp_path, version):
        from repro.errors import InvalidParameterError
        from repro.store import ExperimentStore

        path = tmp_path / f"v{version}.db"
        _hand_built_store(path, version)
        before = _store_snapshot(path)
        with pytest.raises(
            InvalidParameterError,
            match=rf"store schema version {version} != supported 3$",
        ):
            ExperimentStore(path)
        assert _store_snapshot(path) == before  # no migration happened

    def test_cli_reports_the_refusal(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "v2.db"
        _hand_built_store(path, 2)
        with pytest.raises(SystemExit, match="store schema version 2 != supported 3"):
            main(["query", "--store", str(path)])
