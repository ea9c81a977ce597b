"""RunCache semantics through CampaignRunner: hit/miss keying, error
retry, half-finished-campaign resume, and the CLI store workflow."""

import json

import pytest

from repro.analysis.campaign import CampaignCell, CampaignRunner, grid_cells
from repro.cli import main
from repro.errors import InvalidParameterError
from repro.store import ExperimentStore, RunCache, stable_row

CELLS = [
    CampaignCell("greedy", "random-regular", {"n": 16, "d": 4}, seed=0),
    CampaignCell("greedy", "random-regular", {"n": 16, "d": 4}, seed=1),
    CampaignCell("star4", "torus", {"rows": 4, "cols": 4}, seed=0),
    CampaignCell("vizing", "random-regular", {"n": 16, "d": 4}, seed=0),
]


def _run(store, cells=CELLS, **kwargs):
    cache = RunCache(store, **kwargs)
    rows = CampaignRunner(cells, cache=cache).run()
    return rows, cache


class TestCacheHitMiss:
    def test_first_run_misses_second_hits(self, tmp_path):
        with ExperimentStore(tmp_path / "runs.db") as store:
            first, cache1 = _run(store)
            second, cache2 = _run(store)
        assert all(not r["cached"] for r in first)
        assert all(r["cached"] for r in second)
        assert (cache1.hits, cache1.misses) == (0, len(CELLS))
        assert (cache2.hits, cache2.misses) == (len(CELLS), 0)

    def test_cached_rows_match_computed_rows(self, tmp_path):
        volatile = ("wall_ms", "cached")
        strip = lambda rows: [
            {k: v for k, v in r.items() if k not in volatile} for r in rows
        ]
        with ExperimentStore(tmp_path / "runs.db") as store:
            first, _ = _run(store)
            second, _ = _run(store)
        first = [dict(r, extra=r["extra"] or {}) for r in first]
        assert json.loads(json.dumps(strip(first))) == json.loads(
            json.dumps(strip(second))
        )

    def test_stored_row_without_verdict_is_a_miss(self, tmp_path):
        """The store file is outside input: a row that carries no
        verification verdict is never served, until one is recorded."""
        with ExperimentStore(tmp_path / "runs.db") as store:
            _run(store, cells=CELLS[:1])
            cache = RunCache(store)
            key = cache.key_for(CELLS[0])
            assert store.set_verdict(key, None)
            assert cache.get(key) is None
            assert (cache.hits, cache.misses) == (0, 1)
            assert store.set_verdict(key, "ok")
            assert cache.get(key)["run_key"] == key
            assert (cache.hits, cache.misses) == (1, 1)

    def test_param_change_is_a_miss(self, tmp_path):
        changed = [CampaignCell("greedy", "random-regular", {"n": 16, "d": 6}, seed=0)]
        with ExperimentStore(tmp_path / "runs.db") as store:
            _run(store)
            rows, cache = _run(store, cells=changed)
        assert not rows[0]["cached"]
        assert cache.misses == 1

    def test_engine_change_is_a_miss(self, tmp_path):
        cell = [CampaignCell("greedy", "random-regular", {"n": 16, "d": 4})]
        with ExperimentStore(tmp_path / "runs.db") as store:
            CampaignRunner(cell, engine="reference", cache=RunCache(store)).run()
            cache = RunCache(store)
            rows = CampaignRunner(cell, engine="vector", cache=cache).run()
        assert not rows[0]["cached"]

    def test_code_version_change_is_a_miss(self, tmp_path):
        with ExperimentStore(tmp_path / "runs.db") as store:
            _run(store, code_version="1.0.0")
            rows, _ = _run(store, cells=CELLS[:1], code_version="2.0.0")
        assert not rows[0]["cached"]

    def test_refresh_forces_recompute(self, tmp_path):
        with ExperimentStore(tmp_path / "runs.db") as store:
            _run(store)
            rows, cache = _run(store, refresh=True)
        assert all(not r["cached"] for r in rows)
        assert cache.hits == 0

    def test_errors_are_stored_but_retried(self, tmp_path):
        bad = [CampaignCell("greedy", "random-regular", {"n": 16, "d": 99})]
        with ExperimentStore(tmp_path / "runs.db") as store:
            first, _ = _run(store, cells=bad)
            assert first[0]["error"] is not None
            # the failure is queryable ...
            assert store.query()[0]["error"] is not None
            # ... but the next campaign retries instead of serving it
            second, cache = _run(store, cells=bad)
        assert cache.hits == 0 and not second[0].get("cached")

    def test_unknown_workload_cell_is_isolated(self, tmp_path):
        """A cell whose run key cannot even be computed (unknown workload)
        must produce an error row, not kill the cached campaign."""
        cells = [
            CampaignCell("greedy", "mobius-donut", {}, seed=0),
            CampaignCell("greedy", "random-regular", {"n": 16, "d": 4}, seed=0),
        ]
        with ExperimentStore(tmp_path / "runs.db") as store:
            rows, _ = _run(store, cells=cells)
            assert "unknown workload" in rows[0]["error"]
            assert rows[0]["run_key"] is None
            assert rows[1]["error"] is None
            # only the addressable cell was persisted
            assert len(store) == 1

    def test_decomposition_cells_get_structural_verdicts(self, tmp_path):
        # PR 4: decompositions are no longer unverifiable — h-partition
        # declares the level-degree/orientation oracle.
        cells = [CampaignCell("h-partition", "star-forest-stack",
                              {"n_centers": 4, "leaves_per_center": 8, "a": 2},
                              algo_params={"arboricity": 2})]
        with ExperimentStore(tmp_path / "runs.db") as store:
            rows, _ = _run(store, cells=cells)
            assert rows[0]["kind"] == "decomposition"
            assert rows[0]["verdict"] == "ok"
            assert rows[0]["verified"] is True
            stored = store.query()[0]
            assert stored["verdict"] == "ok"
            assert stored["violation"] is None

    def test_pool_and_inline_agree(self, tmp_path):
        strip = lambda rows: [
            {k: v for k, v in r.items() if k not in ("wall_ms", "metrics")}
            for r in rows
        ]
        with ExperimentStore(tmp_path / "a.db") as store:
            inline = CampaignRunner(CELLS, cache=RunCache(store), jobs=1).run()
        with ExperimentStore(tmp_path / "b.db") as store:
            pooled = CampaignRunner(CELLS, cache=RunCache(store), jobs=2).run()
        assert json.loads(json.dumps(strip(inline))) == json.loads(
            json.dumps(strip(pooled))
        )


class TestResume:
    def test_half_finished_campaign_completes(self, tmp_path):
        path = tmp_path / "runs.db"
        # simulate a crash after two cells: only the prefix was recorded
        with ExperimentStore(path) as store:
            _run(store, cells=CELLS[:2])
        with ExperimentStore(path) as store:
            rows, cache = _run(store)
        assert [r["cached"] for r in rows] == [True, True, False, False]
        assert (cache.hits, cache.misses) == (2, 2)

    def test_resumed_equals_uninterrupted(self, tmp_path):
        interrupted = tmp_path / "interrupted.db"
        clean = tmp_path / "clean.db"
        with ExperimentStore(interrupted) as store:
            _run(store, cells=CELLS[:2])  # the "killed" campaign
            _run(store)  # the resume
        with ExperimentStore(clean) as store:
            _run(store)  # never interrupted
        with ExperimentStore(interrupted) as a, ExperimentStore(clean) as b:
            rows_a = [stable_row(r) for r in a.query()]
            rows_b = [stable_row(r) for r in b.query()]
        assert json.dumps(rows_a, sort_keys=True) == json.dumps(rows_b, sort_keys=True)


class TestGridCells:
    def test_product_grid(self):
        cells = grid_cells(["greedy", "star4"], ["torus"], [0, 1, 2])
        assert len(cells) == 6
        assert cells[0].workload_params == {"cols": 8, "rows": 8}

    def test_unknown_algorithm(self):
        with pytest.raises(InvalidParameterError, match="unknown algorithm"):
            grid_cells(["nope"], ["torus"], [0])

    def test_unknown_workload(self):
        with pytest.raises(InvalidParameterError, match="unknown workload"):
            grid_cells(["greedy"], ["nope"], [0])


class TestCliStoreWorkflow:
    ARGS = [
        "campaign", "cells",
        "--algorithms", "greedy,star4",
        "--workloads", "random-regular",
        "--seeds", "0,1",
        "--jobs", "1",
    ]

    def test_store_then_resume_then_query(self, tmp_path, capsys):
        db = str(tmp_path / "runs.db")
        assert main(self.ARGS + ["--store", db]) == 0
        assert "4 computed" in capsys.readouterr().out
        assert main(self.ARGS + ["--store", db, "--resume"]) == 0
        assert "4 from cache, 0 computed" in capsys.readouterr().out

        out = tmp_path / "rows.json"
        assert main(
            ["query", "--store", db, "--format", "json", "--out", str(out)]
        ) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 4
        assert {r["algorithm"] for r in rows} == {"greedy", "star4"}
        assert all(r["error"] is None for r in rows)

    def test_query_markdown(self, tmp_path, capsys):
        db = str(tmp_path / "runs.db")
        main(self.ARGS + ["--store", db])
        capsys.readouterr()
        assert main(["query", "--store", db, "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert "| algorithm |" in out and "greedy" in out

    def test_resume_requires_existing_store(self, tmp_path):
        with pytest.raises(SystemExit, match="--resume"):
            main(self.ARGS + ["--store", str(tmp_path / "void.db"), "--resume"])

    def test_resume_and_fresh_conflict(self, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(self.ARGS + ["--store", str(tmp_path / "x.db"), "--resume", "--fresh"])

    def test_cells_requires_out_or_store(self):
        with pytest.raises(SystemExit, match="--out and/or --store"):
            main(["campaign", "cells"])

    def test_gc_cli(self, tmp_path, capsys):
        db = str(tmp_path / "runs.db")
        main(self.ARGS + ["--store", db])
        capsys.readouterr()
        assert main(["gc", "--store", db]) == 0
        assert "deleted 0 of 4 rows" in capsys.readouterr().out

    def test_unseeded_seed_sweep_shares_one_store_row(self, tmp_path, capsys):
        """Regression: ``--seeds 0,1,2`` over a deterministic-topology
        workload used to store three identical computations under three
        distinct run keys (and could never share a cache hit)."""
        db = str(tmp_path / "runs.db")
        args = [
            "campaign", "cells", "--algorithms", "greedy",
            "--workloads", "torus", "--seeds", "0,1,2", "--jobs", "1",
            "--store", db,
        ]
        assert main(args) == 0
        # the cold summary already reports the two shared duplicates
        assert "3 cells, 2 from cache, 1 computed" in capsys.readouterr().out
        with ExperimentStore(db) as store:
            assert len(store) == 1
        assert main(args) == 0
        assert "3 from cache, 0 computed" in capsys.readouterr().out

    def test_gc_cli_collects_errored_rows(self, tmp_path, capsys):
        """``repro gc`` collects errored rows by default (the next
        campaign retries them) and prints only its count line."""
        import repro

        db = tmp_path / "runs.db"
        with ExperimentStore(db) as store:
            store.put(
                {
                    "run_key": "boom", "algorithm": "greedy",
                    "workload": "random-regular", "workload_params": {},
                    "seed": 0, "algo_params": {}, "engine": "reference",
                    "code_version": repro.__version__, "error": "Boom: no",
                }
            )
        assert main(["gc", "--store", str(db)]) == 0
        assert capsys.readouterr().out == "deleted 1 of 1 rows (0 remain)\n"

    def test_query_missing_store(self, tmp_path):
        with pytest.raises(SystemExit, match="no experiment store"):
            main(["query", "--store", str(tmp_path / "void.db")])
