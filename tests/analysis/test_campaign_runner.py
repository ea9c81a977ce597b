"""Cell campaigns: the workloads cells build, CampaignRunner fan-out,
persistence, and the CLI wiring for run/sweep/campaign cells."""

import json

import pytest

from repro import workloads
from repro.analysis.campaign import (
    CampaignCell,
    CampaignRunner,
    default_cells,
    load_cell_results,
    save_cell_results,
)
from repro.cli import main
from repro.errors import InvalidParameterError


class TestWorkloads:
    """Cells resolve their graphs through :mod:`repro.workloads`; a bad
    workload name or parameter fails only its own cell."""

    def test_builtin_names(self):
        names = workloads.default_grid_names()
        assert {"random-regular", "erdos-renyi", "star-forest-stack"} <= set(names)

    def test_build_with_params(self):
        cell = CampaignCell("greedy", "random-regular", {"n": 20, "d": 4}, seed=3)
        (row,) = CampaignRunner([cell]).run()
        assert row["error"] is None
        assert (row["n"], row["m"]) == (20, 40)

    def test_seed_changes_graph(self):
        g1 = workloads.build("erdos-renyi", {"n": 30, "p": 0.2}, seed=1)
        g2 = workloads.build("erdos-renyi", {"n": 30, "p": 0.2}, seed=2)
        assert set(g1.edges()) != set(g2.edges())

    def test_unknown_workload(self):
        cells = [
            CampaignCell("greedy", "mobius-donut"),
            CampaignCell("greedy", "random-regular", {"n": 16, "d": 4}),
        ]
        rows = CampaignRunner(cells).run()
        assert "unknown workload" in rows[0]["error"]
        assert rows[1]["error"] is None

    def test_bad_workload_params(self):
        cell = CampaignCell("greedy", "random-regular", {"bogus": 5})
        (row,) = CampaignRunner([cell]).run()
        assert "rejected parameters" in row["error"]


class TestCampaignRunner:
    CELLS = [
        CampaignCell("star4", "random-regular", {"n": 16, "d": 4}, seed=0),
        CampaignCell("greedy", "random-regular", {"n": 16, "d": 4}, seed=0),
        CampaignCell(
            "thm52",
            "star-forest-stack",
            {"n_centers": 4, "leaves_per_center": 8, "a": 2},
            seed=1,
            algo_params={"arboricity": 2},
        ),
    ]

    def test_inline_run(self):
        rows = CampaignRunner(self.CELLS, jobs=1).run()
        assert len(rows) == 3
        assert [r["error"] for r in rows] == [None, None, None]
        assert all(r["colors_used"] > 0 for r in rows)
        assert all("wall_ms" in r for r in rows)

    def test_pool_matches_inline(self):
        inline = CampaignRunner(self.CELLS, engine="vector", jobs=1).run()
        pooled = CampaignRunner(self.CELLS, engine="vector", jobs=2).run()
        # wall_ms and the metrics blob are timing measurements — they
        # differ between any two executions by nature.
        strip = lambda rows: [
            {k: v for k, v in r.items() if k not in ("wall_ms", "metrics")}
            for r in rows
        ]
        assert strip(inline) == strip(pooled)

    def test_per_cell_engine_override(self):
        cells = [
            CampaignCell("star4", "random-regular", {"n": 16, "d": 4}, engine="vector"),
            CampaignCell("star4", "random-regular", {"n": 16, "d": 4}),
        ]
        rows = CampaignRunner(cells, engine="reference").run()
        assert rows[0]["engine"] == "vector"
        assert rows[1]["engine"] == "reference"
        assert rows[0]["colors_used"] == rows[1]["colors_used"]

    def test_error_isolation(self):
        cells = [
            CampaignCell("thm54", "random-regular", {"n": 16, "d": 4}, algo_params={"x": 0}),
            CampaignCell("greedy", "random-regular", {"n": 16, "d": 4}),
        ]
        rows = CampaignRunner(cells).run()
        assert rows[0]["error"] is not None
        assert rows[1]["error"] is None

    def test_non_repro_errors_are_isolated_too(self):
        from repro import registry

        def explode(graph):
            raise KeyError("runner bug")

        registry.register(
            registry.AlgorithmSpec(
                name="test-exploder", family="baseline", kind="edge-coloring",
                summary="always raises a non-ReproError", color_bound="-",
                rounds_bound="-", runner=explode,
            )
        )
        try:
            cells = [
                CampaignCell("test-exploder", "random-regular", {"n": 16, "d": 4}),
                CampaignCell("greedy", "random-regular", {"n": 16, "d": 4}),
            ]
            rows = CampaignRunner(cells).run()
            assert "KeyError" in rows[0]["error"]
            assert rows[1]["error"] is None
        finally:
            registry._REGISTRY.pop("test-exploder", None)

    def test_bad_jobs(self):
        with pytest.raises(InvalidParameterError):
            CampaignRunner([], jobs=0)

    def test_roundtrip_persistence(self, tmp_path):
        rows = CampaignRunner(self.CELLS[:1]).run()
        out = tmp_path / "cells.json"
        save_cell_results(rows, out)
        assert load_cell_results(out) == json.loads(json.dumps(rows))

    def test_default_cells_shape(self):
        cells = default_cells(seeds=(0,))
        keys = {cell.key() for cell in cells}
        assert len(keys) == len(cells)
        assert any(cell.algorithm == "thm52" for cell in cells)


class TestStreamingExecutor:
    """The windowed as_completed stream: retries, progress, bounded
    windows, and worker-crash isolation."""

    CELLS = [
        CampaignCell("greedy", "random-regular", {"n": 16, "d": 4}, seed=s)
        for s in range(6)
    ]

    def test_returned_rows_share_their_strings(self, tmp_path):
        # rows served from the store are decoded one by one; the runner
        # interns their strings, so the rows it returns keep one copy of
        # each field name, metric name and repeated value
        from repro.store import ExperimentStore, RunCache

        cells = [
            CampaignCell("greedy", "random-regular", {"n": 16, "d": 4}, seed=s)
            for s in (0, 1)
        ]
        with ExperimentStore(tmp_path / "runs.db") as store:
            CampaignRunner(cells, cache=RunCache(store)).run()
            again = CampaignRunner(cells, cache=RunCache(store)).run()
        assert [r["cached"] for r in again] == [True, True]
        first, second = (r["metrics"]["timers"] for r in again)
        names = {k: k for k in second}
        assert first and all(k is names[k] for k in first)
        assert again[0]["workload"] is again[1]["workload"]

    def test_returned_rows_share_their_flat_dicts(self, tmp_path, monkeypatch):
        # content-equal params, extras and counters are one object across
        # the rows of one run, and the rows serialize byte for byte as the
        # unshared rows decoded from the store do
        from repro.analysis import campaign
        from repro.store import ExperimentStore, RunCache

        cells = [
            CampaignCell("linial", "random-regular", {"n": 16, "d": 4}, seed=s)
            for s in (0, 1)
        ]
        with ExperimentStore(tmp_path / "runs.db") as store:
            computed = CampaignRunner(cells, engine="vector", cache=RunCache(store)).run()
            shared = CampaignRunner(cells, engine="vector", cache=RunCache(store)).run()
            monkeypatch.setattr(campaign, "_shared_values", lambda value, memo: value)
            plain = CampaignRunner(cells, engine="vector", cache=RunCache(store)).run()
        for rows in (computed, shared):
            first, second = rows
            for key in ("workload_params", "algo_params", "extra"):
                assert first[key] is second[key]
            counters = first["metrics"]["counters"]
            assert counters and counters is second["metrics"]["counters"]
        # a timer's total and maximum, two floats once decoded, are one
        _, total, peak = shared[0]["metrics"]["timers"]["registry.run"]
        assert total is peak
        assert plain[0]["workload_params"] is not plain[1]["workload_params"]
        assert [json.dumps(r) for r in shared] == [json.dumps(r) for r in plain]

    def test_uncached_unseeded_sweep_matches_cached(self, tmp_path):
        """The same grid returns the same identity fields with and
        without a store: unseeded seeds normalize to 0 and identical
        cells execute once in both modes."""
        from repro.store import ExperimentStore, RunCache

        cells = [
            CampaignCell("greedy", "torus", {"rows": 4, "cols": 4}, seed=s)
            for s in (0, 1, 2)
        ]
        snapshots = []
        plain = CampaignRunner(
            cells, progress=lambda p: snapshots.append((p.hits, p.computed))
        ).run()
        assert [r["seed"] for r in plain] == [0, 0, 0]
        assert snapshots[-1] == (2, 1)  # one execution, two shared rows
        with ExperimentStore(tmp_path / "runs.db") as store:
            cached = CampaignRunner(cells, cache=RunCache(store)).run()
        # engine differs by design: the cached path pins the process
        # default into every row (key consistency), the uncached path
        # reports the engine exactly as requested (here: None)
        volatile = ("wall_ms", "metrics", "cached", "run_key", "engine")
        strip = lambda rows: [
            {k: v for k, v in r.items() if k not in volatile} for r in rows
        ]
        assert strip(plain) == strip(cached)
        assert [r["engine"] for r in plain] == [None] * 3
        assert [r["engine"] for r in cached] == ["reference"] * 3

    def test_small_window_preserves_cell_order(self):
        inline = CampaignRunner(self.CELLS, jobs=1).run()
        windowed = CampaignRunner(self.CELLS, jobs=2, window=2).run()
        # wall_ms and the metrics blob are timing measurements — they
        # differ between any two executions by nature.
        strip = lambda rows: [
            {k: v for k, v in r.items() if k not in ("wall_ms", "metrics")}
            for r in rows
        ]
        assert strip(windowed) == strip(inline)

    def test_bad_retries_and_window(self):
        with pytest.raises(InvalidParameterError):
            CampaignRunner([], retries=-1)
        with pytest.raises(InvalidParameterError):
            CampaignRunner([], window=0)

    def test_progress_callback_counts_every_cell(self):
        snapshots = []
        rows = CampaignRunner(
            self.CELLS, jobs=2, progress=lambda p: snapshots.append(
                (p.done, p.hits, p.computed, p.errors)
            )
        ).run()
        assert all(r["error"] is None for r in rows)
        assert snapshots[-1] == (len(self.CELLS), 0, len(self.CELLS), 0)
        assert [s[0] for s in snapshots] == sorted(s[0] for s in snapshots)

    def test_progress_eta_appears_after_first_computed_cell(self):
        from repro.analysis.campaign import CampaignProgress

        assert CampaignProgress(total=4).eta_s is None
        halfway = CampaignProgress(total=4, done=2, computed=2, elapsed_s=1.0)
        assert halfway.eta_s == pytest.approx(1.0)

    def _register_flaky(self, counter_path, fail_times):
        from repro import registry

        import dataclasses

        def flaky(graph):
            with open(counter_path, "a", encoding="utf-8") as handle:
                handle.write("x")
            if counter_path.stat().st_size <= fail_times:
                raise RuntimeError("transient failure")
            run = registry.get("greedy").runner(graph)
            return dataclasses.replace(run, name="test-flaky")

        registry.register(
            registry.AlgorithmSpec(
                name="test-flaky", family="baseline", kind="edge-coloring",
                summary="fails a fixed number of times, then succeeds",
                color_bound="-", rounds_bound="-", runner=flaky,
            )
        )

    def test_retries_heal_transient_failures(self, tmp_path):
        from repro import registry

        counter = tmp_path / "attempts"
        counter.touch()
        self._register_flaky(counter, fail_times=2)
        try:
            cells = [CampaignCell("test-flaky", "random-regular", {"n": 16, "d": 4})]
            rows = CampaignRunner(cells, retries=2).run()
            assert rows[0]["error"] is None
            assert counter.stat().st_size == 3  # 1 attempt + 2 retries
        finally:
            registry._REGISTRY.pop("test-flaky", None)

    def test_exhausted_retries_record_the_error(self, tmp_path):
        from repro import registry

        counter = tmp_path / "attempts"
        counter.touch()
        self._register_flaky(counter, fail_times=99)
        try:
            cells = [CampaignCell("test-flaky", "random-regular", {"n": 16, "d": 4})]
            snapshots = []
            rows = CampaignRunner(
                cells, retries=2, progress=lambda p: snapshots.append(p.retried)
            ).run()
            assert "transient failure" in rows[0]["error"]
            assert counter.stat().st_size == 3
            assert snapshots[-1] == 2
        finally:
            registry._REGISTRY.pop("test-flaky", None)

    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method() != "fork",
        reason="pool workers must inherit the test-registered algorithm",
    )
    def test_broken_pool_loses_only_the_poison_cell(self):
        """A cell that kills its worker process costs only itself: the
        pool is rebuilt, in-flight cells re-execute, the campaign ends
        with one error row instead of aborting."""
        import os

        from repro import registry

        def worker_killer(graph):
            os._exit(1)

        registry.register(
            registry.AlgorithmSpec(
                name="test-worker-killer", family="baseline",
                kind="edge-coloring", summary="SIGKILLs its own worker",
                color_bound="-", rounds_bound="-", runner=worker_killer,
            )
        )
        try:
            cells = [
                CampaignCell("test-worker-killer", "random-regular", {"n": 16, "d": 4}),
            ] + [
                CampaignCell("greedy", "random-regular", {"n": 16, "d": 4}, seed=s)
                for s in range(4)
            ]
            rows = CampaignRunner(cells, jobs=2).run()
            assert "BrokenProcessPool" in rows[0]["error"]
            assert all(r["error"] is None for r in rows[1:])
        finally:
            registry._REGISTRY.pop("test-worker-killer", None)

    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method() != "fork",
        reason="pool workers must inherit the test-registered algorithms",
    )
    def test_every_pool_freezes_its_workers_heap(self, tmp_path):
        """The first pool and the one rebuilt after a BrokenProcessPool
        both run the gc-freezing initializer in their workers; an inline
        run leaves the caller's process unfrozen."""
        import gc
        import os

        from repro import registry

        # forked workers inherit the freeze count: start from zero
        assert gc.get_freeze_count() == 0
        marker = tmp_path / "killed"

        def frozen_run(name):
            return registry.AlgorithmRun(
                name=name, kind="edge-coloring", coloring={}, colors_used=0,
                extra={"freeze_count": gc.get_freeze_count()},
            )

        def kill_once(graph):
            # the first attempt takes its worker down; the requeued one
            # runs on the rebuilt pool
            if not marker.exists():
                marker.touch()
                os._exit(1)
            return frozen_run("test-kill-once")

        for name, runner in (
            ("test-kill-once", kill_once),
            ("test-freeze-count", lambda graph: frozen_run("test-freeze-count")),
        ):
            registry.register(
                registry.AlgorithmSpec(
                    name=name, family="baseline", kind="edge-coloring",
                    summary="reports its worker's gc freeze count",
                    color_bound="-", rounds_bound="-", runner=runner,
                )
            )
        try:
            cells = [
                CampaignCell("test-kill-once", "random-regular", {"n": 16, "d": 4}),
            ] + [
                CampaignCell("test-freeze-count", "random-regular",
                             {"n": 16, "d": 4}, seed=s)
                for s in range(3)
            ]
            rows = CampaignRunner(cells, jobs=2, verify=False).run()
            assert marker.exists()
            assert all(r["error"] is None for r in rows), rows
            assert all(r["extra"]["freeze_count"] > 0 for r in rows)
            inline = CampaignRunner(cells[1:2], jobs=1, verify=False).run()
            assert inline[0]["extra"]["freeze_count"] == 0
            assert gc.get_freeze_count() == 0
        finally:
            registry._REGISTRY.pop("test-kill-once", None)
            registry._REGISTRY.pop("test-freeze-count", None)


class TestCachedStreaming:
    """Cache-specific streaming behavior: duplicate-key sharing and the
    engine column recorded from the run key's pinned engine."""

    def test_unseeded_seed_sweep_computes_once(self, tmp_path):
        from repro.store import ExperimentStore, RunCache

        cells = [
            CampaignCell("greedy", "torus", {"rows": 4, "cols": 4}, seed=s)
            for s in (0, 1, 2)
        ]
        snapshots = []
        with ExperimentStore(tmp_path / "runs.db") as store:
            first = CampaignRunner(
                cells, cache=RunCache(store),
                progress=lambda p: snapshots.append((p.done, p.hits, p.computed)),
            ).run()
            assert len(store) == 1  # one computation, one key
            # shared duplicates count as hits, not computed cells
            assert snapshots[-1] == (3, 2, 1)
            keys = {r["run_key"] for r in first}
            assert len(keys) == 1
            strip = lambda r: {k: v for k, v in r.items() if k != "wall_ms"}
            assert strip(first[1]) == strip(first[0])
            second, cache = (
                CampaignRunner(cells, cache=(c := RunCache(store))).run(), c
            )
            assert all(r["cached"] for r in second)
            # one store read serves all three cells
            assert (cache.hits, cache.misses) == (1, 0)
            assert second[1]["metrics"] is second[0]["metrics"]
            # cold and warm runs of the identical command return the same
            # rows: computed rows carry the key-normalized seed (0), not
            # each cell's raw seed
            volatile = ("wall_ms", "cached")
            strip2 = lambda r: {k: v for k, v in r.items() if k not in volatile}
            assert [r["seed"] for r in first] == [0, 0, 0]
            assert [strip2(dict(r, extra=r["extra"] or {})) for r in first] == [
                strip2(r) for r in second
            ]

    def test_recorded_engine_matches_the_pinned_engine(self, tmp_path):
        """Regression: the stored engine column used to fall back to
        'reference' even when the run key hashed another engine."""
        from repro.store import ExperimentStore, RunCache

        cells = [CampaignCell("greedy", "random-regular", {"n": 16, "d": 4})]
        with ExperimentStore(tmp_path / "runs.db") as store:
            CampaignRunner(cells, engine="vector", cache=RunCache(store)).run()
            stored = store.query()
            assert stored[0]["engine"] == "vector"
            # the hit under the same pinned engine proves key and column agree
            rows = CampaignRunner(cells, engine="vector", cache=RunCache(store)).run()
            assert rows[0]["cached"] and rows[0]["engine"] == "vector"

    def test_unseeded_rows_store_normalized_seed_and_survive_gc(self, tmp_path):
        """Regression: a fresh unseeded-workload cell swept at a nonzero
        seed must be stored with the seed its run key hashed (0) — a raw
        seed would contradict the key and get collected by gc's
        pre-normalization migration clause."""
        from repro.store import ExperimentStore, RunCache

        cells = [CampaignCell("greedy", "torus", {"rows": 4, "cols": 4}, seed=2)]
        with ExperimentStore(tmp_path / "runs.db") as store:
            CampaignRunner(cells, cache=RunCache(store)).run()
            assert store.query()[0]["seed"] == 0
            assert (
                store.gc(
                    unseeded_workloads=("torus",), drop_errors=False, dry_run=True
                )
                == 0
            )

    def test_record_prefers_explicit_engine_over_row(self, tmp_path):
        from repro.store import ExperimentStore, RunCache, run_key

        with ExperimentStore(tmp_path / "runs.db") as store:
            key = run_key("greedy", {}, "torus", {}, engine="vector")
            row = {"algorithm": "greedy", "workload": "torus", "engine": None}
            RunCache(store).record(key, row, engine="vector")
            assert store.get(key)["engine"] == "vector"


class TestCliEngineJobs:
    def test_run_workload_with_seeds(self, tmp_path, capsys):
        out = tmp_path / "rows.json"
        code = main(
            [
                "run", "--workload", "random-regular",
                "--workload-param", "n=16", "--workload-param", "d=4",
                "--algorithm", "star4", "--seeds", "0,1",
                "--engine", "vector", "--jobs", "1", "--out", str(out),
            ]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert all(r["error"] is None for r in rows)
        assert "colors=" in capsys.readouterr().out

    def test_sweep_prints_table(self, capsys):
        code = main(
            [
                "sweep", "--algorithm", "greedy", "--deltas", "4,6",
                "--n", "16", "--engine", "vector",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "| Delta |" in out
        assert "| 4 |" in out and "| 6 |" in out

    def test_campaign_cells(self, tmp_path, capsys, monkeypatch):
        from repro.analysis import campaign as campaign_mod

        cells = [CampaignCell("greedy", "random-regular", {"n": 16, "d": 4})]
        monkeypatch.setattr(campaign_mod, "default_cells", lambda: cells)
        out = tmp_path / "cells.json"
        code = main(["campaign", "cells", "--out", str(out), "--engine", "vector"])
        assert code == 0
        assert "saved 1 cell results" in capsys.readouterr().out
        assert load_cell_results(out)[0]["algorithm"] == "greedy"

    def test_campaign_cells_requires_out(self):
        with pytest.raises(SystemExit):
            main(["campaign", "cells"])

    def test_campaign_cells_progress_line(self, tmp_path, capsys):
        out = tmp_path / "cells.json"
        code = main(
            [
                "campaign", "cells", "--algorithms", "greedy",
                "--workloads", "random-regular", "--seeds", "0,1",
                "--jobs", "1", "--out", str(out), "--progress",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "[2/2]" in err and "computed=2" in err and "errors=0" in err

    def test_campaign_cells_retries_flag(self, tmp_path):
        out = tmp_path / "cells.json"
        code = main(
            [
                "campaign", "cells", "--algorithms", "greedy",
                "--workloads", "random-regular", "--seeds", "0",
                "--jobs", "1", "--retries", "2", "--out", str(out),
            ]
        )
        assert code == 0
        with pytest.raises(SystemExit):
            main(["campaign", "cells", "--retries", "-1", "--out", str(out)])

    def test_default_grid_excludes_scale_workloads(self, tmp_path):
        """The unfiltered default grid must stay cheap: the scale
        (>= 50k-node) and xl (>= 1M-node) tiers run only when named via
        --workloads, and the exclusion list is the single registry-level
        constant the CLI and listings share."""
        from repro import workloads as workload_registry

        out = tmp_path / "cells.json"
        code = main(
            [
                "campaign", "cells", "--algorithms", "greedy",
                "--seeds", "0", "--jobs", "1", "--out", str(out),
            ]
        )
        assert code == 0
        rows = load_cell_results(out)
        used = {r["workload"] for r in rows}
        assert used == set(workload_registry.default_grid_names())
        excluded = set(workload_registry.names()) - used
        assert excluded == {
            spec.name
            for spec in workload_registry.specs()
            if spec.family in workload_registry.EXCLUDED_FROM_DEFAULT_GRID
        }
        assert {"scale-regular", "xl-grid"} <= excluded

    def test_algorithms_listing(self, capsys):
        assert main(["algorithms", "--family", "core"]) == 0
        out = capsys.readouterr().out
        assert "star4" in out and "thm52" in out
