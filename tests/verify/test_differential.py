"""Differential cross-engine checking and stored-row re-verification."""

import pytest

import repro
from repro.store import ExperimentStore, RunCache
from repro.analysis.campaign import CampaignCell, CampaignRunner
from repro.verify import (
    compare_runs,
    default_diff_cells,
    differential_check,
    recheck_row,
)


class TestDifferential:
    def test_engines_agree_on_star4(self):
        result = differential_check(
            "star4", "random-regular", {"n": 24, "d": 6}, seed=1
        )
        assert result.ok
        assert result.mismatches == []
        assert result.engines == ("reference", "vector")

    def test_cell_error_is_a_result_not_an_exception(self):
        result = differential_check("star4", "no-such-workload")
        assert not result.ok
        assert "InvalidParameterError" in result.error

    def test_single_engine_rejected(self):
        result = differential_check(
            "star4", "random-regular", {"n": 8, "d": 3}, engines=("reference",)
        )
        assert not result.ok
        assert "at least two engines" in result.error

    def test_compare_runs_reports_field_and_extra_diffs(self):
        from repro import registry
        from repro.graphs import random_regular
        import dataclasses

        g = random_regular(16, 4, seed=2)
        a = registry.run("star4", g)
        b = dataclasses.replace(
            a, colors_used=a.colors_used + 1, extra=dict(a.extra, delta=99)
        )
        mismatches = compare_runs(a, b)
        fields = {m.field for m in mismatches}
        assert "colors_used" in fields
        assert "extra['delta']" in fields

    def test_default_sample_includes_scale_family(self):
        from repro import workloads

        cells = default_diff_cells()
        families = {workloads.get(c["workload"]).family for c in cells}
        assert "scale" in families
        # ... size-reduced through declared parameters, so it stays fast.
        scale = [c for c in cells if workloads.get(c["workload"]).family == "scale"]
        assert all(c["workload_params"]["n"] <= 1024 for c in scale)


class TestRecheckRow:
    def _store_one(self, tmp_path):
        cell = CampaignCell("greedy", "random-regular", {"n": 16, "d": 4}, seed=0)
        store = ExperimentStore(tmp_path / "runs.db")
        CampaignRunner([cell], cache=RunCache(store)).run()
        return store

    def test_clean_row_rechecks_ok(self, tmp_path):
        with self._store_one(tmp_path) as store:
            row = store.query()[0]
            result = recheck_row(row)
            assert result.status == "ok"
            assert result.mismatches == []
            assert result.violation is None

    def test_corrupted_column_flagged(self, tmp_path):
        with self._store_one(tmp_path) as store:
            row = store.query()[0]
            row["colors_used"] += 5
            result = recheck_row(row)
            assert result.status == "fail"
            assert "drifted" in result.violation
            assert any(m.field == "colors_used" for m in result.mismatches)

    def test_unbuildable_row_is_error(self, tmp_path):
        with self._store_one(tmp_path) as store:
            row = store.query()[0]
            row["workload"] = "no-such-workload"
            result = recheck_row(row)
            assert result.status == "error"
            assert "InvalidParameterError" in result.violation

    def test_set_verdict_roundtrip(self, tmp_path):
        with self._store_one(tmp_path) as store:
            row = store.query()[0]
            assert store.set_verdict(row["run_key"], "fail", "test violation")
            updated = store.get(row["run_key"])
            assert updated["verdict"] == "fail"
            assert updated["violation"] == "test violation"
            # the legacy verified flag stays derived — never contradicts
            assert updated["verified"] is False
            assert store.query(verdict="fail")[0]["run_key"] == row["run_key"]
            assert not store.set_verdict("missing-key", "ok")
            store.set_verdict(row["run_key"], "ok")
            assert store.get(row["run_key"])["verified"] is True

    def test_verdictless_rows_recomputed_by_verifying_campaign(self, tmp_path):
        """A stored row without a verdict (the store file is outside
        input) must not be served as a hit — re-execution gives it its
        verdict, so every returned cell carries one."""
        cell = CampaignCell("greedy", "random-regular", {"n": 16, "d": 4}, seed=0)
        with ExperimentStore(tmp_path / "runs.db") as store:
            cache = RunCache(store)
            store.put(
                {
                    "run_key": cache.key_for(cell, engine="reference"),
                    "algorithm": cell.algorithm,
                    "workload": cell.workload,
                    "workload_params": cell.workload_params,
                    "seed": cell.seed,
                    "engine": "reference",
                    "code_version": repro.__version__,
                    "colors_used": 7,
                }
            )
            assert store.query()[0]["verdict"] is None

            runner = CampaignRunner([cell], engine="reference", cache=cache)
            rows = runner.run()
            assert runner.last_progress.hits == 0  # not served from cache
            assert rows[0]["verdict"] == "ok"
            assert store.query()[0]["verdict"] == "ok"

            # ... and once verified, the same grid is all hits again.
            runner = CampaignRunner([cell], engine="reference", cache=RunCache(store))
            runner.run()
            assert runner.last_progress.hits == 1
