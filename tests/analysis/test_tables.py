"""Tests for the table reproduction harnesses (small configurations)."""

import pytest

from repro.analysis.tables import run_section5, run_table1, run_table2


class TestTable1Harness:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table1(deltas=(8,), x_values=(1, 2), n=32, seed=3)

    def test_all_within_bound(self, rows):
        assert rows
        assert all(r["within_bound"] for r in rows)

    def test_color_ladder_doubles(self, rows):
        by_x = {r["param_x"]: r for r in rows}
        assert by_x[2]["colors_bound"] == 2 * by_x[1]["colors_bound"]

    def test_modeled_rounds_drop_with_x(self, rows):
        by_x = {r["param_x"]: r for r in rows}
        assert by_x[2]["rounds_modeled"] <= by_x[1]["rounds_modeled"]

    def test_baseline_columns_populated(self, rows):
        for r in rows:
            assert r["baseline_colors"] is not None
            assert r["baseline_rounds"] is not None
            # the paper's new color count undercuts the (2^(x+1)+eps)Δ row
            assert r["colors_bound"] < r["baseline_colors"]


class TestTable2Harness:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table2(
            configs=({"diversity": 2, "delta": 6}, {"diversity": 3, "delta": 5}),
            x_values=(1,),
            seed=3,
        )

    def test_all_within_bound(self, rows):
        assert len(rows) == 2
        assert all(r["within_bound"] for r in rows)

    def test_diversity_recorded(self, rows):
        diversities = {r["param_D"] for r in rows}
        assert diversities <= {1, 2, 3}


class TestSection5Harness:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_section5(arboricities=(2,), seed=3)

    def test_rows_present(self, rows):
        experiments = [r["experiment"] for r in rows]
        assert experiments == [
            "thm5.2", "thm5.3", "thm5.4(x=2)", "cor5.5", "baseline-degree-splitting",
        ]

    def test_thm52_close_to_vizing(self, rows):
        row = next(r for r in rows if r["experiment"] == "thm5.2")
        # Delta + O(a) vs Delta + 1: within the dhat slack
        assert row["colors_used"] <= row["baseline_colors"] + row["param_dhat"] + 1

    def test_bounds_respected(self, rows):
        for r in rows:
            if r["colors_bound"] is not None:
                assert r["within_bound"]
