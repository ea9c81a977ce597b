"""Tests for the round ledger's sequential/parallel composition."""

import pytest

from repro.local import RoundLedger


class TestSequential:
    def test_totals_add(self):
        ledger = RoundLedger()
        ledger.add("a", 3)
        ledger.add("b", 4.5)
        assert ledger.total_actual == 7.5
        assert ledger.total_modeled == 7.5

    def test_modeled_tracked_separately(self):
        ledger = RoundLedger()
        ledger.add("oracle", actual=100, modeled=12)
        assert ledger.total_actual == 100
        assert ledger.total_modeled == 12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RoundLedger().add("bad", -1)

    def test_empty_totals_zero(self):
        ledger = RoundLedger()
        assert ledger.total_actual == 0
        assert ledger.total_modeled == 0


class TestParallel:
    def test_parallel_takes_max(self):
        ledger = RoundLedger()
        with ledger.parallel("classes") as scope:
            scope.branch("c0").add("w", 5)
            scope.branch("c1").add("w", 9)
            scope.branch("c2").add("w", 2)
        assert ledger.total_actual == 9

    def test_parallel_max_is_per_branch_total(self):
        ledger = RoundLedger()
        with ledger.parallel("p") as scope:
            b = scope.branch("long")
            b.add("s1", 4)
            b.add("s2", 4)
            scope.branch("short").add("s", 7)
        assert ledger.total_actual == 8

    def test_parallel_actual_and_modeled_independent(self):
        ledger = RoundLedger()
        with ledger.parallel("p") as scope:
            scope.branch("a").add("w", actual=10, modeled=1)
            scope.branch("b").add("w", actual=1, modeled=10)
        assert ledger.total_actual == 10
        assert ledger.total_modeled == 10

    def test_empty_scope_costs_nothing(self):
        ledger = RoundLedger()
        with ledger.parallel("none"):
            pass
        assert ledger.total_actual == 0

    def test_sequential_after_parallel(self):
        ledger = RoundLedger()
        ledger.add("pre", 2)
        with ledger.parallel("p") as scope:
            scope.branch("x").add("w", 3)
        ledger.add("post", 1)
        assert ledger.total_actual == 6

    def test_nested_parallel(self):
        ledger = RoundLedger()
        with ledger.parallel("outer") as outer:
            branch = outer.branch("b")
            with branch.parallel("inner") as inner:
                inner.branch("i1").add("w", 4)
                inner.branch("i2").add("w", 6)
            branch.add("tail", 1)
        assert ledger.total_actual == 7

    def test_per_class_prefixes_class_and_charges_max(self):
        ledger = RoundLedger()
        classes = {2: ["b"], 0: ["a", "c"]}
        visited = []

        def color_class(members, branch):
            visited.append((branch.label, members))
            branch.add("w", actual=len(members) * 3, modeled=1)
            return {k: (i,) for i, k in enumerate(members)}

        product = ledger.per_class("p", classes, color_class)
        assert product == {"a": (0, 0), "c": (0, 1), "b": (2, 0)}
        assert list(product) == ["a", "c", "b"]
        assert visited == [("p/class-0", ["a", "c"]), ("p/class-2", ["b"])]
        assert [e.label for e in ledger.entries] == ["p"]
        assert ledger.total_actual == 6
        assert ledger.total_modeled == 1
        assert [c.label for c in ledger.children] == ["p/class-0", "p/class-2"]

    def test_per_class_without_classes(self):
        ledger = RoundLedger()
        assert ledger.per_class("p", {}, lambda members, branch: {}) == {}
        assert ledger.total_actual == 0

    def test_summary_mentions_entries(self):
        ledger = RoundLedger()
        ledger.add("phase-1", 3)
        assert "phase-1" in ledger.summary()
