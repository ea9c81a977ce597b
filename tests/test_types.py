"""Tests for the shared type helpers."""

import pytest

from repro.types import (
    color_classes,
    dense_colors,
    edge_key,
    normalize_edge_coloring,
    num_colors,
)


class TestEdgeKey:
    def test_orders_ints(self):
        assert edge_key(3, 1) == (1, 3)
        assert edge_key(1, 3) == (1, 3)

    def test_orders_tuples(self):
        assert edge_key((2, 1), (1, 9)) == ((1, 9), (2, 1))

    def test_mixed_types_fall_back_to_repr(self):
        key = edge_key("b", 1)
        assert set(key) == {"b", 1}
        assert key == edge_key(1, "b")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            edge_key(4, 4)

    def test_idempotent(self):
        assert edge_key(*edge_key(9, 2)) == edge_key(9, 2)


class TestNormalizeEdgeColoring:
    def test_rekeys_reversed_edges(self):
        coloring = {(3, 1): 0, (2, 5): 1}
        normalized = normalize_edge_coloring(coloring)
        assert normalized == {(1, 3): 0, (2, 5): 1}

    def test_empty(self):
        assert normalize_edge_coloring({}) == {}


class TestNumColors:
    def test_empty(self):
        assert num_colors({}) == 0

    def test_counts_distinct(self):
        assert num_colors({1: 0, 2: 0, 3: 4}) == 2

    def test_single(self):
        assert num_colors({"a": 7}) == 1


class TestColorClasses:
    def test_groups_in_insertion_order(self):
        coloring = {"c": 1, "a": 0, "b": 1, "d": 0}
        assert color_classes(coloring) == {1: ["c", "b"], 0: ["a", "d"]}
        assert list(color_classes(coloring)) == [1, 0]

    def test_empty(self):
        assert color_classes({}) == {}


class TestDenseColors:
    def test_numbers_in_sorted_order(self):
        product = {"x": (2, 0), "y": (0, 5), "z": (2, 0), "w": (0, 1)}
        assert dense_colors(product) == {"x": 2, "y": 1, "z": 2, "w": 0}

    def test_mixed_lengths_sort_as_tuples(self):
        # a shorter tuple sorts before its extensions: (1,) < (1, 0) < (2,)
        product = {"a": (2,), "b": (1, 0), "c": (1,)}
        assert dense_colors(product) == {"a": 2, "b": 1, "c": 0}

    def test_keeps_key_order(self):
        product = {3: (1,), 1: (0,), 2: (1,)}
        assert list(dense_colors(product)) == [3, 1, 2]

    def test_empty(self):
        assert dense_colors({}) == {}
