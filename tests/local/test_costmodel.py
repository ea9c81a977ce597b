"""Tests for the closed-form cost models."""

import pytest

from repro.errors import InvalidParameterError
from repro.local import costmodel as cm


class TestLogStar:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, 0), (1, 0), (2, 1), (4, 2), (16, 3), (65536, 4), (2**65536 if False else 10**9, 5)],
    )
    def test_known_values(self, n, expected):
        assert cm.log_star(n) == expected

    def test_monotone(self):
        values = [cm.log_star(n) for n in range(1, 200)]
        assert values == sorted(values)


class TestOracleModels:
    def test_fhk_vertex_grows_sublinearly(self):
        r64 = cm.fhk_vertex_rounds(64, 1000)
        r256 = cm.fhk_vertex_rounds(256, 1000)
        # sqrt growth (factor 2) times a mild polylog ratio; far below linear.
        assert r64 < r256 < 4.5 * r64

    def test_fhk_vertex_zero_degree(self):
        assert cm.fhk_vertex_rounds(0, 10) == 1.0

    def test_fhk_edge_uses_line_graph_degree(self):
        assert cm.fhk_edge_rounds(10, 100) == cm.fhk_vertex_rounds(18, 100)

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            cm.fhk_vertex_rounds(-1, 10)

    def test_kw_zero_when_already_small(self):
        assert cm.kuhn_wattenhofer_rounds(5, 10) == 0.0

    def test_kw_scales_with_delta(self):
        assert cm.kuhn_wattenhofer_rounds(1000, 20) > cm.kuhn_wattenhofer_rounds(1000, 5)


class TestTableModels:
    def test_new_edge_rounds_have_halved_delta_exponent(self):
        # Table 1's claim: the Delta exponent drops from 1/(x+2) to 1/(2x+2).
        # Squaring Delta must scale the (log*-free part of the) new bound by
        # Delta^(1/(2x+2)), not Delta^(1/(x+2)).
        offset = cm.log_star(2)
        for x in (1, 2, 3):
            small = cm.new_edge_coloring_rounds(2**12, 2, x) - offset
            big = cm.new_edge_coloring_rounds(2**24, 2, x) - offset
            expected = (2**12) ** (1.0 / (2 * x + 2))
            assert big / small == pytest.approx(expected, rel=0.05)

    def test_new_beats_previous_for_large_delta(self):
        # Table 1's claim: almost quadratic improvement in the Delta exponent.
        delta = 10**6
        for x in (1, 2, 3):
            new = cm.new_edge_coloring_rounds(delta, 10**6, x)
            previous = cm.previous_edge_coloring_rounds(delta, 10**6, x)
            assert new < previous

    def test_exponent_shapes(self):
        # new ~ Delta^(1/4) * polylog vs previous ~ Delta^(1/3) for x = 1:
        # their ratio must grow with Delta.
        r1 = cm.previous_edge_coloring_rounds(10**3, 100, 1) / cm.new_edge_coloring_rounds(10**3, 100, 1)
        r2 = cm.previous_edge_coloring_rounds(10**9, 100, 1) / cm.new_edge_coloring_rounds(10**9, 100, 1)
        assert r2 > r1

    def test_diversity_rounds_validate(self):
        with pytest.raises(InvalidParameterError):
            cm.new_diversity_coloring_rounds(10, 10, 0, 2)
        with pytest.raises(InvalidParameterError):
            cm.previous_diversity_coloring_rounds(10, 10, 1, 0)

    def test_x_validation(self):
        with pytest.raises(InvalidParameterError):
            cm.new_edge_coloring_rounds(10, 10, 0)
        with pytest.raises(InvalidParameterError):
            cm.previous_edge_coloring_rounds(10, 10, 0)
