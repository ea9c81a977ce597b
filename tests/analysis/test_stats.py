"""Tests for the scaling-shape statistics."""

import pytest

from repro.errors import InvalidParameterError
from repro.analysis.stats import fit_power_law


class TestPowerLawFit:
    def test_exact_power_law_recovered(self):
        xs = [2, 4, 8, 16, 32]
        ys = [3 * x**0.5 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(0.5, abs=1e-9)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-9)

    def test_predict(self):
        fit = fit_power_law([1, 2, 4], [2, 4, 8])
        assert fit.predict(8) == pytest.approx(16, rel=1e-6)

    def test_noisy_data_close(self):
        xs = [10, 20, 40, 80]
        noise = [1.05, 0.97, 1.02, 0.96]
        ys = [f * x**0.25 for f, x in zip(noise, xs)]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(0.25, abs=0.05)
        assert fit.residual < 0.05

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            fit_power_law([1], [2])
        with pytest.raises(InvalidParameterError):
            fit_power_law([1, 2], [2])
        with pytest.raises(InvalidParameterError):
            fit_power_law([1, -2], [2, 3])


class TestTableShapeClaims:
    def test_table1_modeled_round_exponent(self):
        # The modeled rounds of the new algorithm must scale as
        # Delta^(1/(2x+2)) — the paper's central improvement.
        from repro.local.costmodel import log_star, new_edge_coloring_rounds

        for x in (1, 2):
            deltas = [2**k for k in (8, 12, 16, 20)]
            rounds = [
                new_edge_coloring_rounds(d, 2, x) - log_star(2) for d in deltas
            ]
            fit = fit_power_law(deltas, rounds)
            assert fit.exponent == pytest.approx(1.0 / (2 * x + 2), abs=0.02)

    def test_previous_round_exponent_is_larger(self):
        from repro.local.costmodel import log_star, previous_edge_coloring_rounds

        deltas = [2**k for k in (8, 12, 16, 20)]
        rounds = [
            previous_edge_coloring_rounds(d, 2, 1) - log_star(2) for d in deltas
        ]
        fit = fit_power_law(deltas, rounds)
        assert fit.exponent == pytest.approx(1.0 / 3, abs=0.02)
