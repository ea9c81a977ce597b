"""Scaling-shape statistics for reproduction checks.

The paper's tables make *scaling* claims (rounds ~ Delta^(1/(2x+2)), etc.).
These helpers fit power laws to measured sweeps so tests and benchmarks can
assert the exponent, not just point values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import InvalidParameterError


@dataclass(frozen=True)
class PowerLawFit:
    """``y ≈ coefficient * x^exponent`` (least squares in log-log space)."""

    exponent: float
    coefficient: float
    residual: float

    def predict(self, x: float) -> float:
        return self.coefficient * x**self.exponent


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit ``y = c * x^e`` by linear regression on (log x, log y)."""
    if len(xs) != len(ys):
        raise InvalidParameterError("xs and ys must have equal length")
    if len(xs) < 2:
        raise InvalidParameterError("need at least two points to fit")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise InvalidParameterError("power-law fit needs positive data")
    log_x = np.log(np.asarray(xs, dtype=float))
    log_y = np.log(np.asarray(ys, dtype=float))
    (slope, intercept), residuals, *_ = np.polyfit(log_x, log_y, 1, full=True)
    residual = float(residuals[0]) if len(residuals) else 0.0
    return PowerLawFit(
        exponent=float(slope), coefficient=float(np.exp(intercept)), residual=residual
    )

