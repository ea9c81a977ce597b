"""Parameter sweeps over live algorithm runs, with shape fits.

The cost-model exponents (see ``analysis.stats``) check the *stated*
bounds; these sweeps check the *implementation*: run the algorithm across a
Delta ladder, collect the modeled rounds its ledger actually accumulated,
and fit the power law. Benchmarks and EXPERIMENTS.md use these to show the
measured scaling next to the paper's exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import networkx as nx

from repro.analysis.stats import PowerLawFit, fit_power_law
from repro.core.star_partition import star_partition_edge_coloring
from repro.graphs.generators import random_regular
from repro.local.costmodel import log_star
from repro.verify import verify_edge_coloring


@dataclass
class SweepPoint:
    delta: int
    n: int
    colors_used: int
    colors_bound: int
    rounds_actual: float
    rounds_modeled: float


@dataclass
class DeltaSweep:
    """A Delta ladder for one algorithm configuration plus its shape fit."""

    label: str
    x: int
    points: List[SweepPoint]

    def fit_modeled_rounds(self) -> PowerLawFit:
        """Power-law fit of the *modeled* rounds (the [17]-oracle currency
        the paper's table is stated in) against Delta."""
        xs = [p.delta for p in self.points]
        offset = min(log_star(p.n) for p in self.points)
        ys = [max(p.rounds_modeled - offset, 1e-9) for p in self.points]
        return fit_power_law(xs, ys)

    def max_color_ratio(self) -> float:
        """Worst-case colors_used / paper bound over the ladder (must be
        <= 1 for a sound reproduction)."""
        return max(p.colors_used / p.colors_bound for p in self.points)


def fit_modeled_rounds_from_rows(rows: Sequence[dict]) -> PowerLawFit:
    """Fit the modeled-rounds power law over experiment-store query rows.

    ``rows`` are plain dicts (the output of
    :meth:`repro.store.ExperimentStore.query`) for one algorithm across a
    Delta ladder of ``random-regular`` cells — the cached-campaign
    counterpart of :func:`star_partition_delta_sweep`. Delta is read from
    each row's ``workload_params['d']`` and the ``log*`` additive term is
    removed before fitting, exactly as :meth:`DeltaSweep.fit_modeled_rounds`
    does.
    """
    points: List[Tuple[int, int, float]] = []
    for row in rows:
        if row.get("error") is not None or row.get("rounds_modeled") is None:
            continue
        delta = (row.get("workload_params") or {}).get("d")
        if delta is None:
            continue
        points.append((int(delta), int(row["n"]), float(row["rounds_modeled"])))
    if len(points) < 2:
        raise ValueError("need at least two clean Delta-ladder rows to fit")
    offset = min(log_star(n) for _, n, _ in points)
    xs = [delta for delta, _, _ in points]
    ys = [max(rounds - offset, 1e-9) for _, _, rounds in points]
    return fit_power_law(xs, ys)


def star_partition_delta_sweep(
    x: int,
    deltas: Sequence[int] = (9, 16, 25, 36),
    n: int = 80,
    seed: int = 5,
) -> DeltaSweep:
    """Run the star-partition edge coloring across a Delta ladder."""
    points = []
    for delta in deltas:
        nodes = n if (n * delta) % 2 == 0 else n + 1
        graph = random_regular(nodes, delta, seed=seed)
        result = star_partition_edge_coloring(graph, x=x)
        verify_edge_coloring(graph, result.coloring, palette=result.target_colors)
        points.append(
            SweepPoint(
                delta=delta,
                n=nodes,
                colors_used=result.colors_used,
                colors_bound=result.target_colors,
                rounds_actual=result.rounds_actual,
                rounds_modeled=result.rounds_modeled,
            )
        )
    return DeltaSweep(label=f"star-partition(x={x})", x=x, points=points)
