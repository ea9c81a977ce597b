"""Verification, metrics, and the table/figure reproduction harnesses."""

from repro.analysis.figures import (
    FigureReport,
    all_figures,
    figure1_clique_connector,
    figure2_edge_connector,
    figure3_orientation_connector,
)
from repro.analysis.metrics import ExperimentRecord, records_to_markdown
from repro.analysis.stats import PowerLawFit, fit_power_law, geometric_mean
from repro.analysis.tables import run_section5, run_table1, run_table2
from repro.verify.checkers import (
    count_colors,
    max_star_size,
    verify_clique_decomposition,
    verify_edge_coloring,
    verify_star_partition,
    verify_vertex_coloring,
)

__all__ = [
    "FigureReport",
    "all_figures",
    "figure1_clique_connector",
    "figure2_edge_connector",
    "figure3_orientation_connector",
    "ExperimentRecord",
    "records_to_markdown",
    "PowerLawFit",
    "fit_power_law",
    "geometric_mean",
    "run_section5",
    "run_table1",
    "run_table2",
    "count_colors",
    "max_star_size",
    "verify_clique_decomposition",
    "verify_edge_coloring",
    "verify_star_partition",
    "verify_vertex_coloring",
]
