"""Coloring substrates: Linial's algorithm, color reductions, the [17]
oracle stand-in (``oracle_vertex_coloring`` / ``oracle_edge_coloring``), and
the Nash-Williams H-partition of [4]."""

from repro.substrates.cole_vishkin import (
    ColeVishkinAlgorithm,
    cole_vishkin_forest_coloring,
    cv_iterations,
    root_forest,
)
from repro.substrates.defective import DefectiveColoring, defective_coloring
from repro.substrates.hpartition import HPartition, h_partition
from repro.substrates.linial import LinialStep, linial_coloring, linial_schedule
from repro.substrates.oracle import oracle_edge_coloring, oracle_vertex_coloring
from repro.substrates.primes import is_prime, next_prime
from repro.substrates.reduction import (
    basic_color_reduction,
    kuhn_wattenhofer_reduction,
)

__all__ = [
    "ColeVishkinAlgorithm",
    "cole_vishkin_forest_coloring",
    "cv_iterations",
    "root_forest",
    "DefectiveColoring",
    "defective_coloring",
    "HPartition",
    "h_partition",
    "LinialStep",
    "linial_coloring",
    "linial_schedule",
    "oracle_edge_coloring",
    "oracle_vertex_coloring",
    "is_prime",
    "next_prime",
    "basic_color_reduction",
    "kuhn_wattenhofer_reduction",
]
