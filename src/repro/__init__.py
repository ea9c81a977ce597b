"""repro — reproduction of Barenboim–Elkin–Maimon (PODC 2017):
deterministic distributed (Delta + o(Delta))-edge-coloring and
vertex-coloring of graphs with bounded diversity.

Public API highlights:

* ``repro.local`` — synchronous LOCAL-model simulator and round ledger.
* ``repro.graphs`` — generators, clique covers, line graphs, hypergraphs.
* ``repro.graphcore`` — the compact CSR graph type, the ``.csrg`` on-disk
  graph store (memory-mapped opens), and streaming million-node builders.
* ``repro.substrates`` — Linial coloring, reductions, the [17] oracle
  (``oracle_vertex_coloring`` / ``oracle_edge_coloring``), H-partitions.
* ``repro.core`` — the paper's contribution: connectors, CD-Coloring
  (Algorithm 1), star-partition edge coloring (Section 4), and the
  bounded-arboricity (Delta + o(Delta))-edge-colorings (Section 5).
* ``repro.baselines`` — Vizing/Misra–Gries, greedy, degree-splitting and the
  analytic [7]+[17] comparison rows.
* ``repro.verify`` — the coloring checkers, ``verify_run`` and the
  cross-engine differential check.
* ``repro.analysis`` — table/figure harnesses, campaigns, the report.
"""

from repro.errors import (
    CliqueCoverError,
    ColoringError,
    InvalidParameterError,
    ReproError,
    RoundLimitExceeded,
    SimulationError,
)
from repro.types import (
    Color,
    Edge,
    EdgeColoring,
    NodeId,
    VertexColoring,
    edge_key,
    num_colors,
)

__version__ = "1.0.0"

# Lazy top-level conveniences (PEP 562): `repro.four_delta_edge_coloring(g)`
# etc. without paying the full import cost for `import repro`.
_LAZY_EXPORTS = {
    "four_delta_edge_coloring": "repro.core",
    "star_partition_edge_coloring": "repro.core",
    "cd_coloring": "repro.core",
    "cd_edge_coloring": "repro.core",
    "cd_hyperedge_coloring": "repro.core",
    "edge_color_bounded_arboricity": "repro.core",
    "edge_color_delta_plus_o_delta": "repro.core",
    "verify_edge_coloring": "repro.verify",
    "verify_vertex_coloring": "repro.verify",
    "oracle_edge_coloring": "repro.substrates",
    "oracle_vertex_coloring": "repro.substrates",
    "line_graph_with_cover": "repro.graphs",
    "CompactGraph": "repro.graphcore",
}


def __getattr__(name):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(list(globals()) + list(_LAZY_EXPORTS))


__all__ = [
    "CliqueCoverError",
    "ColoringError",
    "InvalidParameterError",
    "ReproError",
    "RoundLimitExceeded",
    "SimulationError",
    "Color",
    "Edge",
    "EdgeColoring",
    "NodeId",
    "VertexColoring",
    "edge_key",
    "num_colors",
    "__version__",
]
