"""Graph substrate: generators, clique covers, line graphs, hypergraphs,
structural parameters and orientations."""

from repro.graphs.cliques import CliqueCover
from repro.graphs.generators import (
    complete_graph,
    cycle,
    disjoint_cliques,
    erdos_renyi,
    fat_tree,
    forest_union,
    hypercube,
    path,
    planar_grid,
    random_bipartite_regular,
    random_regular,
    random_tree,
    shared_vertex_cliques,
    star_forest_stack,
    torus,
    triangular_grid,
)
from repro.graphs.hypergraphs import (
    Hypergraph,
    random_uniform_hypergraph,
    regular_partite_hypergraph,
)
from repro.graphs.linegraph import (
    edge_coloring_from_vertex_coloring,
    line_graph_with_cover,
    vertex_coloring_from_edge_coloring,
)
from repro.graphs.orientation import Orientation, orient_acyclic_by_order
from repro.graphs.properties import (
    ArboricityBounds,
    arboricity_bounds,
    degeneracy,
    degeneracy_ordering,
    forest_decomposition,
    iter_edges,
    max_degree,
    number_of_edges,
)

__all__ = [
    "CliqueCover",
    "complete_graph",
    "cycle",
    "disjoint_cliques",
    "erdos_renyi",
    "fat_tree",
    "forest_union",
    "hypercube",
    "path",
    "planar_grid",
    "random_bipartite_regular",
    "random_regular",
    "random_tree",
    "shared_vertex_cliques",
    "star_forest_stack",
    "torus",
    "triangular_grid",
    "Hypergraph",
    "random_uniform_hypergraph",
    "regular_partite_hypergraph",
    "edge_coloring_from_vertex_coloring",
    "line_graph_with_cover",
    "vertex_coloring_from_edge_coloring",
    "Orientation",
    "orient_acyclic_by_order",
    "ArboricityBounds",
    "arboricity_bounds",
    "degeneracy",
    "degeneracy_ordering",
    "forest_decomposition",
    "iter_edges",
    "max_degree",
    "number_of_edges",
]
