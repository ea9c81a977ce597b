"""Deterministic graph generators used by tests, examples and benchmarks.

The paper's bounds are parameterized only by ``n``, the maximum degree
``Delta``, the arboricity ``a``, and (for bounded-diversity instances) the
diversity ``D`` and clique size ``S``. These generators sweep exactly those
parameters. All of them are deterministic given a seed.

Randomness policy: every stochastic generator draws from a **locally
seeded** :class:`random.Random` (via :func:`_rng`) or hands an explicit
integer seed to networkx, which constructs its own local RNG. Nothing in
this module touches the global ``random`` state, so graphs are
reproducible regardless of what other code seeded globally — the
seed-stability regression suite (``tests/graphs/test_generator_seeds.py``)
pins the exact node/edge sets.
"""

from __future__ import annotations

import random

import networkx as nx

from repro.errors import InvalidParameterError


def _rng(seed: int) -> random.Random:
    """A private RNG for one generator call — never the global module."""
    return random.Random(seed)


def _relabel_to_ints(graph: nx.Graph) -> nx.Graph:
    mapping = {v: i for i, v in enumerate(sorted(graph.nodes(), key=repr))}
    return nx.relabel_nodes(graph, mapping, copy=True)


def erdos_renyi(n: int, p: float, seed: int = 0) -> nx.Graph:
    """G(n, p) with integer vertices 0..n-1."""
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError("p must be in [0, 1]")
    return nx.gnp_random_graph(n, p, seed=seed)


def random_regular(n: int, d: int, seed: int = 0) -> nx.Graph:
    """A random d-regular graph (requires n*d even, d < n)."""
    if d >= n or (n * d) % 2 != 0:
        raise InvalidParameterError("random regular graph needs d < n and n*d even")
    return nx.random_regular_graph(d, n, seed=seed)


def random_tree(n: int, seed: int = 0) -> nx.Graph:
    """A uniformly random labelled tree."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if n <= 2:
        g = nx.path_graph(n)
        return g
    rng = _rng(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    return nx.from_prufer_sequence(prufer)


def forest_union(n: int, a: int, seed: int = 0) -> nx.Graph:
    """The union of ``a`` random spanning forests on the same vertex set.

    By Nash-Williams, the result has arboricity at most ``a`` (its edge set
    decomposes into the ``a`` forests by construction) while the maximum
    degree is typically much larger — the regime of Section 5
    (``a = o(Delta)``).
    """
    if a < 1:
        raise InvalidParameterError("a must be >= 1")
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for i in range(a):
        tree = random_tree(n, seed=seed * 1009 + i)
        graph.add_edges_from(tree.edges())
    return graph


def star_forest_stack(n_centers: int, leaves_per_center: int, a: int, seed: int = 0) -> nx.Graph:
    """Union of ``a`` star forests: high maximum degree, arboricity <= a.

    This pushes ``Delta / a`` as high as possible — the most favourable
    regime for Theorem 5.3 / Corollary 5.5 — deterministically.
    """
    if n_centers < 1 or leaves_per_center < 1 or a < 1:
        raise InvalidParameterError("all parameters must be >= 1")
    n = n_centers * (1 + leaves_per_center)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    rng = _rng(seed)
    nodes = list(range(n))
    for layer in range(a):
        rng.shuffle(nodes)
        centers = nodes[:n_centers]
        leaves = nodes[n_centers:]
        for i, leaf in enumerate(leaves):
            center = centers[i % n_centers]
            if center != leaf:
                graph.add_edge(center, leaf)
    return graph


def planar_grid(rows: int, cols: int) -> nx.Graph:
    """A rows x cols grid graph relabelled to integers (arboricity <= 2)."""
    return _relabel_to_ints(nx.grid_2d_graph(rows, cols))


def triangular_grid(rows: int, cols: int) -> nx.Graph:
    """A grid with one diagonal per face (planar, arboricity <= 3)."""
    grid = nx.grid_2d_graph(rows, cols)
    for r in range(rows - 1):
        for c in range(cols - 1):
            grid.add_edge((r, c), (r + 1, c + 1))
    return _relabel_to_ints(grid)


def hypercube(dim: int) -> nx.Graph:
    """The dim-dimensional hypercube (Delta = dim)."""
    return _relabel_to_ints(nx.hypercube_graph(dim))


def complete_graph(n: int) -> nx.Graph:
    return nx.complete_graph(n)


def cycle(n: int) -> nx.Graph:
    return nx.cycle_graph(n)


def path(n: int) -> nx.Graph:
    return nx.path_graph(n)


def disjoint_cliques(count: int, size: int) -> nx.Graph:
    """``count`` disjoint cliques of the given size."""
    graph = nx.Graph()
    for i in range(count):
        members = list(range(i * size, (i + 1) * size))
        graph.add_nodes_from(members)
        for a in range(size):
            for b in range(a + 1, size):
                graph.add_edge(members[a], members[b])
    return graph


def shared_vertex_cliques(clique_size: int, num_cliques: int) -> nx.Graph:
    """``num_cliques`` cliques of size ``clique_size`` all sharing vertex 0
    (the "friendship"-style gadget of Figure 1; vertex 0 has diversity
    ``num_cliques``)."""
    if clique_size < 2 or num_cliques < 1:
        raise InvalidParameterError("need clique_size >= 2 and num_cliques >= 1")
    graph = nx.Graph()
    next_id = 1
    for _ in range(num_cliques):
        members = [0] + list(range(next_id, next_id + clique_size - 1))
        next_id += clique_size - 1
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                graph.add_edge(members[i], members[j])
    return graph


def torus(rows: int, cols: int) -> nx.Graph:
    """A 2D torus (wrap-around grid): 4-regular, a natural interconnect
    topology with arboricity <= 3."""
    if rows < 3 or cols < 3:
        raise InvalidParameterError("torus needs both dimensions >= 3")
    graph = nx.Graph()
    for r in range(rows):
        for c in range(cols):
            graph.add_edge((r, c), ((r + 1) % rows, c))
            graph.add_edge((r, c), (r, (c + 1) % cols))
    return _relabel_to_ints(graph)


def fat_tree(k: int) -> nx.Graph:
    """A k-ary fat-tree datacenter topology (k even): k pods of k/2 edge and
    k/2 aggregation switches, (k/2)^2 core switches, full bipartite wiring
    inside each pod, and each aggregation switch linked to k/2 cores.

    Hosts are omitted (they are degree-1 leaves); the switch fabric is the
    part that needs link scheduling.
    """
    if k < 2 or k % 2 != 0:
        raise InvalidParameterError("fat-tree arity k must be a positive even number")
    half = k // 2
    graph = nx.Graph()
    cores = [("core", i, j) for i in range(half) for j in range(half)]
    graph.add_nodes_from(cores)
    for pod in range(k):
        edges = [("edge", pod, i) for i in range(half)]
        aggs = [("agg", pod, i) for i in range(half)]
        for e in edges:
            for a in aggs:
                graph.add_edge(e, a)
        # aggregation switch i connects to core row i
        for i, a in enumerate(aggs):
            for j in range(half):
                graph.add_edge(a, ("core", i, j))
    return _relabel_to_ints(graph)


def random_bipartite_regular(n_each: int, d: int, seed: int = 0) -> nx.Graph:
    """A d-regular bipartite graph on 2*n_each vertices (union of d perfect
    matchings between the sides; may be a multigraph collapsed, so the
    realized degree can be < d for small seeds — callers should read off
    the realized Delta)."""
    if d > n_each:
        raise InvalidParameterError("d cannot exceed side size")
    rng = _rng(seed)
    graph = nx.Graph()
    left = [("L", i) for i in range(n_each)]
    right = [("R", i) for i in range(n_each)]
    graph.add_nodes_from(left)
    graph.add_nodes_from(right)
    for _ in range(d):
        perm = list(range(n_each))
        rng.shuffle(perm)
        for i in range(n_each):
            graph.add_edge(("L", i), ("R", perm[i]))
    return _relabel_to_ints(graph)
