"""Differential tests of the one-peel graph parameters.

``arboricity_bounds`` and ``degeneracy`` come from one CSR core peel, and
``degeneracy_ordering`` pops a lazily invalidated heap. Each is held
against a reference kept here: the per-k ``graph.subgraph`` loop and the
bucket-queue elimination the library used before, on generated graphs
with dense int, tuple and sparse int ids, subgraph views, ``CompactGraph``
inputs, empty graphs, isolated nodes, cliques and stars.
"""

import math
import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import InvalidParameterError
from repro.graphcore import CompactGraph
from repro.graphs.properties import (
    arboricity_bounds,
    degeneracy,
    degeneracy_ordering,
    iter_edges,
    max_degree,
    number_of_edges,
)

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- references -----------------------------------------------------------


def reference_degeneracy_ordering(graph):
    """Smallest current degree first, ties by smallest repr: one
    ``min(bucket, key=repr)`` scan per step."""
    remaining = {v: set(graph.neighbors(v)) for v in graph.nodes()}
    order = []
    degeneracy_ = 0
    buckets = {}
    degree_of = {}
    for v, nbrs in remaining.items():
        d = len(nbrs)
        degree_of[v] = d
        buckets.setdefault(d, set()).add(v)
    removed = set()
    for _ in range(len(remaining)):
        d = 0
        while not buckets.get(d):
            d += 1
        v = min(buckets[d], key=repr)
        buckets[d].discard(v)
        degeneracy_ = max(degeneracy_, d)
        order.append(v)
        removed.add(v)
        for u in remaining[v]:
            if u in removed:
                continue
            du = degree_of[u]
            buckets[du].discard(u)
            degree_of[u] = du - 1
            buckets.setdefault(du - 1, set()).add(u)
    return order, degeneracy_


def reference_arboricity_bounds(graph):
    """Whole-graph density, then one ``graph.subgraph`` per k-core."""
    if isinstance(graph, CompactGraph):
        graph = graph.to_networkx()
    n = graph.number_of_nodes()
    m = graph.number_of_edges()
    if n <= 1 or m == 0:
        return (0, 0) if m == 0 else (1, 1)
    lower = math.ceil(m / (n - 1))
    upper = max(1, reference_degeneracy_ordering(graph)[1])
    core_numbers = nx.core_number(graph)
    for k in range(2, upper + 1):
        core_nodes = [v for v, c in core_numbers.items() if c >= k]
        if len(core_nodes) > 1:
            sub = graph.subgraph(core_nodes)
            ms, ns = sub.number_of_edges(), sub.number_of_nodes()
            if ns > 1 and ms > 0:
                lower = max(lower, math.ceil(ms / (ns - 1)))
    return min(lower, upper), upper


# -- generated graphs -----------------------------------------------------


def _dense_core_with_tail(n, rng):
    """A clique on a third of the nodes with a random tree hanging off
    it: cores whose density beats the whole graph's."""
    k = max(2, n // 3)
    graph = nx.complete_graph(k)
    for v in range(k, n):
        graph.add_edge(v, rng.randrange(v))
    return graph


def _shape(kind, n, rng):
    if kind == "gnp":
        return nx.gnp_random_graph(n, rng.random() * 0.6, seed=rng.randrange(10**6))
    if kind == "clique":
        return nx.complete_graph(n)
    if kind == "star":
        return nx.star_graph(n)
    if kind == "empty":
        return nx.empty_graph(n)
    if kind == "isolated":
        graph = nx.gnp_random_graph(n, 0.3, seed=rng.randrange(10**6))
        graph.add_nodes_from(range(n, n + 4))
        return graph
    return _dense_core_with_tail(n, rng)


def _relabel(graph, ids):
    if ids == "tuple":
        return nx.relabel_nodes(graph, {v: (v % 3, v) for v in graph})
    if ids == "sparse":
        return nx.relabel_nodes(graph, {v: 1000 - 17 * v for v in graph})
    return graph


@st.composite
def graphs(draw, forms=("nx", "view", "compact")):
    kind = draw(st.sampled_from(["gnp", "clique", "star", "empty", "isolated", "core"]))
    n = draw(st.integers(min_value=0, max_value=24))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    graph = _relabel(_shape(kind, n, rng), draw(st.sampled_from(["int", "tuple", "sparse"])))
    form = draw(st.sampled_from(forms))
    if form == "view":
        nodes = list(graph)
        return graph.subgraph(rng.sample(nodes, rng.randint(0, len(nodes))))
    if form == "compact":
        return CompactGraph.from_networkx(graph)
    return graph


# -- properties -----------------------------------------------------------


class TestOnePeelBounds:
    @SETTINGS
    @given(graphs())
    def test_bounds_match_the_per_k_subgraph_loop(self, graph):
        bounds = arboricity_bounds(graph)
        assert (bounds.lower, bounds.upper) == reference_arboricity_bounds(graph)

    @SETTINGS
    @given(graphs(forms=("nx", "view")))
    def test_degeneracy_is_the_maximum_core_number(self, graph):
        expected = max(nx.core_number(graph).values(), default=0)
        assert degeneracy(graph) == expected
        assert degeneracy(CompactGraph.from_networkx(graph)) == expected

    def test_self_loops_raise_what_core_number_raises(self):
        graph = nx.cycle_graph(5)
        graph.add_edge(2, 2)
        with pytest.raises(nx.NetworkXNotImplemented) as expected:
            nx.core_number(graph)
        for helper in (arboricity_bounds, degeneracy):
            with pytest.raises(nx.NetworkXNotImplemented) as raised:
                helper(graph)
            assert str(raised.value) == str(expected.value)

    def test_one_node_self_loop_keeps_the_shortcut(self):
        graph = nx.Graph()
        graph.add_edge(0, 0)
        bounds = arboricity_bounds(graph)
        assert (bounds.lower, bounds.upper) == (1, 1)

    @pytest.mark.parametrize("helper", [arboricity_bounds, degeneracy])
    def test_directed_inputs_are_refused(self, helper):
        with pytest.raises(InvalidParameterError, match="undirected"):
            helper(nx.DiGraph([(0, 1), (1, 2)]))


class TestHeapOrdering:
    @SETTINGS
    @given(graphs())
    def test_order_matches_the_bucket_scan(self, graph):
        assert degeneracy_ordering(graph) == reference_degeneracy_ordering(graph)


class TestCycleFreeReaders:
    @SETTINGS
    @given(graphs(forms=("nx", "view")), st.booleans())
    def test_readers_match_the_nx_views(self, graph, directed):
        # the view itself, and a copy with a self-loop (counted twice by
        # degree(), once by edges()) and, when directed, half the arcs
        # reversed so in- and out-degrees differ
        copy = (nx.DiGraph if directed else nx.Graph)()
        copy.add_nodes_from(graph)
        copy.add_edges_from(graph.edges())
        if directed:
            copy.add_edges_from((v, u) for u, v in list(graph.edges())[::2])
        if len(copy):
            loop = next(iter(copy))
            copy.add_edge(loop, loop)
        for g in (graph, copy):
            assert max_degree(g) == max((d for _, d in g.degree()), default=0)
            assert number_of_edges(g) == g.number_of_edges()
            assert list(iter_edges(g)) == list(g.edges())

    @SETTINGS
    @given(graphs(forms=("compact",)))
    def test_readers_on_compact_graphs(self, graph):
        assert max_degree(graph) == max((d for _, d in graph.degree()), default=0)
        assert number_of_edges(graph) == graph.number_of_edges()
        assert list(iter_edges(graph)) == list(graph.edges())

    def test_readers_cache_no_view(self):
        graph = nx.path_graph(6)
        max_degree(graph), number_of_edges(graph), list(iter_edges(graph))
        assert "degree" not in graph.__dict__ and "edges" not in graph.__dict__
