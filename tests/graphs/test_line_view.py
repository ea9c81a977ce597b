"""Differential tests of the array-built line graph and the CSR view.

``line_view`` builds ``L(G)`` as CSR arrays and ``line_graph_with_cover``
derives its networkx graph and star cover from them. Both are held here
against a kept copy of the edge-by-edge networkx builder the library used
before, interned: the same ids in the same order, the same rows in the
same order, the same cover. The oracle calls that now run on one view per
call are held against the same flow over the old builder's graph, results
and errors alike, on both engines.
"""

import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import use_engine
from repro.errors import ColoringError
from repro.graphcore import CompactGraph, Interned
from repro.graphs.cliques import CliqueCover
from repro.graphs.linegraph import line_graph_with_cover, line_view
from repro.graphs.properties import iter_edges, max_degree, number_of_edges
from repro.substrates import oracle_edge_coloring, oracle_vertex_coloring
from repro.substrates.linial import linial_coloring
from repro.substrates.reduction import kuhn_wattenhofer_reduction
from repro.types import edge_key

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- references -----------------------------------------------------------


def reference_line_graph_with_cover(graph):
    """The edge-by-edge builder: nodes in ``iter_edges`` order, then one
    ``add_edge`` per pair of edges sharing a vertex, vertex by vertex."""
    line = nx.Graph()
    line.add_nodes_from(edge_key(u, v) for u, v in iter_edges(graph))
    cliques = []
    for v in graph.nodes():
        incident = [edge_key(v, u) for u in graph.neighbors(v)]
        if not incident:
            continue
        cliques.append(incident)
        for i, e in enumerate(incident):
            for f in incident[i + 1 :]:
                line.add_edge(e, f)
    return line, CliqueCover.from_cliques(cliques)


def _reference_check_proper(graph, coloring, what):
    for u, v in iter_edges(graph):
        if coloring[u] == coloring[v]:
            raise ColoringError(f"{what}: edge ({u!r},{v!r}) is monochromatic")


def reference_edge_coloring(graph, initial=None):
    """The edge oracle's flow over the networkx line graph."""
    if number_of_edges(graph) == 0:
        return {}
    line, _ = reference_line_graph_with_cover(graph)
    initial_vertex = None
    if initial is not None:
        initial_vertex = {edge_key(u, v): c for (u, v), c in initial.items()}
    coloring = linial_coloring(line, initial=initial_vertex)
    coloring = kuhn_wattenhofer_reduction(line, coloring, target=max_degree(line) + 1)
    _reference_check_proper(line, coloring, "edge oracle output")
    return dict(coloring)


def reference_vertex_coloring(graph, initial=None):
    """The vertex oracle's flow over the networkx graph itself."""
    if graph.number_of_nodes() == 0:
        return {}
    if initial is not None:
        _reference_check_proper(graph, initial, "oracle initial coloring")
    coloring = linial_coloring(graph, initial=initial)
    coloring = kuhn_wattenhofer_reduction(graph, coloring, target=max_degree(graph) + 1)
    _reference_check_proper(graph, coloring, "oracle output")
    return coloring


def rows(graph):
    """A graph's node order and every row in order."""
    return [(v, list(graph.adj[v])) for v in graph.nodes()]


def view_rows(view):
    """A view's node order and every row in order, as original ids."""
    flat, bounds = view.neighbors, view.bounds
    return [(v, flat[bounds[i] : bounds[i + 1]]) for i, v in enumerate(view.ids)]


def outcome(fn, *args):
    try:
        return ("ok", sorted(fn(*args).items(), key=repr))
    except Exception as exc:  # the type and message are the outcome
        return (type(exc).__name__, str(exc))


# -- generated graphs -----------------------------------------------------


def _shape(kind, n, rng):
    if kind == "gnp":
        return nx.gnp_random_graph(n, rng.random() * 0.6, seed=rng.randrange(10**6))
    if kind == "star":
        return nx.star_graph(n)
    if kind == "empty":
        return nx.empty_graph(n)
    if kind == "isolated":
        graph = nx.gnp_random_graph(n, 0.3, seed=rng.randrange(10**6))
        graph.add_nodes_from(range(n, n + 4))
        return graph
    # insertion order unlike the sorted one: rows out of id order
    graph = nx.Graph()
    nodes = list(range(n))
    rng.shuffle(nodes)
    graph.add_nodes_from(nodes)
    for _ in range(2 * n):
        u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if u != v:
            graph.add_edge(u, v)
    return graph


def _relabel(graph, ids):
    if ids == "tuple":
        return nx.relabel_nodes(graph, {v: (v % 3, v) for v in graph})
    if ids == "sparse":
        return nx.relabel_nodes(graph, {v: 1000 - 17 * v for v in graph})
    return graph


@st.composite
def graphs(draw, forms=("nx", "compact", "directed")):
    kind = draw(st.sampled_from(["gnp", "star", "empty", "isolated", "shuffled"]))
    n = draw(st.integers(min_value=0, max_value=18))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    graph = _relabel(_shape(kind, n, rng), draw(st.sampled_from(["int", "tuple", "sparse"])))
    form = draw(st.sampled_from(forms))
    if form == "compact":
        return CompactGraph.from_networkx(graph)
    if form == "directed":
        # every arc once, a third of them both ways
        digraph = nx.DiGraph()
        digraph.add_nodes_from(graph)
        for k, (u, v) in enumerate(graph.edges()):
            digraph.add_edges_from([(u, v), (v, u)] if k % 3 == 0 else [(v, u)])
        return digraph
    return graph


# -- properties -----------------------------------------------------------


class TestLineViewMatchesTheNxBuilder:
    @SETTINGS
    @given(graphs())
    def test_ids_bounds_and_neighbors(self, graph):
        view = line_view(graph)
        expected = Interned(reference_line_graph_with_cover(graph)[0])
        assert view.ids == expected.ids
        assert view.bounds == expected.bounds
        assert view.neighbors == expected.neighbors
        assert view.indptr.tolist() == expected.indptr.tolist()
        assert view.indices.tolist() == expected.indices.tolist()
        assert (view.n, view.m, view.max_degree) == (expected.n, expected.m, expected.max_degree)

    @SETTINGS
    @given(graphs())
    def test_line_graph_with_cover_output(self, graph):
        line, cover = line_graph_with_cover(graph)
        old_line, old_cover = reference_line_graph_with_cover(graph)
        assert rows(line) == rows(old_line)
        assert cover.cliques == old_cover.cliques
        assert list(cover.membership.items()) == list(old_cover.membership.items())

    def test_self_loop_raises_what_the_nx_builder_raised(self):
        graph = nx.path_graph(5)
        graph.add_edge(3, 3)
        graph.add_edge(1, 1)
        with pytest.raises(ValueError) as expected:
            reference_line_graph_with_cover(graph)
        for build in (line_view, line_graph_with_cover):
            with pytest.raises(ValueError) as raised:
                build(graph)
            assert str(raised.value) == str(expected.value)


class TestViewRoundTrip:
    @SETTINGS
    @given(graphs(forms=("nx", "directed")))
    def test_to_networkx_keeps_node_and_row_order(self, graph):
        back = Interned(graph).to_networkx()
        assert back.is_directed() == graph.is_directed()
        assert rows(back) == rows(graph)
        assert view_rows(Interned(back)) == view_rows(Interned(graph))

    @SETTINGS
    @given(graphs(forms=("nx",)))
    def test_array_built_view_round_trips(self, graph):
        view = Interned(graph)
        rebuilt = Interned.from_arrays(view.ids, view.indptr, view.indices)
        assert view_rows(rebuilt) == view_rows(view)
        assert rows(rebuilt.to_networkx()) == rows(graph)
        # one data dict per edge, shared by both rows, as add_edge leaves it
        back = rebuilt.to_networkx()
        assert all(back.adj[u][v] is back.adj[v][u] for u, v in back.edges())

    def test_arrays_are_built_once(self):
        view = line_view(nx.complete_graph(5))
        assert view.indptr is view.indptr and view.indices is view.indices
        assert list(view.edges()) == list(view.to_networkx().edges())


ENGINES = ["reference", "vector"]


def _oracle_cases():
    loop = nx.path_graph(5)
    loop.add_edge(2, 2)
    path = nx.path_graph(4)
    path.add_node(9)
    tuples = nx.relabel_nodes(nx.cycle_graph(6), {v: (v % 2, v) for v in range(6)})
    directed = nx.DiGraph([(0, 1), (1, 2), (2, 0), (2, 3), (1, 0)])
    return [
        ("edge", loop, None),
        ("vertex", loop, None),
        ("vertex", loop, {v: v for v in loop}),
        ("edge", directed, None),
        ("vertex", directed, None),
        ("edge", path, {(0, 1): 0, (1, 2): 1}),
        ("vertex", path, {0: 0, 1: 1, 2: 0, 3: 1}),
        ("vertex", path, {0: 0, 1: 1, 3: 1, 9: 0}),
        ("vertex", path, {0: 0, 1: 0, 2: 1, 3: 0, 9: 0}),
        ("edge", path, {(0, 1): 0, (1, 2): 1.0, (2, 3): 2}),
        ("edge", tuples, None),
        ("vertex", tuples, None),
        ("edge", CompactGraph.from_networkx(tuples), None),
    ]


class TestOracleOnOneView:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("case", range(len(_oracle_cases())))
    def test_results_and_errors_match_the_nx_flow(self, engine, case):
        kind, graph, initial = _oracle_cases()[case]
        if kind == "edge":
            fn, ref = oracle_edge_coloring, reference_edge_coloring
        else:
            fn, ref = oracle_vertex_coloring, reference_vertex_coloring
        with use_engine(engine):
            got = outcome(fn, graph, initial)
            expected = outcome(ref, graph, initial)
        assert got == expected

    @pytest.mark.parametrize("engine", ENGINES)
    @SETTINGS
    @given(graph=graphs(forms=("nx", "compact")))
    def test_edge_oracle_matches_on_generated_graphs(self, engine, graph):
        with use_engine(engine):
            assert outcome(oracle_edge_coloring, graph) == outcome(
                reference_edge_coloring, graph
            )
