"""CompactGraph: CSR invariants, the duck-typed read API, digests."""

import numpy as np
import networkx as nx
import pytest

from repro.errors import InvalidParameterError
from repro.graphcore import CompactGraph, from_edge_array


def _path3() -> CompactGraph:
    return from_edge_array(3, np.array([[0, 1], [1, 2]]))


class TestConstruction:
    def test_empty(self):
        g = from_edge_array(0, np.empty((0, 2)))
        assert g.n == 0 and g.m == 0 and g.max_degree == 0
        assert list(g.edges()) == []

    def test_isolated_nodes(self):
        g = from_edge_array(5, np.array([[0, 1]]))
        assert g.n == 5 and g.m == 1
        assert g.degree(4) == 0

    def test_duplicate_and_reversed_edges_collapse(self):
        g = from_edge_array(3, np.array([[0, 1], [1, 0], [0, 1], [2, 1]]))
        assert g.m == 2
        assert g.neighbors(1) == [0, 2]

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidParameterError):
            from_edge_array(3, np.array([[0, 0]]))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            from_edge_array(2, np.array([[0, 2]]))

    def test_validation_catches_asymmetry(self):
        indptr = np.array([0, 1, 1])
        indices = np.array([1])  # 0->1 without 1->0
        with pytest.raises(InvalidParameterError):
            CompactGraph(indptr, indices)

    def test_validation_catches_unsorted_rows(self):
        indptr = np.array([0, 2, 3, 4])
        indices = np.array([2, 1, 0, 0])  # row 0 unsorted
        with pytest.raises(InvalidParameterError):
            CompactGraph(indptr, indices)

    def test_small_graphs_use_int32_indices(self):
        assert _path3().indices.dtype == np.int32


class TestReadApi:
    def test_nx_duck_typing(self):
        g = _path3()
        assert g.number_of_nodes() == len(g) == 3
        assert g.number_of_edges() == 2
        assert list(g.nodes()) == [0, 1, 2] == list(g)
        assert list(g.edges()) == [(0, 1), (1, 2)]
        assert g.neighbors(1) == [0, 2]
        assert dict(g.degree()) == {0: 1, 1: 2, 2: 1}
        assert g.degree(1) == 2
        assert 2 in g and 3 not in g and "a" not in g

    def test_neighbors_are_python_ints(self):
        for v in _path3().neighbors(1):
            assert type(v) is int

    def test_max_degree_and_degrees(self):
        g = from_edge_array(4, np.array([[0, 1], [0, 2], [0, 3]]))
        assert g.max_degree == 3
        assert g.degrees.tolist() == [3, 1, 1, 1]

    def test_unknown_node_rejected(self):
        with pytest.raises(InvalidParameterError):
            _path3().neighbors(7)
        with pytest.raises(InvalidParameterError):
            _path3().degree(-1)


#: Keys hash-equal to node 1 (numpy integer, float, bool, int) and keys
#: that are no node at all: networkx's node table answers for both.
NODE_KEYS = (np.int64(1), 1.0, True, 1, "1", (1,), -1, 4, 2.5)


def _outcome(call):
    try:
        return ("value", call())
    except Exception:
        return ("raised",)


class TestNodeKeysAnswerAsNetworkx:
    """A key is node ``i`` exactly when networkx's dict of nodes would say
    so: the CSR graph and the ``nx.Graph`` it came from agree on every
    node question, whatever type the key has."""

    @pytest.fixture(scope="class")
    def graphs(self):
        g = nx.path_graph(4)
        return g, CompactGraph.from_networkx(g)

    @pytest.mark.parametrize("key", NODE_KEYS, ids=repr)
    def test_membership_and_has_edge(self, graphs, key):
        g, c = graphs
        assert (key in c) == (key in g)
        assert c.has_edge(key, 2) == g.has_edge(key, 2)
        assert c.has_edge(2, key) == g.has_edge(2, key)

    @pytest.mark.parametrize("key", NODE_KEYS, ids=repr)
    def test_neighbors_and_degree(self, graphs, key):
        g, c = graphs
        assert _outcome(lambda: c.neighbors(key)) == _outcome(
            lambda: list(g.neighbors(key))
        )
        if key in g:
            assert c.degree(key) == g.degree(key)
        else:
            # networkx reads an iterable non-node as a node bunch; a
            # CompactGraph answers one node at a time and names the miss
            with pytest.raises(InvalidParameterError, match="not in graph"):
                c.degree(key)
            with pytest.raises(InvalidParameterError, match="not in graph"):
                c.neighbors(key)

    @pytest.mark.parametrize("key", NODE_KEYS, ids=repr)
    def test_subgraph(self, graphs, key):
        g, c = graphs
        sub, nx_sub = c.subgraph([key, 2]), g.subgraph([key, 2])
        assert sorted(sub.nodes()) == sorted(nx_sub.nodes())
        assert sorted(sub.edges()) == sorted(nx_sub.edges())

    def test_numpy_ids_select_a_subgraph(self, graphs):
        _, c = graphs
        sub = c.subgraph([np.int64(1), np.int64(2)])
        assert sorted(sub.nodes()) == [1, 2] and list(sub.edges()) == [(1, 2)]
        assert all(type(v) is int for v in sub.nodes())

    def test_node_id_is_the_kernel_lookup(self, graphs):
        from repro.kernels.program import node_space

        _, c = graphs
        ids, lookup = node_space(c)
        assert lookup == c.node_id
        assert [lookup(k) for k in NODE_KEYS] == [1, 1, 1, 1, None, None, None, None, None]
        assert lookup([1]) is None


class TestNetworkxConversion:
    def test_int_labels_stay_dense(self):
        g = nx.path_graph(4)
        c = CompactGraph.from_networkx(g)
        assert c.labels is None
        assert nx.utils.graphs_equal(c.to_networkx(), g)

    def test_non_int_labels_kept_in_sideband(self):
        g = nx.Graph([("a", "b"), ("b", "c")])
        c = CompactGraph.from_networkx(g)
        assert c.labels == ["a", "b", "c"]
        assert nx.utils.graphs_equal(c.to_networkx(), g)

    def test_tuple_labels_round_trip(self):
        g = nx.grid_2d_graph(3, 3)
        c = CompactGraph.from_networkx(g)
        assert nx.utils.graphs_equal(c.to_networkx(), g)

    def test_node_attrs_round_trip(self):
        g = nx.random_geometric_graph(12, 0.5, seed=3)
        c = CompactGraph.from_networkx(g)
        back = c.to_networkx()
        assert nx.utils.graphs_equal(back, g)
        assert back.nodes[0]["pos"] == g.nodes[0]["pos"]

    def test_edge_attrs_rejected(self):
        g = nx.Graph()
        g.add_edge(0, 1, weight=2)
        with pytest.raises(InvalidParameterError):
            CompactGraph.from_networkx(g)

    def test_directed_rejected(self):
        with pytest.raises(InvalidParameterError):
            CompactGraph.from_networkx(nx.DiGraph([(0, 1)]))

    def test_selfloop_rejected(self):
        with pytest.raises(InvalidParameterError):
            CompactGraph.from_networkx(nx.Graph([(0, 0)]))


class TestDigest:
    def test_deterministic_and_content_addressed(self):
        a = from_edge_array(3, np.array([[0, 1], [1, 2]]))
        b = from_edge_array(3, np.array([[1, 2], [1, 0]]))  # same graph
        assert a.digest() == b.digest()

    def test_distinguishes_graphs(self):
        a = from_edge_array(3, np.array([[0, 1]]))
        b = from_edge_array(3, np.array([[0, 2]]))
        c = from_edge_array(4, np.array([[0, 1]]))  # extra isolated node
        assert len({a.digest(), b.digest(), c.digest()}) == 3

    def test_dtype_normalized(self):
        a = _path3()
        wide = CompactGraph(a.indptr, a.indices.astype(np.int64))
        assert wide.digest() == a.digest()

    def test_labels_and_attrs_fold_in(self):
        plain = CompactGraph.from_networkx(nx.path_graph(3))
        labelled = CompactGraph.from_networkx(
            nx.relabel_nodes(nx.path_graph(3), {0: "x", 1: "y", 2: "z"})
        )
        attrs = nx.path_graph(3)
        attrs.nodes[0]["kind"] = "root"
        assert plain.digest() != labelled.digest()
        assert plain.digest() != CompactGraph.from_networkx(attrs).digest()
