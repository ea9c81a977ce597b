"""The .csrg on-disk format: round trips, mmap, corruption, ingestion."""

import numpy as np
import networkx as nx
import pytest

from repro.errors import InvalidParameterError
from repro.graphcore import (
    CompactGraph,
    build_grid,
    from_edge_array,
    load,
    read_edge_list,
    read_info,
    read_metis,
    save,
    write_edge_list,
)
from repro.graphcore.formats import HEADER_SIZE


@pytest.fixture
def grid(tmp_path):
    graph = build_grid(6, 7)
    path = tmp_path / "g.csrg"
    digest = save(graph, path)
    return graph, path, digest


class TestSaveLoad:
    def test_round_trip(self, grid):
        graph, path, digest = grid
        loaded = load(path)
        assert loaded.digest() == graph.digest() == digest
        assert loaded.indptr.tolist() == graph.indptr.tolist()
        assert loaded.indices.tolist() == graph.indices.tolist()

    def test_mmap_round_trip(self, grid):
        graph, path, _ = grid
        mapped = load(path, mmap=True)
        assert isinstance(mapped.indices, np.memmap)
        assert mapped.digest() == graph.digest()
        assert mapped.neighbors(0) == graph.neighbors(0)

    def test_mmap_arrays_are_read_only(self, grid):
        _, path, _ = grid
        mapped = load(path, mmap=True)
        with pytest.raises((ValueError, OSError)):
            mapped.indices[0] = 1

    def test_read_info_matches(self, grid):
        graph, path, digest = grid
        info = read_info(path)
        assert info["n"] == graph.n and info["m"] == graph.m
        assert info["digest"] == digest
        assert info["version"] == 1
        assert not info["has_labels"] and not info["has_node_attrs"]

    def test_sidebands_survive(self, tmp_path):
        g = nx.random_geometric_graph(10, 0.6, seed=2)
        g = nx.relabel_nodes(g, {v: f"v{v}" for v in g})
        c = CompactGraph.from_networkx(g)
        path = tmp_path / "s.csrg"
        save(c, path)
        for mmap in (False, True):
            back = load(path, mmap=mmap)
            assert nx.utils.graphs_equal(back.to_networkx(), g)

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "e.csrg"
        save(from_edge_array(0, np.empty((0, 2))), path)
        assert load(path).n == 0


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.csrg"
        path.write_bytes(b"NOTAGRPH" + b"\0" * 100)
        with pytest.raises(InvalidParameterError, match="magic"):
            load(path)

    def test_unsupported_version(self, grid):
        _, path, _ = grid
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidParameterError, match="version"):
            load(path)

    def test_truncated_file(self, grid):
        _, path, _ = grid
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(InvalidParameterError, match="bytes"):
            load(path)

    def test_truncated_file_fails_fast_under_mmap(self, grid):
        # the extent check must run before any page is mapped: a worker
        # that mmaps a truncated shard would otherwise fault mid-round
        _, path, _ = grid
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(InvalidParameterError, match="bytes"):
            load(path, mmap=True)

    def test_oversized_file_rejected(self, grid):
        _, path, _ = grid
        path.write_bytes(path.read_bytes() + b"\0" * 16)
        for mmap in (False, True):
            with pytest.raises(InvalidParameterError, match="bytes"):
                load(path, mmap=mmap)

    def test_read_info_checks_extents(self, grid):
        _, path, _ = grid
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(InvalidParameterError, match="bytes"):
            read_info(path)

    def test_flipped_payload_caught(self, grid):
        _, path, _ = grid
        raw = bytearray(path.read_bytes())
        raw[HEADER_SIZE + 8] ^= 1  # flip a bit inside indptr
        path.write_bytes(bytes(raw))
        # the structural pre-check or the digest flags it — either way a
        # corrupted payload never comes back as a graph
        with pytest.raises(InvalidParameterError, match="corrupt|digest"):
            load(path, verify=True)

    def test_mmap_skips_digest_by_default(self, grid):
        # documented trade-off: mmap opens must stay O(1); flip a bit that
        # keeps the CSR structurally valid under the light checks (node
        # 41's row [34, 40] -> [35, 40]: sorted, in-range, no self-loop,
        # merely asymmetric) so only the digest can catch it
        _, path, _ = grid
        raw = bytearray(path.read_bytes())
        raw[-8] ^= 1  # second-to-last int32 index: 34 -> 35
        path.write_bytes(bytes(raw))
        load(path, mmap=True)  # no digest pass
        with pytest.raises(InvalidParameterError, match="digest"):
            load(path, mmap=True, verify=True)

    def test_mmap_still_rejects_structural_corruption(self, grid):
        # a self-loop / out-of-range id must never reach the engines,
        # even through the no-digest mmap path
        graph, path, _ = grid
        raw = bytearray(path.read_bytes())
        # overwrite row 0's first neighbor (int32 at the start of the
        # indices region) with node 0 itself -> self-loop
        offset = HEADER_SIZE + (graph.n + 1) * 8
        raw[offset : offset + 4] = (0).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidParameterError, match="corrupt"):
            load(path, mmap=True)


class TestTextIngestion:
    def test_edge_list_round_trip(self, tmp_path):
        graph = build_grid(4, 9)
        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        assert read_edge_list(path).digest() == graph.digest()

    @staticmethod
    def _write_nx(graph, path):
        # the edge-list format as networkx writes it, isolated nodes as
        # bare ids: the reference the streaming reader must reproduce
        lines = [str(v) for v in graph.nodes() if graph.degree(v) == 0]
        lines += [f"{u} {v}" for u, v in graph.edges()]
        path.write_text("# n=%d\n" % graph.number_of_nodes() + "\n".join(lines) + "\n")

    def test_edge_list_matches_networkx(self, tmp_path):
        # isolated-node lines and comments included
        g = nx.Graph([(0, 1), (2, 3)])
        g.add_nodes_from([4, 5])
        path = tmp_path / "g.txt"
        self._write_nx(g, path)
        c = read_edge_list(path)
        assert nx.utils.graphs_equal(c.to_networkx(), g)

    def test_edge_list_sparse_ids_match_networkx(self, tmp_path):
        # no phantom nodes: `5 7` is a two-node graph, with the original
        # ids in the label sideband and dense ids in ascending order
        path = tmp_path / "sparse.txt"
        path.write_text("5 7\n42\n")
        c = read_edge_list(path)
        g = nx.Graph([(5, 7)])
        g.add_node(42)
        assert c.n == 3 == g.number_of_nodes()
        assert c.labels == [5, 7, 42]
        assert nx.utils.graphs_equal(c.to_networkx(), g)

    def test_edge_list_round_trips_a_random_graph(self, tmp_path):
        g = nx.gnp_random_graph(30, 0.2, seed=1)
        path = tmp_path / "g.edges"
        self._write_nx(g, path)
        assert nx.utils.graphs_equal(read_edge_list(path).to_networkx(), g)

    def test_edge_list_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# header\n\n1 2  # inline\n2 3\n")
        assert sorted(read_edge_list(path).to_networkx().edges()) == [(1, 2), (2, 3)]

    def test_edge_list_rejects_self_loop(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0\n")
        with pytest.raises(InvalidParameterError, match="self-loop"):
            read_edge_list(path)

    @pytest.mark.parametrize("line", ["1 2 3", "1 x"])
    def test_edge_list_malformed_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "g.edges"
        path.write_text(f"0 1\n{line}\n")
        with pytest.raises(InvalidParameterError, match=f"^{path}:2: "):
            read_edge_list(path)

    def test_metis_round_trip(self, tmp_path):
        graph = build_grid(5, 5)
        path = tmp_path / "g.metis"
        lines = [f"{graph.n} {graph.m}"]
        for v in graph.nodes():
            lines.append(" ".join(str(u + 1) for u in graph.neighbors(v)))
        path.write_text("\n".join(lines) + "\n")
        assert read_metis(path).digest() == graph.digest()

    def test_metis_rejects_weighted(self, tmp_path):
        path = tmp_path / "w.metis"
        path.write_text("2 1 1\n2 3\n1 3\n")
        with pytest.raises(InvalidParameterError, match="weighted"):
            read_metis(path)

    def test_metis_edge_count_checked(self, tmp_path):
        path = tmp_path / "m.metis"
        path.write_text("2 5\n2\n1\n")
        with pytest.raises(InvalidParameterError, match="declares"):
            read_metis(path)

    @pytest.mark.parametrize(
        "text, line",
        [("2 x\n2\n1\n", 1), ("2 1\n2\nq\n", 3), ("2 1\n1\n1\n", 2)],
        ids=["header", "neighbour", "self-loop"],
    )
    def test_metis_errors_name_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "bad.metis"
        path.write_text(text)
        with pytest.raises(InvalidParameterError, match=f"^{path}:{line}: "):
            read_metis(path)
