"""The contiguous id-range partitioner and the ``.csrs`` shard format:
structural invariants of a written bundle, and the strict open-time
validation (exact extents + structural checks, same posture as
``.csrg``)."""

import json
import struct

import numpy as np
import pytest

from repro import workloads
from repro.errors import InvalidParameterError
from repro.shard import ShardBundle, load_shard, partition
from repro.shard.partition import HEADER_SIZE, MANIFEST_NAME, _shard_filename


@pytest.fixture
def grid():
    return workloads.build("xl-grid", {"rows": 20, "cols": 17}, seed=0)


@pytest.fixture
def bundle(grid, tmp_path):
    return partition(grid, 4, tmp_path / "bundle")


class TestPartitionInvariants:
    def test_ranges_tile_the_id_space(self, grid, bundle):
        ranges = bundle.manifest["ranges"]
        assert ranges[0][0] == 0
        assert ranges[-1][1] == grid.n
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo  # contiguous, disjoint, ordered
        assert all(hi > lo for lo, hi in ranges)  # non-empty shards

    def test_local_csr_mirrors_parent_rows(self, grid, bundle):
        for s in range(bundle.num_shards):
            shard = bundle.shard(s)
            # rebased indptr equals the parent's slice
            parent_rows = grid.indptr[shard.lo : shard.hi + 1] - grid.indptr[shard.lo]
            assert np.array_equal(np.asarray(shard.indptr), parent_rows)
            # remapping is invertible: local ids map back to the parent's
            # neighbor list exactly
            local = np.asarray(shard.indices)
            halo = np.asarray(shard.halo)
            own = local < shard.n_own
            restored = np.where(
                own, local + shard.lo, halo[np.clip(local - shard.n_own, 0, None)]
            )
            parent = grid.indices[
                int(grid.indptr[shard.lo]) : int(grid.indptr[shard.hi])
            ]
            assert np.array_equal(restored, parent)

    def test_halo_and_boundary_sidebands(self, grid, bundle):
        for s in range(bundle.num_shards):
            shard = bundle.shard(s)
            halo = np.asarray(shard.halo)
            # halo: sorted unique foreign neighbors only
            assert np.all(np.diff(halo) > 0)
            assert not np.any((halo >= shard.lo) & (halo < shard.hi))
            # boundary: exactly the owned nodes with >= 1 foreign neighbor
            src = np.repeat(
                np.arange(shard.n_own), np.diff(np.asarray(shard.indptr))
            )
            has_foreign = np.unique(src[np.asarray(shard.indices) >= shard.n_own])
            assert np.array_equal(np.asarray(shard.boundary), has_foreign)

    def test_every_halo_node_is_its_owners_boundary(self, bundle):
        table = bundle.boundary_table()
        for s in range(bundle.num_shards):
            mapped = table["boundary_global"][table["halo_sources"][s]]
            assert np.array_equal(mapped, np.asarray(bundle.shard(s).halo))

    def test_single_shard_degenerate(self, grid, tmp_path):
        bundle = partition(grid, 1, tmp_path / "one")
        shard = bundle.shard(0)
        assert shard.n_own == grid.n
        assert shard.n_halo == 0
        assert shard.boundary.size == 0
        assert np.array_equal(np.asarray(shard.indices), grid.indices)

    def test_manifest_carries_parent_identity(self, grid, bundle):
        assert bundle.manifest["parent_digest"] == grid.digest()
        assert bundle.manifest["n"] == grid.n
        assert bundle.manifest["m"] == grid.m
        assert bundle.manifest["max_degree"] == grid.max_degree

    def test_more_shards_than_nodes_rejected(self, tmp_path):
        tiny = workloads.build("xl-grid", {"rows": 2, "cols": 2}, seed=0)
        with pytest.raises(InvalidParameterError, match="non-empty"):
            partition(tiny, 5, tmp_path / "nope")

    def test_non_compact_graph_rejected(self, tmp_path):
        import networkx as nx

        with pytest.raises(InvalidParameterError, match="CompactGraph"):
            partition(nx.path_graph(5), 2, tmp_path / "nope")


class TestStrictShardValidation:
    """A shard file that lies about its extents (or got truncated by a
    crashed writer) must fail at open, not fault mid-round in a worker —
    the gap ``read_info`` used to have for ``.csrg`` headers."""

    def test_truncated_shard_fails_fast(self, bundle):
        path = bundle.shard_path(1)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(InvalidParameterError, match="header promises"):
            load_shard(path)

    def test_oversized_shard_fails_fast(self, bundle):
        path = bundle.shard_path(1)
        with open(path, "ab") as handle:
            handle.write(b"\x00" * 8)
        with pytest.raises(InvalidParameterError, match="header promises"):
            load_shard(path)

    def test_bad_magic_rejected(self, bundle):
        path = bundle.shard_path(0)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTSHARD"
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidParameterError, match="bad magic"):
            load_shard(path)

    def test_unknown_version_rejected(self, bundle):
        path = bundle.shard_path(0)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 8, 99)
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidParameterError, match="version 99"):
            load_shard(path)

    def test_corrupt_indptr_rejected(self, bundle):
        path = bundle.shard_path(0)
        data = bytearray(path.read_bytes())
        struct.pack_into("<q", data, HEADER_SIZE, -7)  # indptr[0] != 0
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidParameterError, match="corrupt shard indptr"):
            load_shard(path)

    def test_out_of_range_indices_rejected(self, bundle):
        shard = bundle.shard(0)
        path = bundle.shard_path(0)
        offset = HEADER_SIZE + 8 * (shard.n_own + 1)  # first indices slot
        data = bytearray(path.read_bytes())
        struct.pack_into("<q", data, offset, shard.n_own + shard.n_halo + 100)
        path.write_bytes(bytes(data))
        with pytest.raises(InvalidParameterError, match="out of local range"):
            load_shard(path)

    def test_digest_mismatch_against_manifest(self, grid, bundle, tmp_path):
        other = workloads.build("xl-grid", {"rows": 17, "cols": 20}, seed=0)
        foreign = partition(other, 4, tmp_path / "foreign")
        # same shape, different parent: manifest cross-check catches it
        with pytest.raises(InvalidParameterError, match="different parent"):
            load_shard(foreign.shard_path(0), expect=bundle.manifest)

    def test_missing_shard_file_rejected_at_bundle_open(self, bundle):
        bundle.shard_path(2).unlink()
        with pytest.raises(InvalidParameterError, match="missing"):
            ShardBundle.open(bundle.directory)

    def test_foreign_manifest_rejected(self, bundle):
        manifest_path = bundle.directory / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text())
        payload["format"] = "something-else"
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(InvalidParameterError, match="unknown manifest"):
            ShardBundle.open(bundle.directory)

    def test_range_disagreement_with_manifest_rejected(self, bundle):
        manifest_path = bundle.directory / MANIFEST_NAME
        payload = json.loads(manifest_path.read_text())
        payload["ranges"][0][1] += 1
        payload["ranges"][1][0] += 1
        manifest_path.write_text(json.dumps(payload))
        reopened = ShardBundle.open(bundle.directory)
        with pytest.raises(InvalidParameterError, match="disagrees"):
            reopened.shard(0)

    def test_filenames_are_stable(self):
        assert _shard_filename(7) == "shard-0007.csrs"
