"""The versioned on-disk graph store: ``.csrg`` files plus text ingestion.

Binary layout (version 1, little-endian, offsets in bytes)::

    0   magic      8   b"CSRGRAPH"
    8   version    4   u32 = 1
    12  flags      4   u32 (bit 0: labels sideband, bit 1: node attrs)
    16  n          8   u64 node count
    24  m          8   u64 undirected edge count (indices holds 2m ids)
    32  itemsize   2   u8 indptr bytes (8), u8 indices bytes (4 or 8)
    34  reserved   6   zero padding (keeps the array region 8-aligned)
    40  digest     32  sha256 content address (:meth:`CompactGraph.digest`)
    72  sideband   16  u64 labels-JSON length, u64 attrs-JSON length
    88  indptr     (n+1) * 8
    ..  indices    2m * itemsize
    ..  labels     JSON (utf-8), then attrs JSON (utf-8)

The arrays are raw, aligned, and contiguous, so :func:`load` with
``mmap=True`` opens a multi-gigabyte graph in O(1): ``numpy.memmap``
views straight into the page cache and only the pages a run touches are
ever read. ``load`` with ``mmap=False`` verifies the stored digest by
default (an ordinary read pays one sha256 over data it just read);
memory-mapped opens skip verification by default — hashing would fault
in every page and defeat the point — but ``verify=True`` forces it.

Text ingestion covers the two interchange formats the ecosystem
actually uses: the whitespace edge list (streamed straight into CSR
without a networkx intermediate) and METIS adjacency files.
:func:`write_edge_list` exports back out. These readers are the only way
a graph file enters the program; their errors name the file (and the
line, for text).
"""

from __future__ import annotations

import struct
from array import array
from pathlib import Path
from typing import Any, BinaryIO, Dict, Union

import numpy as np

from repro.errors import InvalidParameterError
from repro.graphcore.compact import CompactGraph, from_edge_array

__all__ = [
    "FORMAT_VERSION",
    "save",
    "load",
    "expected_file_bytes",
    "read_info",
    "read_edge_list",
    "read_metis",
    "write_edge_list",
]

PathLike = Union[str, Path]

MAGIC = b"CSRGRAPH"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sII QQ BB6x 32s QQ")
HEADER_SIZE = _HEADER.size  # 88

_FLAG_LABELS = 1
_FLAG_ATTRS = 2


def save(graph: CompactGraph, path: PathLike) -> str:
    """Write ``graph`` as a ``.csrg`` file and return its digest."""
    import json

    digest = graph.digest()
    labels_blob = b""
    attrs_blob = b""
    flags = 0
    if graph.labels is not None:
        from repro.graphcore.compact import _jsonable_label

        labels_blob = json.dumps(
            [_jsonable_label(v) for v in graph.labels], separators=(",", ":")
        ).encode("utf-8")
        flags |= _FLAG_LABELS
    if graph.node_attrs:
        attrs_blob = json.dumps(
            {str(i): graph.node_attrs[i] for i in sorted(graph.node_attrs)},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        flags |= _FLAG_ATTRS
    indptr = np.ascontiguousarray(graph.indptr, dtype=np.int64)
    indices = np.ascontiguousarray(graph.indices)
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        flags,
        graph.n,
        graph.m,
        indptr.dtype.itemsize,
        indices.dtype.itemsize,
        bytes.fromhex(digest),
        len(labels_blob),
        len(attrs_blob),
    )
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(indptr.tobytes())
        handle.write(indices.tobytes())
        handle.write(labels_blob)
        handle.write(attrs_blob)
    return digest


def _read_header(handle: BinaryIO, path: PathLike) -> Dict[str, Any]:
    raw = handle.read(HEADER_SIZE)
    if len(raw) < HEADER_SIZE:
        raise InvalidParameterError(f"{path}: truncated csrg header")
    magic, version, flags, n, m, ptr_size, idx_size, digest, labels_len, attrs_len = (
        _HEADER.unpack(raw)
    )
    if magic != MAGIC:
        raise InvalidParameterError(f"{path}: not a csrg file (bad magic)")
    if version != FORMAT_VERSION:
        raise InvalidParameterError(
            f"{path}: unsupported csrg version {version} (this build reads "
            f"version {FORMAT_VERSION})"
        )
    if ptr_size != 8 or idx_size not in (4, 8):
        raise InvalidParameterError(
            f"{path}: unsupported array widths (indptr {ptr_size}B, indices {idx_size}B)"
        )
    return {
        "version": version,
        "flags": flags,
        "n": n,
        "m": m,
        "indptr_itemsize": ptr_size,
        "indices_itemsize": idx_size,
        "digest": digest.hex(),
        "labels_len": labels_len,
        "attrs_len": attrs_len,
    }


def expected_file_bytes(info: Dict[str, Any]) -> int:
    """The exact file size a ``.csrg`` header promises: header + indptr
    + indices + label/attr sidebands. Any mismatch with the size on disk
    means a truncated or mis-written file."""
    idx_itemsize = info["indices_itemsize"]
    return (
        HEADER_SIZE
        + (info["n"] + 1) * info["indptr_itemsize"]
        + 2 * info["m"] * idx_itemsize
        + info["labels_len"]
        + info["attrs_len"]
    )


def _check_extents(info: Dict[str, Any], path: PathLike) -> None:
    expected = expected_file_bytes(info)
    actual = Path(path).stat().st_size
    if actual != expected:
        raise InvalidParameterError(
            f"{path}: file is {actual} bytes, header promises {expected}"
        )


def read_info(path: PathLike) -> Dict[str, Any]:
    """Header metadata of a ``.csrg`` file — n, m, digest, dtypes,
    sideband presence — without touching the arrays. The file size is
    still cross-checked against the header's extents so a truncated
    shard fails fast here rather than faulting mid-round in a worker
    that memory-mapped it."""
    with open(path, "rb") as handle:
        info = _read_header(handle, path)
    _check_extents(info, path)
    info["path"] = str(path)
    info["file_bytes"] = Path(path).stat().st_size
    info["has_labels"] = bool(info["flags"] & _FLAG_LABELS)
    info["has_node_attrs"] = bool(info["flags"] & _FLAG_ATTRS)
    return info


def _decode_label(value: Any) -> Any:
    if isinstance(value, dict):
        if "t" in value:
            return tuple(_decode_label(v) for v in value["t"])
        return value.get("r")
    return value


def load(
    path: PathLike, mmap: bool = False, verify: bool = None  # type: ignore[assignment]
) -> CompactGraph:
    """Open a ``.csrg`` file.

    ``mmap=True`` memory-maps the arrays read-only (O(1) open, pages
    faulted on demand); otherwise the arrays are read into memory.
    ``verify`` re-hashes the content against the stored digest — default
    ``True`` for in-memory loads, ``False`` for memory-mapped ones.
    """
    import json

    if verify is None:
        verify = not mmap
    with open(path, "rb") as handle:
        info = _read_header(handle, path)
        n, m = info["n"], info["m"]
        idx_dtype = np.dtype(np.int32 if info["indices_itemsize"] == 4 else np.int64)
        ptr_bytes = (n + 1) * 8
        idx_bytes = 2 * m * idx_dtype.itemsize
        _check_extents(info, path)
        if mmap:
            indptr = np.memmap(
                path, dtype=np.int64, mode="r", offset=HEADER_SIZE, shape=(n + 1,)
            )
            indices = np.memmap(
                path,
                dtype=idx_dtype,
                mode="r",
                offset=HEADER_SIZE + ptr_bytes,
                shape=(2 * m,),
            )
            handle.seek(HEADER_SIZE + ptr_bytes + idx_bytes)
        else:
            indptr = np.frombuffer(handle.read(ptr_bytes), dtype=np.int64)
            indices = np.frombuffer(handle.read(idx_bytes), dtype=idx_dtype)
        labels = None
        node_attrs = None
        if info["labels_len"]:
            raw = json.loads(handle.read(info["labels_len"]).decode("utf-8"))
            labels = [_decode_label(v) for v in raw]
        if info["attrs_len"]:
            raw = json.loads(handle.read(info["attrs_len"]).decode("utf-8"))
            node_attrs = {int(k): v for k, v in raw.items()}
    # Structural (light) validation always runs — even memory-mapped, a
    # file with out-of-range ids, self-loops, or unsorted rows must never
    # reach the engines, whose native path trusts these invariants. The
    # O(m log m) symmetry pass is covered by the digest when ``verify``.
    try:
        CompactGraph._validate(indptr, indices, labels, symmetry=verify)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{path}: corrupt csrg payload: {exc}") from exc
    graph = CompactGraph(
        indptr, indices, labels=labels, node_attrs=node_attrs, validate=False
    )
    if verify:
        digest = graph.digest()
        if digest != info["digest"]:
            raise InvalidParameterError(
                f"{path}: content digest mismatch (stored {info['digest'][:12]}, "
                f"computed {digest[:12]}) — file corrupted or tampered"
            )
    return graph


# --------------------------------------------------------------------------
# Text ingestion / export
# --------------------------------------------------------------------------


def _line_ints(parts, path: PathLike, line_no: int) -> list:
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise InvalidParameterError(f"{path}:{line_no}: {exc}") from None


def read_edge_list(path: PathLike) -> CompactGraph:
    """Stream a whitespace ``u v`` edge list (``#`` comments, bare ids as
    isolated nodes) straight into CSR.

    The graph holds exactly the ids the file mentions — sparse ids are
    interned to dense indices in ascending order with the originals kept
    in the label sideband, never padded with phantom isolated nodes.
    Never materializes a networkx graph: memory is O(m) ints, so
    million-edge files ingest in seconds.
    """
    heads = array("q")
    tails = array("q")
    isolated = array("q")
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            ids = _line_ints(line.split(), path, line_no)
            if len(ids) == 1:
                isolated.append(ids[0])
                continue
            if len(ids) != 2:
                raise InvalidParameterError(
                    f"{path}:{line_no}: expected 'u v', got {raw.rstrip()!r}"
                )
            u, v = ids
            if u == v:
                raise InvalidParameterError(f"{path}:{line_no}: self-loop {u}")
            heads.append(u)
            tails.append(v)

    def _as_array(buf: array) -> np.ndarray:
        return (
            np.frombuffer(buf, dtype=np.int64)
            if buf
            else np.empty(0, dtype=np.int64)
        )

    head_arr, tail_arr = _as_array(heads), _as_array(tails)
    mentioned = np.unique(
        np.concatenate([head_arr, tail_arr, _as_array(isolated)])
    )
    n = int(mentioned.size)
    if n and (mentioned[0] != 0 or mentioned[-1] != n - 1):
        # sparse/negative ids: intern to dense indices, keep the originals
        labels = [int(v) for v in mentioned]
        head_arr = np.searchsorted(mentioned, head_arr)
        tail_arr = np.searchsorted(mentioned, tail_arr)
    else:
        labels = None
    edges = np.column_stack([head_arr, tail_arr])
    return from_edge_array(n, edges, labels=labels)


def read_metis(path: PathLike) -> CompactGraph:
    """Read a METIS adjacency file: header ``n m [fmt]``, then line ``i``
    lists the (1-indexed) neighbors of node ``i``. Weighted formats are
    rejected — CompactGraph is unweighted. Every error names the file,
    and the line where there is one."""
    heads = array("q")
    tails = array("q")
    n = m = None
    node = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("%", 1)[0].strip()
            if not line:
                continue
            values = _line_ints(line.split(), path, line_no)
            if n is None:
                if len(values) < 2:
                    raise InvalidParameterError(
                        f"{path}:{line_no}: METIS header needs 'n m [fmt]'"
                    )
                n, m = values[0], values[1]
                if len(values) > 2 and values[2] != 0:
                    raise InvalidParameterError(
                        f"{path}:{line_no}: weighted METIS graphs are not supported"
                    )
                continue
            node += 1
            if node > n:
                raise InvalidParameterError(
                    f"{path}:{line_no}: more adjacency lines than the declared n={n}"
                )
            for nbr in values:
                if not 1 <= nbr <= n:
                    raise InvalidParameterError(
                        f"{path}:{line_no}: neighbor {nbr} outside 1..{n}"
                    )
                if nbr == node:
                    raise InvalidParameterError(f"{path}:{line_no}: self-loop {nbr}")
                heads.append(node - 1)
                tails.append(nbr - 1)
    if n is None:
        raise InvalidParameterError(f"{path}: empty METIS file")
    edges = np.column_stack(
        [np.frombuffer(heads, dtype=np.int64), np.frombuffer(tails, dtype=np.int64)]
    ) if heads else np.empty((0, 2), dtype=np.int64)
    graph = from_edge_array(n, edges)
    if graph.m != m:
        raise InvalidParameterError(
            f"{path}: header declares {m} edges, adjacency lists encode {graph.m}"
        )
    return graph


def write_edge_list(graph: CompactGraph, path: PathLike) -> None:
    """Export as the whitespace edge-list format (isolated nodes as bare
    ids) — the inverse of :func:`read_edge_list` for label-free graphs."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# n={graph.n} m={graph.m}\n")
        degrees = graph.degrees
        for v in np.flatnonzero(degrees == 0).tolist():
            handle.write(f"{v}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")
