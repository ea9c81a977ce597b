"""Compact graph core: CSR graphs, the on-disk graph store, streaming builders.

The subsystem the million-node tier stands on:

* :class:`~repro.graphcore.compact.CompactGraph` — numpy CSR adjacency
  with an nx-duck-typed read API, lossless
  ``from_networkx``/``to_networkx``, and a sha256 content digest.
* :mod:`~repro.graphcore.formats` — the versioned ``.csrg`` binary
  format (``save``/``load``, ``load(mmap=True)`` opens multi-GB graphs
  in O(1)) plus edge-list and METIS ingestion.
* :mod:`~repro.graphcore.builders` — workload families synthesized
  straight into CSR, never materializing a networkx graph.
* :class:`~repro.graphcore.interned.Interned` — a networkx graph's ids
  interned once into the same CSR arrays, the one view through which
  the vector engine's programs and the core peel of
  :mod:`repro.graphs.properties` read nx inputs.

``VectorEngine`` consumes ``CompactGraph`` natively (no conversion);
``ReferenceEngine`` converts transparently so parity holds bit for bit.
The ``xl-`` workload family (>= 1M nodes) resolves to these builders,
and ``repro graph build/info/convert`` is the CLI surface.
"""

from repro.graphcore.compact import CompactGraph, from_edge_array
from repro.graphcore.interned import Interned
from repro.graphcore.builders import (
    build_forest_stack,
    build_grid,
    build_power_law,
    build_regular,
)
from repro.graphcore.formats import (
    FORMAT_VERSION,
    load,
    read_edge_list,
    read_info,
    read_metis,
    save,
    write_edge_list,
)

__all__ = [
    "CompactGraph",
    "from_edge_array",
    "Interned",
    "build_forest_stack",
    "build_grid",
    "build_power_law",
    "build_regular",
    "FORMAT_VERSION",
    "load",
    "read_edge_list",
    "read_info",
    "read_metis",
    "save",
    "write_edge_list",
]
