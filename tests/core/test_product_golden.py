"""Golden pins for every product-coloring recursion.

Each run colors a small fixed input and is pinned three ways: the sha256
of its sorted ``(repr(key), color)`` pairs, its ``rounds_actual`` and
``rounds_modeled``, and the sha256 of its ledger tree flattened in DFS
order as ``(label, actual, modeled)`` rows (see :func:`ledger_rows`).
Any change to a connector, a class loop, the dense flattening or the
parallel-scope accounting moves at least one pin.

To regenerate after an intended output change::

    PYTHONPATH=src python tests/core/test_product_golden.py
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Tuple

import pytest

from repro.baselines import (
    forest_edge_coloring,
    weak_edge_coloring,
    weak_vertex_coloring,
)
from repro.core import (
    cd_coloring,
    cd_edge_coloring,
    edge_color_delta_plus_o_delta,
    edge_color_orientation_connector,
    edge_color_recursive,
    four_delta_edge_coloring,
    star_partition_edge_coloring,
    vertex_color_bounded_arboricity,
)
from repro.graphs import random_regular, random_uniform_hypergraph, star_forest_stack
from repro.local import RoundLedger


def _regular():
    return random_regular(40, 12, seed=3)


def _sparse():
    return star_forest_stack(n_centers=6, leaves_per_center=15, a=3, seed=1)


def _dense():
    return random_regular(60, 16, seed=4)


def _cd_hyper(x: int):
    # D = 3: every hyperedge has three vertices, so each line-graph vertex
    # lies in three cover cliques.
    hyper = random_uniform_hypergraph(n=20, num_edges=50, c=3, seed=2)
    line, cover = hyper.line_graph_with_cover()
    return cd_coloring(line, cover, x=x)


RUNS: Dict[str, Callable[[], object]] = {
    "star(x=1)": lambda: star_partition_edge_coloring(_regular(), x=1),
    "star(x=2)": lambda: star_partition_edge_coloring(_regular(), x=2),
    "star4": lambda: four_delta_edge_coloring(_regular()),
    "thm53": lambda: edge_color_orientation_connector(_sparse()),
    "thm54(x=2)": lambda: edge_color_recursive(_sparse(), x=2),
    "thm54(x=3)": lambda: edge_color_recursive(_sparse(), x=3),
    "cor55": lambda: edge_color_delta_plus_o_delta(_sparse()),
    "cd(x=1)": lambda: cd_edge_coloring(_regular(), x=1),
    "cd(x=2)": lambda: cd_edge_coloring(_regular(), x=2),
    "cd-hyper(x=1)": lambda: _cd_hyper(1),
    "cd-hyper(x=2)": lambda: _cd_hyper(2),
    "weak": lambda: weak_edge_coloring(_regular()),
    "weak-vertex": lambda: weak_vertex_coloring(_dense()),
    "forest": lambda: forest_edge_coloring(_sparse()),
    "vertex-arboricity": lambda: vertex_color_bounded_arboricity(_sparse()),
}


def _sha(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def ledger_rows(ledger: RoundLedger) -> List[Tuple[str, float, float]]:
    """The ledger tree in DFS order: each ledger's own totals, then its
    entries, then its children."""
    rows = [(ledger.label, ledger.total_actual, ledger.total_modeled)]
    rows.extend((e.label, e.actual, e.modeled) for e in ledger.entries)
    for child in ledger.children:
        rows.extend(ledger_rows(child))
    return rows


def fingerprint(result) -> Dict[str, object]:
    ledger = result.ledger
    return {
        "coloring": _sha(sorted((repr(k), c) for k, c in result.coloring.items())),
        "rounds_actual": ledger.total_actual,
        "rounds_modeled": ledger.total_modeled,
        "ledger": _sha(ledger_rows(ledger)),
    }


PINS: Dict[str, Dict[str, object]] = {
    "star(x=1)": {
        "coloring": "50ca658d6cb9fe112baa6639de15448f294005e45f27d434792c1e6a1e5acec0",
        "rounds_actual": 44.0,
        "rounds_modeled": 45.62918531055494,
        "ledger": "0d732645bccce555f68b9bac92ce6ca2063e59dd30e4f50b621e7f9a82130447",
    },
    "star(x=2)": {
        "coloring": "68539b7f5b9c247da409d8b7752e4ba7f753a417cc5e65ccbadfb305055cf35c",
        "rounds_actual": 36.0,
        "rounds_modeled": 26.14213562373095,
        "ledger": "e8a8be1f9a7db7a0d9c2ecedcf2d1dd7894882d6f83767fbc690eb66e39402de",
    },
    "star4": {
        "coloring": "50ca658d6cb9fe112baa6639de15448f294005e45f27d434792c1e6a1e5acec0",
        "rounds_actual": 44.0,
        "rounds_modeled": 45.62918531055494,
        "ledger": "0d732645bccce555f68b9bac92ce6ca2063e59dd30e4f50b621e7f9a82130447",
    },
    "thm53": {
        "coloring": "9655d3cfe1d8cbc42e4fa404e3d109d95b0f7b0803b4c6df0754dc921efe0b5b",
        "rounds_actual": 53.0,
        "rounds_modeled": 79.23619393873514,
        "ledger": "c145851aa71bf67e5b75db95e9b4c4160faee974edaf7f95ac85a2da2735c45a",
    },
    "thm54(x=2)": {
        "coloring": "8544f784f4b5a4ce7d98427cd5d77bd4c07730b3e22856e997c62da34f7214b3",
        "rounds_actual": 28.0,
        "rounds_modeled": 49.72995587329709,
        "ledger": "c4df41af1cb938823a436b78239e08e1fd309bcb94a63456023bd8c1803f9425",
    },
    "thm54(x=3)": {
        "coloring": "9e64d180c96680864fcb73a3d5791c14e942f617516eff0fff46fbf96f09ad5d",
        "rounds_actual": 29.0,
        "rounds_modeled": 45.04003077927157,
        "ledger": "ba9e7b500f7ad3aeae12dfe4eb289febcda29c8f4bf41a8dba2f9f878015d234",
    },
    "cor55": {
        "coloring": "8544f784f4b5a4ce7d98427cd5d77bd4c07730b3e22856e997c62da34f7214b3",
        "rounds_actual": 28.0,
        "rounds_modeled": 49.72995587329709,
        "ledger": "c4df41af1cb938823a436b78239e08e1fd309bcb94a63456023bd8c1803f9425",
    },
    "cd(x=1)": {
        "coloring": "8947e74af45e5d3ddb19431c08273d066de9166b6bcd3f9f844830c033617ca0",
        "rounds_actual": 38.0,
        "rounds_modeled": 49.62918531055493,
        "ledger": "8bcd9a6b14cec04de6bd46dad5ec3fe899b34cb76e6c08bba73195bdc166cde0",
    },
    "cd(x=2)": {
        "coloring": "add000db43f3cc1a89e9ca69098ce992a78eeee2570b99ed12bed7ba63201552",
        "rounds_actual": 38.0,
        "rounds_modeled": 30.14213562373095,
        "ledger": "073a931e11a559cad9917478685d7cd3d9db59fe56195307144d3c45e93f2aa0",
    },
    "cd-hyper(x=1)": {
        "coloring": "1449d34ae19cccd541166001b49641fc9a9e46776dccd3f96f334b14f1be78f3",
        "rounds_actual": 45.0,
        "rounds_modeled": 72.25301704255051,
        "ledger": "472d8fdd01705a1602543534d451be46076fe21868f53f3c25f8b60bbf97a690",
    },
    "cd-hyper(x=2)": {
        "coloring": "0164e6ba7ba5379aaf90df00fd3b17b40c36cae76580c0d6a049b9e61f18b56f",
        "rounds_actual": 48.0,
        "rounds_modeled": 36.26935729895815,
        "ledger": "61a071060254efc7b87d0243332d28c7a8a27189f08874cc9e0922094ae26e63",
    },
    "weak": {
        "coloring": "59da890906294234a40b957bffe60b49e91ced7a6c83c66f667c3a6cf809b42c",
        "rounds_actual": 3.0,
        "rounds_modeled": 8.0,
        "ledger": "319966feb4cb8830f394beceed1d7046573cf21e7e79d02f1c0a046753aff302",
    },
    "weak-vertex": {
        "coloring": "6185d2504d2f4fa6dc520f9c62b1182dd885e5fd0418d9028418a890b14cb10b",
        "rounds_actual": 3.0,
        "rounds_modeled": 6.0,
        "ledger": "e78f704fdffb6b49fc0cdb2b9af68e54b89928c574384229d3108e1856d64812",
    },
    "forest": {
        "coloring": "a3747bb8fbf7e97bcb3f6130b3fad535d4653497ffe43906136d8095606c4385",
        "rounds_actual": 11.0,
        "rounds_modeled": 11.0,
        "ledger": "c69044c55cf61a81ff5ddaee72dffba79de0fee52e1a2574a0a27e998b530266",
    },
    "vertex-arboricity": {
        "coloring": "bc33cbc96caad7eaf3b5101a0e255b29b8b28277d7198cc5bb0f5e56e76259c6",
        "rounds_actual": 19.0,
        "rounds_modeled": 33.57077624709349,
        "ledger": "03f7677c0a15279a244fa07d6ce65a423c1b50d9595aad04937cab3f661badb1",
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_product_coloring_matches_pin(name):
    assert fingerprint(RUNS[name]()) == PINS[name]


if __name__ == "__main__":
    print("PINS: Dict[str, Dict[str, object]] = {")
    for name in RUNS:
        print(f"    {name!r}: {fingerprint(RUNS[name]())!r},")
    print("}")
