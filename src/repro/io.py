"""A colored graph as a graphviz DOT file.

Graph files are read and written by :mod:`repro.graphcore` (``.csrg``,
METIS, whitespace edge lists).
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import networkx as nx

from repro.types import EdgeColoring, VertexColoring, edge_key

PathLike = Union[str, Path]


# A qualitative palette (12 distinguishable hues) recycled for larger
# palettes with shade suffixes understood by graphviz.
_DOT_COLORS = (
    "red", "blue", "green", "orange", "purple", "brown",
    "cyan", "magenta", "gold", "gray40", "darkgreen", "navy",
)


def _dot_color(c: int) -> str:
    return _DOT_COLORS[c % len(_DOT_COLORS)]


def write_colored_dot(
    graph: nx.Graph,
    path: PathLike,
    edge_coloring: EdgeColoring | None = None,
    vertex_coloring: VertexColoring | None = None,
    name: str = "coloring",
) -> None:
    """Write a graphviz DOT file with edges and/or vertices colored.

    Color indices map to a recycled qualitative palette; the numeric color
    is also attached as a label so palettes beyond 12 stay readable.
    """
    lines = [f'graph "{name}" {{']
    for v in sorted(graph.nodes(), key=repr):
        attrs = ""
        if vertex_coloring is not None:
            c = vertex_coloring[v]
            attrs = (
                f' [style=filled, fillcolor={_dot_color(c)}, label="{v} ({c})"]'
            )
        lines.append(f'  "{v}"{attrs};')
    for u, v in sorted(graph.edges(), key=lambda e: (repr(e[0]), repr(e[1]))):
        attrs = ""
        if edge_coloring is not None:
            c = edge_coloring[edge_key(u, v)]
            attrs = f' [color={_dot_color(c)}, label="{c}"]'
        lines.append(f'  "{u}" -- "{v}"{attrs};')
    lines.append("}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
