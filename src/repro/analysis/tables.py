"""Harnesses regenerating the paper's Tables 1 and 2 and the Section 5
results on concrete workloads, and the markdown renderer for their rows.

Table 1 and Section 5 resolve every algorithm through
:func:`repro.registry.run` and check each run with
:func:`repro.verify.verify_run`, the oracle path campaign cells take; a
verdict other than ``ok`` raises. Table 2 runs ``cd_coloring`` on the
explicit clique covers its instances come with (no registered algorithm
takes a cover). Each ``run_*`` function returns plain dict rows carrying
the measured values (colors, simulator rounds), the modeled round bounds
the paper's tables are stated in, ``within_bound`` and one ``param_*``
key per instance parameter.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro import registry
from repro.baselines import table1_row, table2_row
from repro.core import cd_coloring
from repro.errors import ColoringError
from repro.graphs import (
    line_graph_with_cover,
    max_degree,
    random_regular,
    random_uniform_hypergraph,
    star_forest_stack,
)
from repro.verify import verify_run, verify_vertex_coloring

Row = Dict[str, Any]


def _row(
    experiment: str,
    workload: str,
    graph,
    delta: int,
    params: Mapping[str, Any],
    colors_used: int,
    colors_bound: Optional[float],
    rounds_actual: Optional[float] = None,
    rounds_modeled: Optional[float] = None,
    baseline_colors: Optional[float] = None,
    baseline_rounds: Optional[float] = None,
    notes: str = "",
) -> Row:
    return {
        "experiment": experiment,
        "workload": workload,
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "delta": delta,
        **{f"param_{k}": v for k, v in params.items()},
        "colors_used": colors_used,
        "colors_bound": colors_bound,
        "within_bound": None if colors_bound is None else colors_used <= colors_bound,
        "rounds_actual": rounds_actual,
        "rounds_modeled": rounds_modeled,
        "baseline_colors": baseline_colors,
        "baseline_rounds": baseline_rounds,
        "notes": notes,
    }


def verified_run(name: str, graph, **params: Any) -> registry.AlgorithmRun:
    """``registry.run(name, graph, **params)``, raising unless every
    oracle the algorithm declares returns ``ok``."""
    run = registry.run(name, graph, **params)
    verdict = verify_run(graph, run, params=params)
    if verdict.status != "ok":
        raise ColoringError(f"{name}: verdict {verdict.status}: {verdict.violation}")
    return run


def run_table1(
    deltas: Sequence[int] = (8, 16, 24),
    x_values: Sequence[int] = (1, 2, 3),
    n: int = 96,
    seed: int = 7,
) -> List[Row]:
    """Table 1: (2^(x+1) Delta)-edge-coloring of general (regular) graphs,
    vs. the analytic previous [7]+[17] bound."""
    rows: List[Row] = []
    for delta in deltas:
        nodes = n if (n * delta) % 2 == 0 else n + 1
        graph = random_regular(nodes, delta, seed=seed)
        for x in x_values:
            run = verified_run("star", graph, x=x)
            previous = table1_row(delta, nodes, x)
            rows.append(
                _row(
                    "table1",
                    f"random-regular(n={nodes}, d={delta})",
                    graph,
                    delta,
                    {"x": x},
                    run.colors_used,
                    run.extra["target_colors"],
                    run.rounds_actual,
                    run.rounds_modeled,
                    previous.previous_colors,
                    previous.previous_rounds,
                )
            )
    return rows


def run_table2(
    configs: Sequence[Dict] = (
        {"diversity": 2, "delta": 8},
        {"diversity": 2, "delta": 16},
        {"diversity": 3, "delta": 8},
        {"diversity": 4, "delta": 6},
    ),
    x_values: Sequence[int] = (1, 2, 3),
    seed: int = 11,
) -> List[Row]:
    """Table 2: (D^(x+1) S)-vertex-coloring of bounded-diversity graphs.

    D = 2 instances are line graphs of regular graphs; D = c instances are
    line graphs of c-uniform hypergraphs.
    """
    rows: List[Row] = []
    for config in configs:
        diversity = config["diversity"]
        delta = config["delta"]
        if diversity == 2:
            base = random_regular(48 if (48 * delta) % 2 == 0 else 49, delta, seed=seed)
            graph, cover = line_graph_with_cover(base)
            workload = f"line-graph(regular d={delta})"
        else:
            hyper = random_uniform_hypergraph(
                n=40, num_edges=20 * delta, c=diversity, seed=seed
            )
            graph, cover = hyper.line_graph_with_cover()
            workload = f"hypergraph-line({diversity}-uniform)"
        d_measured = cover.diversity()
        s_measured = cover.max_clique_size()
        graph_delta = max_degree(graph)
        for x in x_values:
            result = cd_coloring(graph, cover, x=x)
            verify_vertex_coloring(graph, result.coloring)
            previous = table2_row(
                d_measured, s_measured, graph_delta, graph.number_of_nodes(), x
            )
            rows.append(
                _row(
                    "table2",
                    workload,
                    graph,
                    graph_delta,
                    {"x": x, "D": d_measured, "S": s_measured},
                    result.colors_used,
                    max(result.target_colors, result.palette_bound),
                    result.rounds_actual,
                    result.rounds_modeled,
                    previous.previous_colors,
                    previous.previous_rounds,
                )
            )
    return rows


#: Section 5's pipelines: (row label, registered name, extra parameters).
_SECTION5_RUNS = (
    ("thm5.2", "thm52", {}),
    ("thm5.3", "thm53", {}),
    ("thm5.4(x=2)", "thm54", {"x": 2}),
    ("cor5.5", "cor55", {}),
)


def run_section5(
    arboricities: Sequence[int] = (2, 3),
    seed: int = 13,
) -> List[Row]:
    """Section 5: the (Delta + o(Delta)) pipeline on low-arboricity graphs,
    with centralized Vizing and greedy baselines for the color counts."""
    rows: List[Row] = []
    for a in arboricities:
        graph = star_forest_stack(n_centers=6, leaves_per_center=24, a=a, seed=seed)
        delta = max_degree(graph)
        workload = f"star-forest-stack(a={a}, Delta={delta})"
        baseline_colors = verified_run("vizing", graph).colors_used
        greedy_colors = verified_run("greedy", graph).colors_used
        for experiment, name, params in _SECTION5_RUNS:
            run = verified_run(name, graph, arboricity=a, **params)
            rows.append(
                _row(
                    experiment,
                    workload,
                    graph,
                    delta,
                    {"a": a, "dhat": run.extra["dhat"]},
                    run.colors_used,
                    run.extra["palette_bound"] or None,
                    run.rounds_actual,
                    run.rounds_modeled,
                    baseline_colors,
                    notes=f"greedy(2D-1)={greedy_colors}",
                )
            )
        split = verified_run("split", graph)
        rows.append(
            _row(
                "baseline-degree-splitting",
                workload,
                graph,
                delta,
                {"a": a},
                split.colors_used,
                None,
                rounds_modeled=split.rounds_modeled,
                baseline_colors=baseline_colors,
            )
        )
    return rows


#: Default column order for rendering experiment-store query rows.
#: ``compute_ms`` comes from the metrics blob (hoisted by the dataframes
#: join; "—" on rows without one) and ``verdict`` from the store's
#: verification column — the table discloses kernel time and
#: verification state, not just the run's shape.
CELL_ROW_COLUMNS = (
    "algorithm",
    "workload",
    "seed",
    "engine",
    "n",
    "m",
    "colors_used",
    "rounds_actual",
    "rounds_modeled",
    "compute_ms",
    "verdict",
    "error",
)


def _fmt(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def markdown_table(columns: Sequence[str], rows: Sequence[Mapping[str, Any]]) -> str:
    """Render dict rows as a GitHub-flavoured markdown table: the harness
    rows of the EXPERIMENTS.md block, and ``repro query --format
    markdown`` over a :func:`~repro.analysis.dataframes.cell_frame`. A
    missing key renders as "—", floats with one decimal."""
    header = "| " + " | ".join(columns) + " |"
    rule = "|" + "|".join("---" for _ in columns) + "|"
    body = [
        "| " + " | ".join(_fmt(row.get(column)) for column in columns) + " |"
        for row in rows
    ]
    return "\n".join([header, rule, *body])
