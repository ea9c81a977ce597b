"""Regenerate the paper tables in EXPERIMENTS.md: paper-vs-measured for
every table and figure.

``python -m repro experiments EXPERIMENTS.md`` runs the full harness
(Tables 1-2, Section 5, Figures 1-3, scaling fits, baselines, ablations,
the workload catalogue) and rewrites only the text between
:data:`BEGIN_MARKER` and :data:`END_MARKER`; the prose around them is
hand-written and survives byte for byte. A target without both markers
is an error and is left untouched. Without a path the block is printed.

The generated block is the one persisted snapshot of the paper tables:
``tests/test_experiments_fresh.py`` regenerates it and requires it to
equal the committed block exactly.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.analysis.figures import all_figures
from repro.analysis.metrics import ExperimentRecord, records_to_markdown
from repro.analysis.tables import run_section5, run_table1, run_table2

BEGIN_MARKER = "<!-- BEGIN GENERATED: python -m repro experiments EXPERIMENTS.md -->"
END_MARKER = "<!-- END GENERATED -->"

_TABLE_COLUMNS = [
    "experiment",
    "workload",
    "delta",
    "param_x",
    "colors_used",
    "colors_bound",
    "within_bound",
    "rounds_actual",
    "rounds_modeled",
    "baseline_colors",
    "baseline_rounds",
]

_S5_COLUMNS = [
    "experiment",
    "workload",
    "delta",
    "param_a",
    "colors_used",
    "colors_bound",
    "rounds_actual",
    "rounds_modeled",
    "baseline_colors",
    "notes",
]


def _section(title: str, intro: str, records: List[ExperimentRecord], columns) -> str:
    return f"## {title}\n\n{intro}\n\n{records_to_markdown(records, columns)}\n"


def generate_report() -> str:
    """The generated block: every section from Table 1 through the
    workload catalogue."""
    parts = [
        _section(
            "Table 1 — (2^(x+1) Δ)-edge-coloring of general graphs",
            "Measured colors stay within the paper's palette for every x; the"
            " modeled rounds shrink as x grows while the baseline column shows"
            " the previous [7]+[17] bound.",
            run_table1(),
            _TABLE_COLUMNS,
        ),
        _section(
            "Table 2 — (D^(x+1) S)-vertex-coloring, bounded diversity",
            "Line graphs (D=2) and hypergraph line graphs (D=3,4).",
            run_table2(),
            _TABLE_COLUMNS,
        ),
        _section(
            "Section 5 — (Δ + o(Δ))-edge-coloring, bounded arboricity",
            "Baseline colors are the centralized Misra–Gries (Δ+1) reference;"
            " notes carry the greedy (2Δ-1) count.",
            run_section5(),
            _S5_COLUMNS,
        ),
        "## Figures 1–3 — connector constructions\n",
    ]
    for report in all_figures():
        parts.append(f"* **{report.name}** — {report.description}")
        parts.append(f"  * {report.summary()}")
    parts.append("")
    parts.append(_scaling_section())
    parts.append(_baseline_section())
    parts.append(_ablation_section())
    parts.append(_workloads_section())
    return "\n".join(parts)


def _split(text: str) -> Tuple[str, str]:
    """``text`` up to and including :data:`BEGIN_MARKER`, and from
    :data:`END_MARKER` on; raises ``ValueError`` unless both are present
    in that order."""
    start = text.find(BEGIN_MARKER)
    end = text.find(END_MARKER, max(start, 0))
    if start < 0 or end < 0:
        raise ValueError(
            f"no generated block: the file needs a {BEGIN_MARKER!r} line "
            f"followed by a {END_MARKER!r} line"
        )
    return text[: start + len(BEGIN_MARKER)], text[end:]


def splice(text: str, block: str) -> str:
    """``text`` with the generated block between the markers replaced by
    ``block``; everything outside the markers is kept byte for byte."""
    head, tail = _split(text)
    return f"{head}\n\n{block}\n{tail}"


def _workloads_section() -> str:
    """The declarative workload catalogue — every named scenario a
    campaign cell can reference, straight from :mod:`repro.workloads`."""
    from repro import workloads

    lines = [
        "## Workload catalogue",
        "",
        "Named graph scenarios from the workload registry"
        " (`python -m repro workloads`). A campaign is fully described by",
        "`(algorithm names x workload names x seeds)` — parameters below are",
        "the registered defaults, overridable per cell. The `scale` family",
        "holds >= 50k-node instances that exercise the streaming executor's",
        "bounded window; the `xl` family holds >= 1M-node instances built",
        "straight into CSR by the graph core (`repro.graphcore`), never",
        "materializing a networkx graph. `repro campaign cells` leaves both",
        "out of its default grid, so name them explicitly via `--workloads`",
        "(the `repro workloads` listing marks the excluded rows).",
        "",
        "| workload | family | randomness | defaults |",
        "|---|---|---|---|",
    ]
    for spec in workloads.specs():
        defaults = ", ".join(f"{k}={v}" for k, v in sorted(spec.defaults.items()))
        randomness = "seeded" if spec.seeded else "deterministic"
        lines.append(f"| {spec.name} | {spec.family} | {randomness} | {defaults} |")
    lines.append("")
    return "\n".join(lines)


def _ablation_section() -> str:
    """The design-choice ablations: oracle substitution cost, H-partition
    slack q, and the related-work (Delta+1) vertex coloring boundary.

    Every algorithm resolves through :mod:`repro.registry` — this harness
    names algorithms, never imports them.
    """
    from repro import registry
    from repro.verify import verify_edge_coloring, verify_vertex_coloring
    from repro.graphs import max_degree, random_regular, star_forest_stack

    lines = ["## Ablations", ""]

    # A2: oracle measured vs modeled rounds.
    lines += [
        "### Oracle substitution (A2): measured vs modeled rounds",
        "",
        "Our executable oracle costs O(Δ·logΔ + log* n) simulator rounds;",
        "the paper charges the [17] bound Õ(√Δ)+O(log* n). Both ledgers:",
        "",
        "| Δ | measured rounds | modeled ([17]) rounds |",
        "|---|---|---|",
    ]
    for delta in (4, 8, 16):
        graph = random_regular(48, delta, seed=23)
        oracle = registry.run("oracle-vertex", graph)
        lines.append(
            f"| {delta} | {oracle.rounds_actual:.0f} | {oracle.rounds_modeled:.0f} |"
        )
    lines.append("")

    # A3: H-partition slack q.
    lines += [
        "### H-partition slack q (A3): levels vs degree bound",
        "",
        "| q | levels | ceil(q·a) | Thm 5.2 colors |",
        "|---|---|---|---|",
    ]
    workload = star_forest_stack(6, 18, 2, seed=29)
    for q in (2.5, 3.0, 6.0):
        hp = registry.run("h-partition", workload, arboricity=2, q=q)
        result = registry.run("thm52", workload, arboricity=2, q=q)
        verify_edge_coloring(workload, result.coloring)
        lines.append(
            f"| {q} | {hp.extra['num_levels']} | {hp.extra['threshold']} "
            f"| {result.colors_used} |"
        )
    lines.append("")

    # Related work boundary: [6]'s (Delta+1)-vertex-coloring.
    vertex = registry.run("vertex-arboricity", workload, arboricity=2)
    verify_vertex_coloring(workload, vertex.coloring)
    lines += [
        "### Related-work boundary ([6]): (Δ+1)-vertex-coloring",
        "",
        f"On the same workload (Δ = {max_degree(workload)}, a ≤ 2), the",
        f"[6]-style vertex coloring uses {vertex.colors_used} ≤ Δ+1 colors in",
        f"{vertex.rounds_actual:.0f} rounds — but, as the paper stresses, this",
        "does **not** yield an edge coloring, because line graphs have",
        "arboricity Θ(Δ); Section 5 is what closes that gap.",
        "",
    ]
    return "\n".join(lines)


def _scaling_section() -> str:
    """Fit the Delta-exponents of the modeled round bounds — the paper's
    central 'almost quadratic' improvement, checked numerically."""
    from repro.analysis.stats import fit_power_law
    from repro.local.costmodel import (
        log_star,
        new_edge_coloring_rounds,
        previous_edge_coloring_rounds,
    )

    lines = [
        "## Scaling shapes — the Table 1 exponents",
        "",
        "Least-squares power-law fits of the modeled round bounds over",
        "Delta in {2^8 .. 2^20} (log* term removed). The paper claims the",
        "new exponent 1/(2x+2) vs. the previous 1/(x+2):",
        "",
        "| x | fitted new exponent | paper | fitted previous exponent | paper |",
        "|---|---|---|---|---|",
    ]
    deltas = [2**k for k in (8, 12, 16, 20)]
    for x in (1, 2, 3):
        new_fit = fit_power_law(
            deltas, [new_edge_coloring_rounds(d, 2, x) - log_star(2) for d in deltas]
        )
        prev_fit = fit_power_law(
            deltas,
            [previous_edge_coloring_rounds(d, 2, x) - log_star(2) for d in deltas],
        )
        lines.append(
            f"| {x} | {new_fit.exponent:.3f} | {1 / (2 * x + 2):.3f} "
            f"| {prev_fit.exponent:.3f} | {1 / (x + 2):.3f} |"
        )
    lines.append("")
    return "\n".join(lines)


def _baseline_section() -> str:
    """One shared workload, every executable baseline — the full
    color/round landscape the paper's Table 1 sits in. All rows resolve
    through the unified algorithm registry."""
    from repro import registry
    from repro.verify import verify_edge_coloring
    from repro.graphs import max_degree, random_regular

    graph = random_regular(64, 16, seed=19)
    delta = max_degree(graph)
    rows = []

    ours1 = registry.run("star4", graph)
    rows.append(("star-partition x=1 (this paper, 4Δ)", ours1.colors_used, f"{ours1.rounds_modeled:.0f}"))
    ours2 = registry.run("star", graph, x=2)
    rows.append(("star-partition x=2 (this paper, 8Δ)", ours2.colors_used, f"{ours2.rounds_modeled:.0f}"))
    weak = registry.run("weak", graph)
    rows.append(("weak Δ^(1+ε) ([6,7] regime)", weak.colors_used, f"{weak.rounds_actual:.0f}"))
    fast = registry.run("forest", graph)
    rows.append(("forest decomposition (O(aΔ))", fast.colors_used, f"{fast.rounds_actual:.0f}"))
    rnd = registry.run("randomized", graph, seed=19)
    rows.append(("randomized 2Δ trial ([14,16,22] regime)", rnd.colors_used, f"{rnd.rounds_actual:.0f}"))
    split = registry.run("split", graph)
    rows.append(("degree splitting ([20,25] regime)", split.colors_used, f"{split.rounds_modeled:.0f} (modeled)"))
    greedy = registry.run("greedy", graph)
    rows.append(("greedy 2Δ-1 (sequential)", greedy.colors_used, "—"))
    vizing = registry.run("vizing", graph)
    rows.append(("Misra–Gries Δ+1 (centralized)", vizing.colors_used, "—"))
    for coloring in (ours1.coloring, ours2.coloring):
        verify_edge_coloring(graph, coloring)

    lines = [
        "## Baseline landscape",
        "",
        f"Shared workload: 16-regular graph, n=64 (Δ = {delta}).",
        "",
        "| algorithm | colors | rounds |",
        "|---|---|---|",
    ]
    for name, colors, rounds in rows:
        lines.append(f"| {name} | {colors} | {rounds} |")
    lines.append("")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(generate_report())
        return 0
    path = Path(argv[0])
    try:
        # newline="" keeps the file's line endings byte for byte
        with open(path, encoding="utf-8", newline="") as handle:
            text = handle.read()
        _split(text)  # fail before the slow regeneration
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{path}: {exc}") from None
    text = splice(text, generate_report())
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    print(f"wrote the generated block of {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
