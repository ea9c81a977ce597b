#!/usr/bin/env python3
"""Benchmark: whole-round CSR kernels against the per-node vector path.

Three gates, written to ``BENCH_kernels.json`` (nonzero exit if any
fails):

* **million-node-linial** — wall time of the full 1M-node ``xl-grid``
  linial cell through ``registry.run(..., engine="vector")`` on the
  CompactGraph input, i.e. the kernel path end to end (graph build
  excluded, verification excluded — the cell the ISSUE's ~103 s PR 5
  baseline measured). Gate: single-digit seconds
  (``--max-million-s``, default 10).
* **kernel-speedup** — the same linial run on one instance
  (``--speedup-grid`` side, default 250, so 62.5k nodes) with the
  kernel registry emptied (per-node event-driven path) vs. intact
  (kernel path). Same engine, same graph, same extras — the measured
  ratio isolates exactly what this PR added. Gate: >=
  ``--require-speedup`` (default 10).
* **compact-ok-count** — ``compact_ok`` algorithms in the registry.
  Gate: >= ``--require-compact-ok`` (default 12) of the catalogue,
  with the parity suite (tests/engine/test_compact_parity.py) as the
  bit-for-bit correctness side of the same claim.

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from repro import kernels, registry
from repro.graphcore import build_grid
from repro.local import DEFAULT_MAX_ROUNDS


def _timed(fn):
    gc.collect()
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def bench_million_node_linial() -> dict:
    graph = build_grid(1000, 1000)
    wall_s, run = _timed(lambda: registry.run("linial", graph, engine="vector"))
    return {
        "workload": "xl-grid",
        "n": graph.n,
        "m": graph.m,
        "wall_s": wall_s,
        "colors_used": run.colors_used,
        "rounds_actual": run.rounds_actual,
        "pr5_baseline_s": 103.0,  # BENCH_graphcore.json era, per-node path
        "speedup_vs_pr5_baseline": 103.0 / wall_s if wall_s > 0 else float("inf"),
    }


def bench_kernel_speedup(side: int) -> dict:
    from repro.engine import get_engine
    from repro.kernels.segments import repr_rank_order
    from repro.substrates.linial import LinialAlgorithm

    graph = build_grid(side, side)
    ordered = repr_rank_order(graph.n).tolist()
    extras = {
        "initial_coloring": {v: i for i, v in enumerate(ordered)},
        "m0": graph.n,
    }
    engine = get_engine("vector")
    algorithm = LinialAlgorithm()

    def kernel_path():
        return engine.run(graph, algorithm, extras=dict(extras))

    def per_node_path():
        # Empty the kernel registry for the duration: the engine finds no
        # kernel and falls back to its event-driven per-node scheduler —
        # exactly the PR 5 execution of the same cell.
        saved = dict(kernels._KERNELS)
        modules = dict(kernels._KERNEL_MODULES)
        kernels._KERNELS.clear()
        kernels._KERNEL_MODULES.clear()
        try:
            return engine.run(graph, algorithm, extras=dict(extras))
        finally:
            kernels._KERNELS.update(saved)
            kernels._KERNEL_MODULES.update(modules)

    kernel_s, kernel_run = _timed(kernel_path)
    per_node_s, per_node_run = _timed(per_node_path)
    assert per_node_run.outputs == kernel_run.outputs, "speedup probe diverged"
    assert per_node_run.round_messages == kernel_run.round_messages
    return {
        "workload": f"grid {side}x{side}",
        "n": graph.n,
        "per_node_s": per_node_s,
        "kernel_s": kernel_s,
        "speedup": per_node_s / kernel_s if kernel_s > 0 else float("inf"),
        "rounds": kernel_run.rounds,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-million-s", type=float, default=10.0)
    parser.add_argument("--require-speedup", type=float, default=10.0)
    parser.add_argument("--require-compact-ok", type=int, default=12)
    parser.add_argument("--speedup-grid", type=int, default=250)
    parser.add_argument("--out", default="BENCH_kernels.json")
    args = parser.parse_args()

    million = bench_million_node_linial()
    speedup = bench_kernel_speedup(args.speedup_grid)
    compact_ok = sorted(
        name for name in registry.names() if registry.get(name).compact_ok
    )

    gates = {
        "million_node_linial_wall_s": {
            "required_max": args.max_million_s,
            "measured": million["wall_s"],
            "passed": million["wall_s"] <= args.max_million_s,
        },
        "kernel_vs_per_node_speedup": {
            "required": args.require_speedup,
            "measured": speedup["speedup"],
            "passed": speedup["speedup"] >= args.require_speedup,
        },
        "compact_ok_count": {
            "required": args.require_compact_ok,
            "measured": len(compact_ok),
            "passed": len(compact_ok) >= args.require_compact_ok,
        },
    }
    payload = {
        "benchmark": "kernels",
        "million_node_linial": million,
        "kernel_speedup": speedup,
        "compact_ok": compact_ok,
        "registry_size": len(registry.names()),
        "kernels": kernels.kernel_names(),
        "max_rounds": DEFAULT_MAX_ROUNDS,
        "gates": gates,
        "passed": all(g["passed"] for g in gates.values()),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")

    print(
        f"1M-node xl-grid linial (kernel path): {million['wall_s']:.2f}s "
        f"(gate <= {args.max_million_s:.0f}s; ~{million['speedup_vs_pr5_baseline']:.0f}x "
        f"the PR 5 per-node baseline of ~103s)"
    )
    print(
        f"kernel vs per-node on {speedup['workload']}: "
        f"{speedup['per_node_s']:.2f}s -> {speedup['kernel_s']:.3f}s "
        f"= {speedup['speedup']:.1f}x (gate {args.require_speedup:.0f}x)"
    )
    print(
        f"compact_ok: {len(compact_ok)}/{len(registry.names())} "
        f"(gate >= {args.require_compact_ok})"
    )
    print(f"wrote {args.out}")
    if not payload["passed"]:
        failing = [k for k, g in gates.items() if not g["passed"]]
        print(f"FAILED gates: {', '.join(failing)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
