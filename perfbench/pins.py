"""Pinned outputs: per campaign cell, the expected ``colors_used``,
``rounds_actual`` and verdict, or the expected error type.

The paper's colors and rounds are outputs under test, so every pass is
checked against ``pins.json`` and a mismatch fails the run. Regenerate
the file only when an output change is intended, from the repository
root::

    python3 perfbench/pins.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping

PINS_PATH = Path(__file__).with_name("pins.json")


def cell_key(row: Mapping[str, Any]) -> str:
    """The pin key of a campaign row (its seed is the run-key seed, so an
    unseeded workload has one pin for every seed)."""
    from repro.analysis.campaign import CampaignCell

    return CampaignCell(
        algorithm=row["algorithm"],
        workload=row["workload"],
        workload_params=row["workload_params"],
        seed=row["seed"],
        algo_params=row["algo_params"],
    ).key()


def outcome(row: Mapping[str, Any]) -> List[Any]:
    """``[colors_used, rounds_actual, verdict, error_type]`` of a row."""
    error = row.get("error")
    if error:
        return [None, None, None, str(error).split(":", 1)[0]]
    return [row.get("colors_used"), row.get("rounds_actual"), row.get("verdict"), None]


_FIELDS = ("colors_used", "rounds_actual", "verdict", "error")


def check_row(row: Mapping[str, Any], pins: Mapping[str, List[Any]],
              expect_cached: bool = False) -> List[str]:
    """The problems with one row: a missing pin, any field that differs
    from it, an ``ok`` verdict lost, or (on a resume, ``expect_cached``)
    a stored result that was computed again instead of served."""
    key = cell_key(row)
    expected = pins.get(key)
    if expected is None:
        return [f"{key}: no pinned output"]
    got = outcome(row)
    problems = [
        f"{key}: {name} expected {want!r}, got {have!r}"
        for name, want, have in zip(_FIELDS, expected, got)
        if want != have
    ]
    if expect_cached and expected[3] is None and not row.get("cached"):
        problems.append(f"{key}: resume recomputed a stored result")
    return problems


def load(path: Path = PINS_PATH) -> Dict[str, List[Any]]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["cells"]


def generate(jobs: int = 2) -> Dict[str, List[Any]]:
    """Run every cell any seed can produce, at both sizes, and return the
    pins (unverified: the caller is pinning the current outputs)."""
    from repro.analysis.campaign import CampaignRunner

    from perfbench import suite

    pins: Dict[str, List[Any]] = {}
    for name, workload in suite.WORKLOADS.items():
        # Only the grid's inputs depend on the seed.
        seeds = range(suite.GRID_SEED_PAIRS) if name == "grid" else [0]
        for size in suite.SIZES:
            cells: Dict[str, Any] = {}
            for seed in seeds:
                for cell in workload.cells(seed, size):
                    cells.setdefault(cell.key(), cell)
            rows = CampaignRunner(
                list(cells.values()), engine=suite.ENGINE,
                jobs=min(jobs, workload.jobs),
            ).run()
            for row in rows:
                key = cell_key(row)
                got = outcome(row)
                if pins.setdefault(key, got) != got:
                    raise RuntimeError(f"{key}: two outcomes {pins[key]} and {got}")
            print(f"{name}/{size}: {len(rows)} cells", file=sys.stderr)
    return dict(sorted(pins.items()))


def main() -> int:
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent.parent)]
    pins = generate()
    write(pins)
    print(f"wrote {len(pins)} pins to {PINS_PATH}")
    return 0


def write(pins: Mapping[str, List[Any]], path: Path = PINS_PATH) -> None:
    """One cell per line, so a changed output is a one-line diff."""
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(pins.items())]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"v": 1, "engine": "vector", "cells": {\n')
        handle.write(",\n".join(lines))
        handle.write("\n}}\n")


if __name__ == "__main__":
    sys.exit(main())
