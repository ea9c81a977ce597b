#!/usr/bin/env python3
"""Kill/resume campaign driver for the streaming smoke in ``tools/ci.sh``.

Runs one ``--jobs`` cached campaign whose deliberately slow HEAD cell
blocks while the flag file exists, ahead of ``fast_cells`` fast cells.
The head cell pins one worker, so every fast cell completes *out of
order* — the streaming executor must have persisted each one by the time
the harness SIGKILLs this process. With the flag removed, the head cell
computes instantly, so resumed and uninterrupted runs produce identical
rows (the blocker delegates to greedy).

Usage: stream_kill_driver.py DB FLAG JOBS FAST_CELLS

Requires the ``fork`` start method (the Linux default): pool workers must
inherit the blocker registered below — under ``spawn`` they would
re-import :mod:`repro` and not find it.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from typing import Sequence

from repro import registry
from repro.analysis.campaign import CampaignCell, CampaignRunner
from repro.store import ExperimentStore, RunCache


def main(argv: Sequence[str]) -> int:
    db, flag, jobs, fast_cells = argv[0], argv[1], int(argv[2]), int(argv[3])

    def _blocking_greedy(graph):
        # Block only while the kill-phase flag exists: resumed and
        # uninterrupted runs compute the identical row instantly.
        while os.path.exists(flag):
            time.sleep(0.05)
        run = registry.get("greedy").runner(graph)
        return dataclasses.replace(run, name="stream-blocker")

    registry.register(
        registry.AlgorithmSpec(
            name="stream-blocker", family="baseline", kind="edge-coloring",
            summary="greedy, gated on a flag file (kill/resume harness)",
            color_bound="2D-1", rounds_bound="-", runner=_blocking_greedy,
            invariants=("proper-edge-coloring",),
        )
    )

    cells = [
        CampaignCell("stream-blocker", "random-regular", {"n": 16, "d": 4}, seed=0)
    ] + [
        CampaignCell("greedy", "random-regular", {"n": 16, "d": 4}, seed=s)
        for s in range(1, 1 + fast_cells)
    ]
    with ExperimentStore(db) as store:
        CampaignRunner(cells, jobs=jobs, cache=RunCache(store)).run()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
