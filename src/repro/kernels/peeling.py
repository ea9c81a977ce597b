"""Round program for the H-partition peeler.

One array pass per peeling level instead of one per round per node: the
level-``r`` removals are exactly the alive nodes whose degree, minus the
removal announcements accumulated so far, is at or below the threshold.
Announcements travel the reversed edges, so by CSR symmetry the nodes a
just-removed sender notifies are its own row: one segment gather over
the senders' rows plus a ``bincount`` scatter. Each pass is
O(n + edges of the just-removed set), and the number of passes is the
number of levels — O(log n) for bounded-arboricity graphs.

A stalled peel (threshold below the remaining min degree, no
announcements in flight) never terminates; the per-node run grinds to
``max_rounds`` and raises, so the coordinator raises the same
:class:`~repro.errors.RoundLimitExceeded` immediately.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.errors import RoundLimitExceeded
from repro.kernels import KernelUnsupported, register_program
from repro.kernels.program import ShardProgram
from repro.kernels.segments import segment_gather
from repro.local.network import RunResult


class PeelerProgram(ShardProgram):
    """The per-round exchange ships the boundary nodes' just-removed
    flags; the coordinator reduces the shards' alive/sent/newly stats
    into the termination and round-limit decisions."""

    name = "h-partition"

    def plan(self, manifest, extras, max_rounds):
        if "threshold" not in extras:
            raise KernelUnsupported("missing threshold")
        threshold = extras["threshold"]
        if type(threshold) not in (int, float):
            raise KernelUnsupported("non-numeric threshold")
        n = int(manifest["n"])
        if n == 0:
            return {}, RunResult(rounds=0, messages=0, outputs={}, round_messages=[])
        plan = {
            "threshold": threshold,
            "max_rounds": max_rounds,
            "acc": {"rounds": 0, "messages": 0, "round_messages": []},
            "print_key": (threshold, max_rounds),
            "print_arrays": (),
        }
        return plan, None

    def init_payload(self, plan, shard):
        return {"threshold": plan["threshold"]}

    def next_action(self, plan, completed, stats):
        acc = plan["acc"]
        sent = sum(int(s["sent"]) for s in stats)
        alive = sum(int(s["alive"]) for s in stats)
        newly_any = any(s["newly_any"] for s in stats)
        acc["messages"] += sent
        if alive == 0:
            return None
        if acc["rounds"] >= plan["max_rounds"] or not newly_any:
            # no announcements in flight and nobody below threshold: the
            # simulation would idle all the way to the round budget.
            raise RoundLimitExceeded(plan["max_rounds"], alive)
        acc["rounds"] += 1
        acc["round_messages"].append(sent)
        return acc["rounds"]

    def result(self, plan, outputs, manifest):
        acc = plan["acc"]
        return RunResult(
            rounds=acc["rounds"],
            messages=acc["messages"],
            outputs=dict(enumerate(outputs.tolist())),
            round_messages=list(acc["round_messages"]),
        )

    def init_state(self, shard, payload):
        threshold = payload["threshold"]
        degrees = np.diff(np.asarray(shard.indptr)).astype(np.int64)
        remaining = degrees.copy()
        newly = remaining <= threshold  # level 1: removed at initialization
        level = np.zeros(shard.n_own, dtype=np.int64)
        level[newly] = 1
        state = {
            "level": level,
            "remaining": remaining,
            "newly": newly,
            "alive": ~newly,
            "degrees": degrees,
            "threshold": np.asarray(threshold),
        }
        return state, self._stats(state)

    @staticmethod
    def _stats(state: Dict[str, np.ndarray]) -> Dict[str, Any]:
        return {
            "sent": int(state["degrees"][state["newly"]].sum()),
            "alive": int(state["alive"].sum()),
            "newly_any": bool(state["newly"].any()),
        }

    def boundary(self, shard, state):
        return state["newly"][np.asarray(shard.boundary)].astype(np.int64)

    def step(self, shard, state, halo_vals, arg):
        n_own = shard.n_own
        indptr, indices = np.asarray(shard.indptr), np.asarray(shard.indices)
        # owned senders list their owned receivers in their own rows; a
        # halo sender's row lives in another shard, so its owned
        # receivers are read off the boundary rows instead.
        notified, _ = segment_gather(indptr, indices, np.flatnonzero(state["newly"]))
        boundary = np.asarray(shard.boundary)
        neighbors, owner = segment_gather(indptr, indices, boundary)
        from_halo = neighbors >= n_own
        from_halo[from_halo] = halo_vals[neighbors[from_halo] - n_own] != 0
        receivers = np.concatenate(
            [notified[notified < n_own], boundary[owner[from_halo]]]
        )
        state["remaining"] -= np.bincount(receivers, minlength=n_own)
        newly = state["alive"] & (state["remaining"] <= state["threshold"][()])
        state["level"][newly] = int(arg) + 1
        state["alive"] &= ~newly
        state["newly"] = newly
        return self._stats(state)

    def finalize(self, shard, state):
        return state["level"]


register_program(PeelerProgram())
