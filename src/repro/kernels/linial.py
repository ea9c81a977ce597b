"""Round programs for the polynomial set-system substrates.

Both algorithms broadcast the current color every round and locally
evaluate degree-<= d polynomials over GF(q) (base-q digits of the color
as coefficients). The programs evaluate *all owned nodes' polynomials at
one point per array pass* — Horner over the digit planes — and detect
collisions edge-wise on the directed local CSR edge list:

* ``linial`` — per schedule step, find each node's smallest evaluation
  point uncovered by neighbor collisions. Nodes decided at point ``i``
  drop out of the edge set before point ``i+1``, so late points touch a
  vanishing fraction of the graph (the per-node loop pays full degree
  work at every point). The schedule is a pure function of
  ``(m0, Delta)``, so the coordinator plans every round up front.
* ``defective-refinement`` — one round; every point is scored and each
  node keeps the first point minimizing its collision count. The round
  only reads the *initial* colors, so the halo colors ship in the init
  payload and no exchange is needed.

Round/message accounting is closed-form: every node broadcasts every
non-final round, so each of the ``L`` rounds delivers exactly ``2m``
messages.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

import numpy as np

from repro.errors import ColoringError, RoundLimitExceeded
from repro.kernels import KernelUnsupported, register_program
from repro.kernels.program import ShardProgram, local_values
from repro.kernels.segments import edge_endpoints, require_int
from repro.local.network import RunResult


def _digit_planes(colors: np.ndarray, q: int, d: int) -> np.ndarray:
    """Base-q digits of every color as a (d+1, n) coefficient array."""
    planes = np.empty((d + 1, colors.size), dtype=np.int64)
    value = colors.copy()
    for k in range(d + 1):
        planes[k] = value % q
        value //= q
    return planes


def _eval_point(planes: np.ndarray, i: int, q: int) -> np.ndarray:
    """All nodes' polynomials evaluated at point ``i`` (Horner)."""
    vals = planes[-1].copy()
    for k in range(planes.shape[0] - 2, -1, -1):
        vals *= i
        vals += planes[k]
        vals %= q
    return vals


#: Edges compared per pass of :func:`_equal_ends`.
_CHUNK = 1 << 18


def _equal_ends(
    values: np.ndarray, src: np.ndarray, dst: np.ndarray,
    gathered: Tuple[np.ndarray, np.ndarray], out: np.ndarray,
) -> np.ndarray:
    """``values[src] == values[dst]``, written to the front of ``out``.

    The endpoint values are gathered a chunk at a time into the two
    reused ``gathered`` buffers, not into two edge-sized temporaries: on
    a million-node grid those are 32 MB each, allocated and freed once
    per evaluation point."""
    k = src.size
    for lo in range(0, k, _CHUNK):
        hi = min(lo + _CHUNK, k)
        a, b = gathered[0][: hi - lo], gathered[1][: hi - lo]
        # "clip" never fires (ids are in range); "raise" would buffer out
        np.take(values, src[lo:hi], out=a, mode="clip")
        np.take(values, dst[lo:hi], out=b, mode="clip")
        np.equal(a, b, out=out[lo:hi])
    return out[:k]


def _check_encodable(colors: np.ndarray, q: int, d: int) -> None:
    """Decline inputs the per-node ``_encode`` would reject mid-run (the
    fallback then raises the authentic error, in authentic node order)."""
    if colors.size and (colors.min() < 0 or colors.max() >= q ** (d + 1)):
        raise KernelUnsupported("color does not fit in q^(d+1)")


class LinialProgram(ShardProgram):
    """Linial's cover-free color reduction: each round is one cover-free
    refinement pass over the owned rows, with the halo colors from the
    preceding exchange; the exact twin of
    ``repro.substrates.linial._refine`` at every node."""

    name = "linial"
    node_keyed = ("initial_coloring",)

    def plan(self, manifest, extras, max_rounds):
        from repro.substrates.linial import linial_schedule

        if "initial_coloring" not in extras or "m0" not in extras:
            raise KernelUnsupported("missing linial extras")
        n = int(manifest["n"])
        if n == 0:
            return {}, RunResult(rounds=0, messages=0, outputs=[], round_messages=[])
        colors = extras["initial_coloring"]
        m0 = require_int(extras["m0"])
        schedule, _ = linial_schedule(m0, int(manifest["max_degree"]))
        if not schedule:
            return {}, RunResult(
                rounds=0, messages=0, outputs=colors, round_messages=[]
            )
        if len(schedule) > max_rounds:
            raise RoundLimitExceeded(max_rounds, n)
        # schedule invariant: each step's q^(d+1) covers the previous
        # step's q^2 output palette, so only step 0 needs the range check.
        _check_encodable(colors, schedule[0].q, schedule[0].d)
        plan = {
            "schedule": [[int(step.q), int(step.d)] for step in schedule],
            "colors": colors,
            "acc": {},
            "print_key": (m0, int(manifest["max_degree"])),
            "print_arrays": (colors,),
        }
        return plan, None

    def init_payload(self, plan, shard):
        return {"own": plan["colors"][shard.lo : shard.hi]}

    def next_action(self, plan, completed, stats):
        undecided = [tuple(s["undecided"]) for s in stats if s.get("undecided")]
        if undecided:
            # the first undecided node in global id order; with
            # contiguous ranges that is the minimum over the shards'
            # first-undecided reports.
            _gid, degree = min(undecided)
            q, d = plan["schedule"][completed - 1]
            raise ColoringError(
                "cover-free refinement failed: no uncovered evaluation point "
                f"(q={q}, d={d}, degree={degree})"
            )
        if completed < len(plan["schedule"]):
            return list(plan["schedule"][completed])
        return None

    def result(self, plan, outputs, manifest):
        rounds = len(plan["schedule"])
        per_round = 2 * int(manifest["m"])
        return RunResult(
            rounds=rounds,
            messages=per_round * rounds,
            outputs=outputs,
            round_messages=[per_round] * rounds,
        )

    def init_state(self, shard, payload):
        # the owned colors are only ever replaced, never written in
        # place, so they may alias the payload.
        return {"colors": np.asarray(payload["own"], dtype=np.int64)}, {}

    def boundary(self, shard, state):
        return state["colors"][np.asarray(shard.boundary)]

    def step(self, shard, state, halo_vals, arg):
        q, d = int(arg[0]), int(arg[1])
        n_own = shard.n_own
        colors = local_values(shard, state["colors"], halo_vals)
        planes = _digit_planes(colors, q, d)
        src, dst = edge_endpoints(shard)
        same = np.empty(src.size, dtype=bool)
        gathered = (np.empty(min(src.size, _CHUNK), dtype=np.int64),
                    np.empty(min(src.size, _CHUNK), dtype=np.int64))
        # only edges whose endpoints hold *different* colors constrain;
        # every edge leaving an owned node is present locally, so the
        # cover test sees the full neighborhood. A proper coloring keeps
        # them all: no copy of the edge list then.
        if _equal_ends(colors, src, dst, gathered, same).any():
            live = ~same
            e_src, e_dst = src[live], dst[live]
            del live
        else:
            e_src, e_dst = src, dst
        del src, dst  # the full edge list is dead weight in the point loop
        undecided = np.ones(n_own, dtype=bool)
        new_colors = np.empty(n_own, dtype=np.int64)
        for i in range(q):
            vals = _eval_point(planes, i, q)
            covered = np.zeros(n_own, dtype=bool)
            covered[e_src[_equal_ends(vals, e_src, e_dst, gathered, same)]] = True
            pick = undecided & ~covered
            if pick.any():
                new_colors[pick] = i * q + vals[:n_own][pick]
                undecided &= ~pick
                if not undecided.any():
                    break
                keep = undecided[e_src]
                e_src, e_dst = e_src[keep], e_dst[keep]
        stats: Dict[str, Any] = {}
        if undecided.any():
            worst = int(np.flatnonzero(undecided)[0])
            indptr = np.asarray(shard.indptr)
            stats["undecided"] = [
                shard.lo + worst,
                int(indptr[worst + 1] - indptr[worst]),
            ]
            new_colors[undecided] = colors[:n_own][undecided]
        state["colors"] = new_colors
        return stats

    def finalize(self, shard, state):
        return state["colors"]


class DefectiveProgram(ShardProgram):
    """The one-round defective refinement: every owned node scores all
    ``q`` evaluation points against its neighbors' initial colors in
    ``init_state``, and the coordinator stops immediately."""

    name = "defective-refinement"
    node_keyed = ("initial_coloring",)

    def plan(self, manifest, extras, max_rounds):
        if not {"initial_coloring", "q", "d"} <= set(extras):
            raise KernelUnsupported("missing defective-refinement extras")
        n = int(manifest["n"])
        if n == 0:
            return {}, RunResult(rounds=0, messages=0, outputs=[], round_messages=[])
        q = require_int(extras["q"])
        d = require_int(extras["d"])
        if q < 1 or d < 0:
            raise KernelUnsupported("degenerate (q, d)")
        colors = extras["initial_coloring"]
        _check_encodable(colors, q, d)
        if max_rounds < 1:
            raise RoundLimitExceeded(max_rounds, n)
        plan = {
            "colors": colors,
            "q": q,
            "d": d,
            "acc": {},
            "print_key": (q, d),
            "print_arrays": (colors,),
        }
        return plan, None

    def init_payload(self, plan, shard):
        colors = plan["colors"]
        return {
            "own": colors[shard.lo : shard.hi],
            "halo": colors[np.asarray(shard.halo)],
            "q": plan["q"],
            "d": plan["d"],
        }

    def next_action(self, plan, completed, stats):
        return None

    def result(self, plan, outputs, manifest):
        per_round = 2 * int(manifest["m"])
        return RunResult(
            rounds=1,
            messages=per_round,
            outputs=outputs,
            round_messages=[per_round],
        )

    def init_state(self, shard, payload):
        q, d = int(payload["q"]), int(payload["d"])
        n_own = shard.n_own
        colors = local_values(
            shard, np.asarray(payload["own"], dtype=np.int64), payload["halo"]
        )
        planes = _digit_planes(colors, q, d)
        src, dst = edge_endpoints(shard)
        best_point = np.zeros(n_own, dtype=np.int64)
        best_count = np.diff(np.asarray(shard.indptr)).astype(np.int64) + 1
        best_val = np.zeros(n_own, dtype=np.int64)
        for i in range(q):
            vals = _eval_point(planes, i, q)
            collisions = np.bincount(src[vals[src] == vals[dst]], minlength=n_own)
            better = collisions < best_count
            if better.any():
                best_point[better] = i
                best_count[better] = collisions[better]
                best_val[better] = vals[:n_own][better]
        return {"out": best_point * q + best_val}, {}

    def boundary(self, shard, state):
        return state["out"][np.asarray(shard.boundary)]

    def finalize(self, shard, state):
        return state["out"]


register_program(LinialProgram())
register_program(DefectiveProgram())
