"""Round programs for the color-reduction substrates.

Both reductions schedule one color class per round, highest class first;
each class is an independent set, so its members re-pick simultaneously
from a mex over the neighbor colors *as of that round*. The sequential
structure collapses into a class sweep:

* a node's re-pick ("wake") round is fixed at initialization from its
  initial color, so the coordinator knows the classes, their order and
  the round limit upfront from the global coloring;
* when a class re-picks, every neighbor in a *higher* class already
  holds its final color and every other neighbor still holds its initial
  one — exactly the state of a colors vector updated class-by-class in
  descending order, with the boundary colors exchanged after each class;
* the mex over each member's neighborhood is one scatter into a
  (members x limit) seen-mask plus an argmin — segment ops over
  ``indptr``, no per-node dispatch.

The program steps once per round in which some class re-picks; rounds
in between re-pick nothing and exist only in the accounting, which is
closed-form: the initialization broadcast delivers ``2m`` messages in
round 1, and the class re-picked in round ``r`` broadcasts its degree
sum into round ``r + 1``. Each shard reports its degree sums per wake
round at init.

The two reductions differ only in how a color maps to its wake round
and in the pick rule: the basic reduction re-picks below ``target``
against all neighbors; a Kuhn–Wattenhofer phase re-picks the in-block
color below ``palette`` against the neighbors in the same block.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ColoringError, RoundLimitExceeded
from repro.kernels import KernelUnsupported, register_program
from repro.kernels.program import ShardProgram, local_values
from repro.kernels.segments import dense_int_table, require_int, segment_gather
from repro.local.network import RunResult

#: Cap on the (members x limit) mex mask; inputs past it fall back to
#: the event-driven per-node path rather than risk a memory spike.
_MAX_MEX_CELLS = 64_000_000


def _mex(
    owner: np.ndarray, candidate: np.ndarray, valid: np.ndarray, count: int, limit: int
) -> Optional[np.ndarray]:
    """Per-member mex below ``limit`` over the valid candidate values, or
    None if some member has no free color."""
    # one spare, never-seen column: a member whose every color below
    # ``limit`` is taken picks ``limit``
    width = limit + 1
    seen = np.zeros(count * width, dtype=bool)
    seen[owner[valid] * width + candidate[valid]] = True
    first = seen.reshape(count, width).argmin(axis=1)
    return None if first.max() == limit else first


class _ClassSweep(ShardProgram):
    """The sweep shared by both reductions. A subclass names its
    ``required`` extras and defines ``_classes(colors, extras) -> (wake,
    limit, params)`` — every node's re-pick round (0 for nodes that halt
    at initialization), the mex limit, and the ints its pick rule needs —
    and ``_pick(state, own, cand, owner)``: the new colors of members
    holding ``own`` given their gathered neighbor colors ``cand``, or
    None if one has no free color."""

    required: Tuple[str, ...] = ()

    # ---- coordinator half -------------------------------------------------
    def plan(self, manifest, extras, max_rounds):
        if not set(self.required) <= set(extras):
            raise KernelUnsupported(f"missing {self.name} extras")
        n = int(manifest["n"])
        if n == 0:
            return {}, RunResult(rounds=0, messages=0, outputs={}, round_messages=[])
        colors = dense_int_table(extras["coloring"], n)
        wake, limit, params = self._classes(colors, extras)
        two_m = 2 * int(manifest["m"])
        last_round = int(wake.max())
        if last_round == 0:
            # everyone halts at initialization; the broadcast is sent but
            # the run ends before any delivery round.
            return {}, RunResult(
                rounds=0,
                messages=two_m,
                outputs=dict(enumerate(colors.tolist())),
                round_messages=[],
            )
        if last_round > max_rounds:
            raise RoundLimitExceeded(max_rounds, int((wake > max_rounds).sum()))
        sizes = np.bincount(wake)
        sizes[0] = 0
        if int(sizes.max()) * limit > _MAX_MEX_CELLS:
            raise KernelUnsupported("mex mask too large; per-node path instead")
        plan = {
            "colors": colors,
            "wake": wake,
            "params": params,
            "limit": limit,
            "two_m": two_m,
            "steps": np.flatnonzero(sizes).tolist(),
            "acc": {},
            "print_key": sorted(params.items()),
            "print_arrays": (colors, wake),
        }
        return plan, None

    def init_payload(self, plan, shard):
        return {
            "own": plan["colors"][shard.lo : shard.hi],
            "wake": plan["wake"][shard.lo : shard.hi],
            "params": plan["params"],
        }

    def next_action(self, plan, completed, stats):
        acc = plan["acc"]
        if completed == 0:
            deliveries = np.zeros(plan["steps"][-1] + 1, dtype=np.int64)
            deliveries[0] = plan["two_m"]
            for s in stats:
                sums = np.asarray(s["wake_degrees"], dtype=np.int64)
                deliveries[: sums.size] += sums
            acc["messages"] = int(deliveries.sum())
            # round r delivers the sends of round r - 1; the final class's
            # broadcast is sent (counted in messages) but never delivered.
            acc["round_messages"] = deliveries[:-1].tolist()
        for s in stats:
            if "no_free_color" in s:
                raise ColoringError(f"no free color below {plan['limit']}")
        if completed < len(plan["steps"]):
            return plan["steps"][completed]
        return None

    def result(self, plan, outputs, manifest):
        acc = plan["acc"]
        return RunResult(
            rounds=len(acc["round_messages"]),
            messages=acc["messages"],
            outputs=dict(enumerate(outputs.tolist())),
            round_messages=list(acc["round_messages"]),
        )

    # ---- worker half ------------------------------------------------------
    def init_state(self, shard, payload):
        wake = np.asarray(payload["wake"], dtype=np.int64)
        order = np.flatnonzero(wake)
        keys = wake[order]
        # the narrowest dtype: numpy's stable sort is a radix sort up to 16 bits
        keys = keys.astype(np.min_scalar_type(int(keys.max(initial=0))))
        order = order[np.argsort(keys, kind="stable")]
        wake = wake[order]
        degrees = np.diff(np.asarray(shard.indptr))[order]
        state = {
            # the sweep writes re-picked colors in place
            "colors": np.array(payload["own"], dtype=np.int64),
            "order": order,
            "wake": wake,
        }
        for key, value in payload["params"].items():
            state[key] = np.asarray(value)
        sums = np.bincount(wake, weights=degrees).astype(np.int64)
        return state, {"wake_degrees": sums.tolist()}

    def boundary(self, shard, state):
        return state["colors"][np.asarray(shard.boundary)]

    def step(self, shard, state, halo_vals, arg):
        wake = state["wake"]
        members = state["order"][
            wake.searchsorted(arg) : wake.searchsorted(arg, side="right")
        ]
        if not members.size:
            return {}
        colors = state["colors"]
        neighbors, owner = segment_gather(
            np.asarray(shard.indptr), np.asarray(shard.indices), members
        )
        cand = local_values(shard, colors, halo_vals)[neighbors]
        new_colors = self._pick(state, colors[members], cand, owner)
        if new_colors is None:
            return {"no_free_color": True}
        colors[members] = new_colors
        return {}

    def finalize(self, shard, state):
        return state["colors"]


class BasicReductionProgram(_ClassSweep):
    """Color class ``c >= target`` re-picks in round ``m - c``, the
    smallest color below ``target`` unused by any neighbor."""

    name = "basic-reduction"
    required = ("coloring", "m", "target")

    def _classes(self, colors, extras):
        m = require_int(extras["m"])
        target = require_int(extras["target"])
        if target <= 0:
            raise KernelUnsupported("non-positive target")
        active = colors >= target
        wake = np.where(active, m - colors, 0)
        if active.any() and int(wake[active].min()) < 1:
            # a color >= m never re-picks (its slot is in the past): the
            # per-node run would exhaust max_rounds; don't model that here.
            raise KernelUnsupported("color >= m")
        return wake, target, {"target": target}

    def _pick(self, state, own, cand, owner):
        target = int(state["target"])
        valid = (cand >= 0) & (cand < target)
        return _mex(owner, cand, valid, own.size, target)


class KWPhaseProgram(_ClassSweep):
    """In-block class ``rel >= palette`` re-picks in round
    ``block - rel``, the smallest in-block color below ``palette`` unused
    by any neighbor in the same block."""

    name = "kw-phase"
    required = ("coloring", "block", "palette")

    def _classes(self, colors, extras):
        block = require_int(extras["block"])
        palette = require_int(extras["palette"])
        if block <= 0 or palette <= 0 or palette > block:
            raise KernelUnsupported("degenerate (block, palette)")
        rel = colors % block
        wake = np.where(rel >= palette, block - rel, 0)
        return wake, palette, {"block": block, "palette": palette}

    def _pick(self, state, own, cand, owner):
        block, palette = int(state["block"]), int(state["palette"])
        blk = own // block
        cand_rel = cand % block
        # only neighbors in the *member's* block constrain, and only
        # their in-block colors below the palette matter for the mex.
        valid = (cand // block == blk[owner]) & (cand_rel < palette)
        new_rel = _mex(owner, cand_rel, valid, own.size, palette)
        return None if new_rel is None else blk * block + new_rel


register_program(BasicReductionProgram())
register_program(KWPhaseProgram())
