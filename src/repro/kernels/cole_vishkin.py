"""Round program for Cole–Vishkin bit reduction on rooted forests.

One iteration is pure bitwise arithmetic on the colors vector: non-roots
XOR their color with their parent's previous color, isolate the lowest
set bit (``x & -x``; its position via an exact ``log2`` — powers of two
are exact in float64 far beyond any palette this library meets), and
re-encode as ``2 * i + own_bit``; roots re-encode as ``color & 1``. A
parent owned by another shard is a halo node, so each round's exchange
ships the boundary colors. All nodes run the globally known number of
iterations and halt together, so the profile is closed-form: every round
delivers one message per directed tree edge, and each shard counts its
own tree edges at init.

The program declines parent maps the per-node path would trip over
mid-run, and the fallback then raises the authentic per-node error. A
parent that is not a node is declined where the map is interned
(:mod:`repro.kernels.program`); only the CSR shows whether a parent is
a neighbor, so that decline comes from the workers' init stats.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError, RoundLimitExceeded
from repro.kernels import KernelUnsupported, register_program
from repro.kernels.program import ShardProgram, local_values
from repro.kernels.segments import edge_endpoints, local_ids, require_int
from repro.local.network import RunResult


class ColeVishkinProgram(ShardProgram):
    """Each step is one bit-reduction iteration over the owned non-roots,
    reading halo parents' colors from the preceding exchange."""

    name = "cole-vishkin"
    node_keyed = ("initial_coloring",)
    node_valued = ("parent",)

    def plan(self, manifest, extras, max_rounds):
        if not {"parent", "initial_coloring", "iterations"} <= set(extras):
            raise KernelUnsupported("missing cole-vishkin extras")
        n = int(manifest["n"])
        if n == 0:
            return {}, RunResult(rounds=0, messages=0, outputs=[], round_messages=[])
        colors = extras["initial_coloring"]
        iterations = require_int(extras["iterations"])
        if iterations < 0:
            raise KernelUnsupported("negative iterations")
        par = extras["parent"]
        if iterations == 0:
            return {}, RunResult(
                rounds=0, messages=0, outputs=colors, round_messages=[]
            )
        if iterations > max_rounds:
            raise RoundLimitExceeded(max_rounds, n)
        # only the first iteration sees the wide input colors (after it
        # every color is below 128), and only a negative color can xor to
        # int64's minimum, whose lowest set bit has no int64 position
        if colors.min() < 0:
            nonroot = par >= 0
            diff = colors[nonroot] ^ colors[par[nonroot]]
            if (diff == np.iinfo(np.int64).min).any():
                raise KernelUnsupported("color bit width out of range")
        plan = {
            "colors": colors,
            "parent": par,
            "iterations": iterations,
            "acc": {},
            "print_key": iterations,
            "print_arrays": (colors, par),
        }
        return plan, None

    def init_payload(self, plan, shard):
        par = plan["parent"]
        return {
            "own": plan["colors"][shard.lo : shard.hi],
            "parent": par[shard.lo : shard.hi],
            "halo_parent": par[np.asarray(shard.halo)],
        }

    def next_action(self, plan, completed, stats):
        if completed == 0:
            plan["acc"]["tree_edges"] = sum(int(s["tree_edges"]) for s in stats)
        for s in stats:
            if "equal_colors" in s:
                raise InvalidParameterError(
                    "colors must differ between parent and child"
                )
        return completed + 1 if completed < plan["iterations"] else None

    def result(self, plan, outputs, manifest):
        rounds = plan["iterations"]
        per_round = plan["acc"]["tree_edges"]
        return RunResult(
            rounds=rounds,
            messages=per_round * rounds,
            outputs=outputs,
            round_messages=[per_round] * rounds,
        )

    def init_state(self, shard, payload):
        n_own = shard.n_own
        state = {"colors": np.asarray(payload["own"], dtype=np.int64)}
        own_parent = np.asarray(payload["parent"], dtype=np.int64)
        par = local_ids(
            shard, local_values(shard, own_parent, payload["halo_parent"])
        )
        src, dst = edge_endpoints(shard)
        to_parent = par[src] == dst
        # every non-root must neighbor its parent, or it would never
        # receive a parent color (the per-node path then raises its own
        # TypeError; not ours to mimic — decline instead).
        has_parent_edge = np.bincount(src[to_parent], minlength=n_own) > 0
        if not has_parent_edge[own_parent >= 0].all():
            return state, {"decline": "parent is not a neighbor"}
        # a directed edge carries a message iff it runs child->parent or
        # parent->child (node.send on tree neighbors only).
        tree_edges = int(np.count_nonzero(to_parent | (par[dst] == src)))
        nonroot = np.flatnonzero(own_parent >= 0)
        state["nonroot"] = nonroot
        state["parent"] = par[nonroot]
        return state, {"tree_edges": tree_edges}

    def boundary(self, shard, state):
        return state["colors"][np.asarray(shard.boundary)]

    def step(self, shard, state, halo_vals, arg):
        colors = state["colors"]
        nonroot = state["nonroot"]
        new_colors = colors & 1  # roots: (bit position 0, own bit)
        if nonroot.size:
            own = colors[nonroot]
            diff = own ^ local_values(shard, colors, halo_vals)[state["parent"]]
            if not diff.all():
                return {"equal_colors": True}
            lsb = diff & -diff
            i = np.round(np.log2(lsb.astype(np.float64))).astype(np.int64)
            new_colors[nonroot] = 2 * i + ((own >> i) & 1)
        state["colors"] = new_colors
        return {}

    def finalize(self, shard, state):
        return state["colors"]


register_program(ColeVishkinProgram())
