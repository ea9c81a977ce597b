"""Round program for Lemma 5.1's label-round cross merge.

Every A node labels its cross edges ``1..k``. In label round ``i`` each
A node with an ``i``-th label sends that B neighbor its used colors
(engine round ``2i - 1`` delivers the request), and the B node answers
its requesters in ``repr`` order of their ids, each with the first color
below the palette that neither it nor the requester uses yet (round
``2i`` delivers the reply). The whole run is ``d`` label rounds:

* a round's requests are the (A, B) pairs whose A has label ``i``; each
  B ranks its requesters by ``repr``, so the round is one sweep per
  inbox position, and within one position the Bs are distinct and the
  As are distinct — a sweep is one first-fit over a (pairs x palette)
  slice of the used-color mask, with one spare, never-used column that a
  pair with no free color picks;
* the accounting is closed form: ``2d`` rounds, and round ``2i - 1``
  and ``2i`` each deliver ``c_i`` messages, the number of A nodes with
  at least ``i`` labels.

A B node with no free color raises the per-node ``ColoringError``: the
first such B in graph order, in the earliest round that has one.

The exchange is multi-valued (a used set travels to B, one reply per
requester travels back), which the scalar halo exchange cannot carry: a
shard with a non-empty halo declines, and the run falls through to the
whole-graph program.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.errors import ColoringError
from repro.kernels import KernelUnsupported, register_program
from repro.kernels.program import ShardProgram
from repro.kernels.segments import MAX_MASK_CELLS, local_ids
from repro.local.network import RunResult
from repro.types import edge_key

#: the used-color containers ``set(...)`` reads as the per-node path does
_CONTAINERS = {list, tuple, set, frozenset}


class _MergeInput:
    """The cross-merge extras read against one graph's node order: the
    (A, B, label) pairs sorted by (A, label), each requester's ``repr``
    rank, and the used colors as (node, color) entries."""

    __slots__ = ("ids", "palette", "d", "pa", "pb", "label", "rank", "rows", "cols")


def _parse(extras: Any, ids: Sequence[Any], lookup: Callable[[Any], Optional[int]]) -> _MergeInput:
    """``extras`` for the graph whose node ``ids[i]`` has dense id ``i``;
    ``lookup`` maps a node id to its dense id (None outside the graph).
    Tables are read by lookup, exactly as ``Context.node_input`` reads
    them."""
    if not {"side", "palette", "d"} <= set(extras):
        raise KernelUnsupported("missing cross-merge extras")
    side = extras["side"]
    sides = list(map(side.get, ids)) if isinstance(side, dict) else None
    try:
        if sides is None or not set(sides) <= {"A", "B"}:
            raise KernelUnsupported("side is not A or B")
    except TypeError:  # an unhashable side value
        raise KernelUnsupported("side is not A or B")
    is_a = np.fromiter((s == "A" for s in sides), dtype=bool, count=len(ids))

    palette = extras["palette"]
    if type(palette) is not int or palette < 0:
        raise KernelUnsupported("palette is not a non-negative int")
    if len(ids) * (palette + 1) > MAX_MASK_CELLS:
        raise KernelUnsupported("merge mask too large")
    used = {} if extras.get("used") is None else extras["used"]
    bad_used = KernelUnsupported("used color is not an int below the palette")
    if not isinstance(used, dict):
        raise bad_used
    entries = [used.get(v, ()) for v in ids]
    if not set(map(type, entries)) <= _CONTAINERS:
        raise bad_used
    cols = list(itertools.chain.from_iterable(entries))
    if not set(map(type, cols)) <= {int} or (cols and not 0 <= min(cols) <= max(cols) < palette):
        raise bad_used

    labels = extras.get("labels")
    if labels is not None and not isinstance(labels, dict):
        raise KernelUnsupported("label keys are not 1..k")
    pa, pb, label = [], [], []
    for a in np.flatnonzero(is_a).tolist() if labels else ():
        row = labels.get(ids[a])
        if not row:
            continue  # the per-node A halts at initialization
        int_keys = type(row) is dict and set(map(type, row)) <= {int}
        if not int_keys or set(row) != set(range(1, len(row) + 1)):
            raise KernelUnsupported("label keys are not 1..k")
        for i in range(1, len(row) + 1):
            b = lookup(row[i])
            if b is None or is_a[b]:
                raise KernelUnsupported("label partner is not a B-side neighbor")
            pa.append(a)
            pb.append(b)
            label.append(i)

    inp = _MergeInput()
    inp.ids = ids
    inp.palette = palette
    inp.d = extras["d"]
    inp.pa = np.array(pa, dtype=np.int64)
    inp.pb = np.array(pb, dtype=np.int64)
    inp.label = np.array(label, dtype=np.int64)
    # ties in repr keep graph order, the order a per-node inbox fills in
    requesters = sorted(np.unique(inp.pa).tolist(), key=lambda a: repr(ids[a]))
    rank = np.zeros(len(ids), dtype=np.int64)
    rank[requesters] = np.arange(len(requesters), dtype=np.int64)
    inp.rank = rank[inp.pa]
    inp.rows = np.repeat(np.arange(len(ids), dtype=np.int64), list(map(len, entries)))
    inp.cols = np.array(cols, dtype=np.int64)
    return inp


class CrossMergeProgram(ShardProgram):
    """One step per label round; the worker state is the used-color mask
    and every pair's color."""

    name = "cross-merge"

    def intern_extras(self, extras, ids, lookup):
        # the node tables here are sides, used-color containers and label
        # rows whose values are nodes, not ints: all read by one parse
        return {"input": _parse(extras, ids, lookup)}

    # ---- coordinator half -------------------------------------------------
    def plan(self, manifest, extras, max_rounds):
        inp = extras["input"]
        d = inp.d
        if type(d) is not int:
            raise KernelUnsupported("d is not the largest label count")
        if not inp.pa.size:
            raise KernelUnsupported("no labelled A node")
        if 2 * d > max_rounds:
            raise KernelUnsupported("2d exceeds max_rounds")
        if d != int(inp.label.max()):
            raise KernelUnsupported("d is not the largest label count")
        # c_i: the A nodes with an i-th label, i = 1..d
        counts = np.bincount(inp.label, minlength=d + 1)[1:].tolist()
        plan = {
            "input": inp,
            "round_messages": [c for c in counts for _ in (0, 1)],
            "acc": {},
            "print_key": (inp.palette, d),
            "print_arrays": (inp.pa, inp.pb, inp.label, inp.rank, inp.rows, inp.cols),
        }
        return plan, None

    def init_payload(self, plan, shard):
        inp = plan["input"]
        pairs = slice(*inp.pa.searchsorted([shard.lo, shard.hi]))
        entries = slice(*inp.rows.searchsorted([shard.lo, shard.hi]))
        return {
            "pa": inp.pa[pairs] - shard.lo,
            "pb": inp.pb[pairs],
            "label": inp.label[pairs],
            "rank": inp.rank[pairs],
            "rows": inp.rows[entries] - shard.lo,
            "cols": inp.cols[entries],
            "palette": inp.palette,
        }

    def next_action(self, plan, completed, stats):
        failed = [s["exhausted"] for s in stats if "exhausted" in s]
        if failed:
            # the per-node run raises at the first failing B in graph
            # order; with every used color below the palette, a B with no
            # free color has exactly the whole palette blocked
            palette = plan["input"].palette
            raise ColoringError(
                f"merge palette {palette} exhausted at "
                f"{plan['input'].ids[min(failed)]!r} (|blocked|={palette})"
            )
        return completed + 1 if completed < plan["input"].d else None

    def result(self, plan, outputs, manifest):
        inp = plan["input"]
        ids = inp.ids
        pa, pb, colors = inp.pa.tolist(), inp.pb.tolist(), outputs.tolist()
        assigned = [{} for _ in ids]
        # A records its replies in label order ...
        for a, b, c in zip(pa, pb, colors):
            assigned[a][edge_key(ids[a], ids[b])] = c
        # ... and B its answers by round, then by requester repr
        for j in np.lexsort((inp.rank, inp.label)).tolist():
            a, b = pa[j], pb[j]
            assigned[b][edge_key(ids[b], ids[a])] = colors[j]
        round_messages = plan["round_messages"]
        return RunResult(
            rounds=len(round_messages),
            messages=sum(round_messages),
            outputs=assigned,
            round_messages=list(round_messages),
        )

    # ---- worker half ------------------------------------------------------
    def init_state(self, shard, payload):
        n_own = shard.n_own
        n_local = n_own + shard.n_halo
        pa = np.asarray(payload["pa"], dtype=np.int64)
        pb = local_ids(shard, np.asarray(payload["pb"], dtype=np.int64))
        src = np.repeat(np.arange(n_own, dtype=np.int64), np.diff(np.asarray(shard.indptr)))
        edges = src * n_local + np.asarray(shard.indices, dtype=np.int64)
        if (pb < 0).any() or not np.isin(pa * n_local + pb, edges).all():
            return {}, {"decline": "label partner is not a B-side neighbor"}
        if shard.n_halo:
            return {}, {"decline": "non-empty halo"}
        label = np.asarray(payload["label"], dtype=np.int64)
        # a B's requesters of one round in rank order are its inbox
        # positions; the sweep order is (round, position, B)
        by_inbox = np.lexsort((payload["rank"], pb, label))
        slot = np.arange(pa.size, dtype=np.int64)
        first = np.ones(pa.size, dtype=bool)
        first[1:] = (np.diff(label[by_inbox]) != 0) | (np.diff(pb[by_inbox]) != 0)
        pos = np.empty(pa.size, dtype=np.int64)
        pos[by_inbox] = slot - np.maximum.accumulate(np.where(first, slot, 0))
        order = np.lexsort((pb, pos, label))
        mask = np.zeros((n_own, int(payload["palette"]) + 1), dtype=bool)
        mask[np.asarray(payload["rows"], dtype=np.int64), payload["cols"]] = True
        state = {
            "mask": mask,
            "order": order,
            "label": label[order],
            "pos": pos[order],
            "pa": pa[order],
            "pb": pb[order],
            "colors": np.full(pa.size, -1, dtype=np.int64),
        }
        return state, {}

    def boundary(self, shard, state):
        # only halo-free shards run, so nothing is ever exchanged
        return np.zeros(np.asarray(shard.boundary).size, dtype=np.int64)

    def step(self, shard, state, halo_vals, arg):
        label, pos, mask = state["label"], state["pos"], state["mask"]
        lo, hi = label.searchsorted([arg, arg + 1])
        cuts = (np.flatnonzero(np.diff(pos[lo:hi])) + lo + 1).tolist()
        palette = mask.shape[1] - 1
        failed = []
        for start, stop in zip([lo, *cuts], [*cuts, hi]):
            a, b = state["pa"][start:stop], state["pb"][start:stop]
            # a pair with no free color picks the spare column; the round
            # then raises, so its writes are never read
            color = (mask[b] | mask[a]).argmin(axis=1)
            mask[b, color] = True
            mask[a, color] = True
            state["colors"][state["order"][start:stop]] = color
            failed.extend(b[color == palette].tolist())
        return {"exhausted": shard.lo + min(failed)} if failed else {}

    def finalize(self, shard, state):
        return state["colors"]


register_program(CrossMergeProgram())
