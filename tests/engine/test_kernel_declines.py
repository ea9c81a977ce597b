"""Decline parity on the kernel path.

A kernel that declines an input must leave the run exactly as the
per-node semantics define it: ``VectorEngine`` (which tries the kernel
and falls back) and ``ReferenceEngine`` (which never consults kernels)
give an identical ``RunResult`` or raise the same exception type with
the same message. The decline itself is disclosed through the
``kernel.fallback[kernel=...,reason=...]`` counter, whose reason strings
are stable labels.
"""

import pytest

from repro import obs
from repro.engine import get_engine
from repro.graphcore import build_grid
from repro.substrates.cole_vishkin import ColeVishkinAlgorithm, cv_iterations
from repro.substrates.defective import DefectiveRefinementAlgorithm
from repro.substrates.hpartition import _Peeler
from repro.substrates.linial import LinialAlgorithm, linial_schedule
from repro.substrates.reduction import BasicReductionAlgorithm, BlockedReductionAlgorithm

GRAPH = build_grid(20, 20)
N = GRAPH.n
DENSE = {v: v for v in range(N)}
_Q0 = linial_schedule(N, GRAPH.max_degree)[0][0]
# the grid's rows as rooted paths: every node's parent is its left neighbor
ROWS = {v: (v - 1 if v % 20 else None) for v in range(N)}
_CV = {"parent": ROWS, "initial_coloring": DENSE, "iterations": cv_iterations(N)}
# a stalled peel runs to the round budget on the per-node path
MAX_ROUNDS = 50

# (algorithm, extras, the decline reason the kernel must disclose)
CASES = [
    pytest.param(LinialAlgorithm(), {"m0": N}, "missing linial extras",
                 id="linial-missing-extras"),
    pytest.param(LinialAlgorithm(), {"initial_coloring": {**DENSE, N + 3: 0}, "m0": N},
                 "per-node table is not a total dense map", id="linial-non-dense"),
    pytest.param(LinialAlgorithm(),
                 {"initial_coloring": {**DENSE, 0: _Q0.q ** (_Q0.d + 1)}, "m0": N},
                 "color does not fit in q^(d+1)", id="linial-color-too-large"),
    pytest.param(DefectiveRefinementAlgorithm(), {"initial_coloring": DENSE, "q": 5},
                 "missing defective-refinement extras", id="defective-missing-extras"),
    pytest.param(DefectiveRefinementAlgorithm(),
                 {"initial_coloring": {**DENSE, N + 3: 0}, "q": 23, "d": 1},
                 "per-node table is not a total dense map", id="defective-non-dense"),
    pytest.param(DefectiveRefinementAlgorithm(),
                 {"initial_coloring": {**DENSE, 0: 23 ** 2}, "q": 23, "d": 1},
                 "color does not fit in q^(d+1)", id="defective-color-too-large"),
    pytest.param(DefectiveRefinementAlgorithm(), {"initial_coloring": DENSE, "q": 0, "d": 1},
                 "degenerate (q, d)", id="defective-degenerate-q"),
    pytest.param(DefectiveRefinementAlgorithm(), {"initial_coloring": DENSE, "q": 23, "d": -1},
                 "degenerate (q, d)", id="defective-degenerate-d"),
    pytest.param(_Peeler(), {}, "missing threshold", id="peel-missing-threshold"),
    pytest.param(_Peeler(), {"threshold": "2"}, "non-numeric threshold",
                 id="peel-string-threshold"),
    pytest.param(_Peeler(), {"threshold": True}, "non-numeric threshold",
                 id="peel-bool-threshold"),
    pytest.param(ColeVishkinAlgorithm(), {"parent": ROWS, "initial_coloring": DENSE},
                 "missing cole-vishkin extras", id="cv-missing-extras"),
    pytest.param(ColeVishkinAlgorithm(), {**_CV, "parent": list(ROWS.values())},
                 "parent map is not a dict", id="cv-non-dict-parent"),
    # node 5's parent is a far-away node: only the CSR shows the decline,
    # so the sharded runtime learns it from the workers' init stats
    pytest.param(ColeVishkinAlgorithm(), {**_CV, "parent": {**ROWS, 5: 300}},
                 "parent is not a neighbor", id="cv-parent-not-neighbor"),
    pytest.param(ColeVishkinAlgorithm(), {**_CV, "iterations": -1},
                 "negative iterations", id="cv-negative-iterations"),
    # node 1 and its parent 0 xor to int64's minimum
    pytest.param(ColeVishkinAlgorithm(),
                 {**_CV, "initial_coloring": {**DENSE, 0: -2 ** 63, 1: 0}},
                 "color bit width out of range", id="cv-wide-colors"),
    pytest.param(BasicReductionAlgorithm(), {"coloring": DENSE, "m": N},
                 "missing basic-reduction extras", id="basic-missing-extras"),
    pytest.param(BasicReductionAlgorithm(), {"coloring": DENSE, "m": N, "target": 0},
                 "non-positive target", id="basic-non-positive-target"),
    pytest.param(BasicReductionAlgorithm(), {"coloring": DENSE, "m": N - 5, "target": 5},
                 "color >= m", id="basic-color-at-least-m"),
    pytest.param(BlockedReductionAlgorithm(), {"coloring": DENSE, "block": 4, "palette": 5},
                 "degenerate (block, palette)", id="kw-degenerate"),
]


def _outcome(engine, algorithm, extras):
    try:
        result = get_engine(engine).run(
            GRAPH, algorithm, extras=dict(extras), max_rounds=MAX_ROUNDS
        )
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome under test
        return ("raised", type(exc), str(exc))
    return (
        "ran",
        result.outputs,
        result.rounds,
        result.messages,
        list(result.round_messages),
    )


@pytest.mark.parametrize("algorithm,extras,reason", CASES)
def test_decline_matches_reference_and_is_disclosed(algorithm, extras, reason):
    with obs.collect() as runtime:
        vector = _outcome("vector", algorithm, extras)
    reference = _outcome("reference", algorithm, extras)
    assert vector == reference
    counters = runtime.snapshot()["counters"]
    key = f"kernel.fallback[kernel={algorithm.name},reason={reason}]"
    assert counters.get(key) == 1, sorted(counters)
    assert not any(k.startswith("kernel.dispatch") for k in counters)
