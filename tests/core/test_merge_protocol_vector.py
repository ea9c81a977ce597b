"""The Lemma 5.1 protocol tests, rerun under the vector engine: every
merge there dispatches to the cross-merge program, which must pass the
same tests the per-node protocol passes, and never fall back."""

import pytest

from repro import obs
from repro.engine import use_engine

from tests.core.test_merge_protocol import (  # noqa: F401 - collected here again
    TestSchedule,
    TestStress,
    TestUsedColorPropagation,
)


@pytest.fixture(autouse=True)
def _vector_engine():
    with obs.collect() as runtime, use_engine("vector"):
        yield
    counters = runtime.snapshot()["counters"]
    assert counters.get("kernel.dispatch[kernel=cross-merge]", 0) >= 1
    assert not any(key.startswith("kernel.fallback") for key in counters)
