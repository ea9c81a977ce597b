"""The ObsRuntime: counters, timers, spans, the disabled path, and the
collect() install/restore contract."""

import sys
import time

import pytest

from repro import obs
from repro.obs import MemorySink, ObsRuntime
from repro.obs.core import counter_key


class TestCounterKeys:
    def test_unlabeled(self):
        assert counter_key("engine.runs", {}) == "engine.runs"

    def test_labels_sorted(self):
        key = counter_key("kernel.dispatch", {"kernel": "linial", "backend": "numpy"})
        assert key == "kernel.dispatch[backend=numpy,kernel=linial]"


class TestRuntime:
    def test_incr_accumulates_per_label(self):
        rt = ObsRuntime()
        rt.incr("engine.rounds", 3, engine="vector")
        rt.incr("engine.rounds", 2, engine="vector")
        rt.incr("engine.rounds", 7, engine="reference")
        snap = rt.snapshot()
        assert snap["counters"]["engine.rounds[engine=vector]"] == 5
        assert snap["counters"]["engine.rounds[engine=reference]"] == 7

    def test_observe_folds_count_total_max(self):
        rt = ObsRuntime()
        rt.observe("step_ms", 2.0)
        rt.observe("step_ms", 5.0)
        rt.observe("step_ms", 1.0)
        assert rt.snapshot()["timers"]["step_ms"] == [3, 8.0, 5.0]

    def test_gauge_keeps_latest(self):
        rt = ObsRuntime()
        rt.gauge("window", 4)
        rt.gauge("window", 7)
        assert rt.snapshot()["gauges"]["window"] == 7

    def test_merge_sums_counters_and_timers(self):
        a, b = ObsRuntime(), ObsRuntime()
        a.incr("x")
        a.observe("t", 3.0)
        b.incr("x", 2)
        b.incr("y")
        b.observe("t", 5.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"] == {"x": 3, "y": 1}
        assert snap["timers"]["t"] == [2, 8.0, 5.0]

    def test_merge_none_is_noop(self):
        rt = ObsRuntime()
        rt.incr("x")
        rt.merge(None)
        rt.merge({})
        assert rt.snapshot()["counters"] == {"x": 1}


class _NoOpAccessors:
    """``obs.incr``/``obs.span`` with every body removed: the floor a
    disabled accessor is measured against."""

    class _Span:
        __slots__ = ()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

    _SPAN = _Span()

    def incr(self, name, value=1, **fields):
        return None

    def span(self, name, **fields):
        return self._SPAN


class TestDisabledPath:
    def test_accessors_are_noops_without_runtime(self):
        assert obs.active() is None
        assert not obs.enabled()
        obs.incr("never")  # must not raise
        obs.gauge("never", 1)
        obs.event("never")
        with obs.span("never"):
            pass

    def test_disabled_span_is_shared_instance(self):
        assert obs.span("a") is obs.span("b")

    def test_disabled_accessors_call_nothing(self):
        # The disabled path is one global load and a None check, paid
        # unconditionally by every engine, kernel and registry hot loop:
        # beyond the accessor itself (and the shared null span's
        # enter/exit) it makes no call at all, Python or C.
        def accessors():
            obs.incr("probe.counter", 1, label="x")
            with obs.span("probe.span"):
                pass

        calls = []

        def record(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)
            elif event == "c_call":
                calls.append(arg.__name__)

        assert obs.active() is None
        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            accessors()
        finally:
            sys.setprofile(previous)
        assert calls == [
            "accessors", "incr", "span", "__enter__", "__exit__", "setprofile",
        ]

    def test_disabled_accessors_cost_no_more_than_a_noop_call(self):
        # Each accessor is timed against a do-nothing twin of the same
        # call shape, in 100 interleaved batches of 1,000 calls; the
        # fastest batch of each is the one no other process slowed down.
        # Absolute times move 2x with host load (a bare no-op ``with``
        # takes 250-550 ns on a shared 2-vCPU host); the ratio does not.
        assert obs.active() is None
        batch = 1_000
        noop = _NoOpAccessors()

        def incrs(api):
            for _ in range(batch):
                api.incr("probe.counter", 1, label="x")

        def spans(api):
            for _ in range(batch):
                with api.span("probe.span"):
                    pass

        for body in (incrs, spans):
            best = [float("inf"), float("inf")]
            for _ in range(100):
                for i, api in enumerate((obs, noop)):
                    started = time.perf_counter()
                    body(api)
                    best[i] = min(best[i], time.perf_counter() - started)
            ratio = best[0] / best[1]
            assert ratio <= 1.5, (
                f"disabled {body.__name__}: {best[0] / batch * 1e9:.0f} ns per "
                f"call, {ratio:.2f}x a no-op call"
            )


class TestCollect:
    def test_installs_and_restores(self):
        assert obs.active() is None
        with obs.collect() as rt:
            assert obs.active() is rt
            obs.incr("inside")
        assert obs.active() is None
        assert rt.snapshot()["counters"] == {"inside": 1}

    def test_nested_collect_shadows(self):
        with obs.collect() as outer:
            obs.incr("outer")
            with obs.collect() as inner:
                obs.incr("inner")
            assert obs.active() is outer
            obs.incr("outer")
        assert outer.snapshot()["counters"] == {"outer": 2}
        assert inner.snapshot()["counters"] == {"inner": 1}

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.collect():
                raise RuntimeError("boom")
        assert obs.active() is None

    def test_span_times_and_emits(self):
        sink = MemorySink()
        with obs.collect(trace=sink) as rt:
            with obs.span("work", label="x"):
                pass
        assert rt.snapshot()["timers"]["work"][0] == 1
        (event,) = [e for e in sink.events if e.get("kind") == "span"]
        assert event["name"] == "work"
        assert event["fields"] == {"label": "x"}
        assert event["dur_ms"] >= 0

    def test_span_records_error_class(self):
        sink = MemorySink()
        with obs.collect(trace=sink):
            with pytest.raises(ValueError):
                with obs.span("work"):
                    raise ValueError("bad")
        (event,) = [e for e in sink.events if e.get("kind") == "span"]
        assert event["fields"]["error"] == "ValueError"


class TestTraceEnv:
    @pytest.mark.parametrize("raw", ["", "0", "false", "off", "no", "  "])
    def test_falsy_values_disable(self, raw, monkeypatch):
        monkeypatch.setenv(obs.TRACE_ENV, raw)
        assert obs.trace_path_from_env() is None

    def test_unset_disables(self, monkeypatch):
        monkeypatch.delenv(obs.TRACE_ENV, raising=False)
        assert obs.trace_path_from_env() is None

    def test_path_passes_through(self, monkeypatch):
        monkeypatch.setenv(obs.TRACE_ENV, "/tmp/t.jsonl")
        assert obs.trace_path_from_env() == "/tmp/t.jsonl"
