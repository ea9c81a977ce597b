"""Timeline rendering of trace events."""

from repro.obs import render_events, summarize_events
from repro.obs.render import timeline_lanes


def _events():
    return [
        {"v": 1, "kind": "meta", "name": "trace.open", "ts_ms": 0.0, "pid": 1, "seq": 0},
        {"v": 1, "kind": "span", "name": "registry.run", "ts_ms": 5.0,
         "dur_ms": 4.0, "pid": 1, "seq": 1, "fields": {"algorithm": "linial"}},
        {"v": 1, "kind": "point", "name": "engine.round", "ts_ms": 6.0,
         "pid": 2, "seq": 0, "fields": {"round": 1}},
        {"v": 1, "kind": "span", "name": "registry.run", "ts_ms": 9.0,
         "dur_ms": 2.0, "pid": 2, "seq": 1},
    ]


class TestRenderEvents:
    def test_groups_by_pid_in_seq_order(self):
        text = render_events(_events())
        lines = text.splitlines()
        assert lines[0] == "process 1: 1 events (1 spans)"
        assert "registry.run" in lines[1]
        assert lines[2] == "process 2: 2 events (1 spans)"
        assert "engine.round" in lines[3]

    def test_meta_events_hidden_but_counted_out(self):
        assert "trace.open" not in render_events(_events())

    def test_truncates_with_overflow_line(self):
        text = render_events(_events(), max_events=1)
        assert "... 1 more events" in text

    def test_name_prefix_filter(self):
        text = render_events(_events(), name_prefix="engine.")
        assert "engine.round" in text
        assert "registry.run" not in text

    def test_empty(self):
        assert render_events([]) == "(no events)"


def _shard_events():
    """A coordinator span plus shard.worker.* spans from two worker
    pids — all emitted from the coordinator pid, but carrying the
    worker's pid in fields."""
    return [
        {"v": 1, "kind": "span", "name": "registry.run", "ts_ms": 20.0,
         "dur_ms": 18.0, "pid": 10, "seq": 0},
        {"v": 1, "kind": "span", "name": "shard.worker.init", "ts_ms": 4.0,
         "dur_ms": 2.0, "pid": 10, "seq": 1,
         "fields": {"shard": 0, "worker_pid": 101}},
        {"v": 1, "kind": "span", "name": "shard.worker.init", "ts_ms": 5.0,
         "dur_ms": 2.5, "pid": 10, "seq": 2,
         "fields": {"shard": 1, "worker_pid": 102}},
        {"v": 1, "kind": "span", "name": "shard.worker.step", "ts_ms": 9.0,
         "dur_ms": 1.0, "pid": 10, "seq": 3,
         "fields": {"shard": 0, "worker_pid": 101, "round": 1}},
    ]


class TestWorkerLanes:
    def test_shard_spans_get_one_lane_per_worker_pid(self):
        lanes = timeline_lanes(_shard_events())
        labels = [label for label, _ in lanes]
        assert labels == ["process 10", "shard worker 101", "shard worker 102"]
        by_label = dict(lanes)
        assert [e["name"] for e in by_label["shard worker 101"]] == [
            "shard.worker.init",
            "shard.worker.step",
        ]
        assert len(by_label["process 10"]) == 1

    def test_render_events_shows_worker_lanes(self):
        text = render_events(_shard_events())
        assert "shard worker 101: 2 events (2 spans)" in text
        assert "shard worker 102: 1 events (1 spans)" in text
        assert "process 10: 1 events (1 spans)" in text

    def test_shard_span_without_worker_pid_stays_in_process_lane(self):
        events = [
            {"v": 1, "kind": "span", "name": "shard.plan", "ts_ms": 1.0,
             "dur_ms": 0.5, "pid": 10, "seq": 0, "fields": {"shards": 2}},
        ]
        assert [label for label, _ in timeline_lanes(events)] == ["process 10"]

    def test_meta_events_dropped_from_lanes(self):
        events = [
            {"v": 1, "kind": "meta", "name": "trace.open", "ts_ms": 0.0,
             "pid": 10, "seq": 0},
        ]
        assert timeline_lanes(events) == []


class TestSummarizeEvents:
    def test_counts_and_span_time(self):
        summary = summarize_events(_events())
        assert summary["events"] == 3
        assert summary["names"] == {"registry.run": 2, "engine.round": 1}
        assert summary["span_ms"] == {"registry.run": 6.0}
        assert summary["pids"] == [1, 2]


class TestEngineRoundTimeline:
    """The per-round view of one run is its ``engine.round`` points."""

    def test_long_runs_truncate_with_an_overflow_line(self):
        import networkx as nx

        from repro import obs
        from repro.engine import get_engine
        from repro.substrates.linial import LinialAlgorithm

        graph = nx.cycle_graph(30)
        extras = {"initial_coloring": {v: 30 * v for v in graph}, "m0": 900}
        sink = obs.MemorySink()
        with obs.collect(trace=sink):
            result = get_engine("reference").run(graph, LinialAlgorithm(), extras=extras)
        assert result.rounds > 1
        lines = render_events(sink.events, max_events=1, name_prefix="engine.round").splitlines()
        assert lines[0].endswith(f": {result.rounds} events (0 spans)")
        assert lines[1].endswith(f"round=1 sent={result.round_messages[0]}")
        assert lines[2:] == [f"  ... {result.rounds - 1} more events"]
