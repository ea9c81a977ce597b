"""JSONL trace sinks and the event schema validator."""

import json
import os

from repro import obs
from repro.obs import (
    EVENT_SCHEMA_VERSION,
    JsonlTraceSink,
    load_events,
    validate_event,
    validate_trace_file,
)


class TestJsonlTraceSink:
    def test_writes_meta_header_first(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceSink(path):
            pass
        events = load_events(path)
        assert events[0]["kind"] == "meta"
        assert events[0]["name"] == "trace.open"
        assert events[0]["fields"]["schema"] == EVENT_SCHEMA_VERSION

    def test_stamps_envelope(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.emit({"kind": "point", "name": "x", "ts_ms": 1.0})
        header, point = load_events(path)
        assert point["v"] == EVENT_SCHEMA_VERSION
        assert point["pid"] == os.getpid()
        assert [header["seq"], point["seq"]] == [0, 1]

    def test_append_mode_preserves_existing_events(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.emit({"kind": "point", "name": "first", "ts_ms": 1.0})
        with JsonlTraceSink(path) as sink:
            sink.emit({"kind": "point", "name": "second", "ts_ms": 1.0})
        names = [e["name"] for e in load_events(path)]
        assert names == ["trace.open", "first", "trace.open", "second"]

    def test_emit_after_close_is_noop(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlTraceSink(path)
        sink.close()
        sink.close()  # idempotent
        sink.emit({"kind": "point", "name": "late", "ts_ms": 1.0})
        assert [e["name"] for e in load_events(path)] == ["trace.open"]

    def test_written_file_validates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with obs.collect(trace_path=str(path)):
            obs.event("round", round=1, sent=4)
            with obs.span("kernel.linial", n=100):
                pass
        count, problems = validate_trace_file(path)
        assert problems == []
        assert count == 3  # meta + point + span

    def test_load_events_skips_truncated_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.emit({"kind": "point", "name": "ok", "ts_ms": 1.0})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "point", "na')  # SIGKILL mid-write
        assert [e["name"] for e in load_events(path)] == ["trace.open", "ok"]
        count, problems = validate_trace_file(path)
        assert count == 2
        assert len(problems) == 1 and "not JSON" in problems[0]


class TestValidateEvent:
    def _valid(self):
        return {
            "v": EVENT_SCHEMA_VERSION,
            "kind": "point",
            "name": "x",
            "ts_ms": 1.0,
            "pid": 1,
            "seq": 0,
        }

    def test_valid_event(self):
        assert validate_event(self._valid()) == []

    def test_optional_keys_allowed(self):
        event = dict(self._valid(), dur_ms=2.0, fields={"a": 1, "b": "s"})
        assert validate_event(event) == []

    def test_missing_required_key(self):
        event = self._valid()
        del event["ts_ms"]
        assert any("ts_ms" in p for p in validate_event(event))

    def test_unknown_top_level_key_rejected(self):
        event = dict(self._valid(), extra=1)
        assert any("unknown keys" in p for p in validate_event(event))

    def test_future_schema_version_rejected(self):
        event = dict(self._valid(), v=EVENT_SCHEMA_VERSION + 1)
        assert any("schema version" in p for p in validate_event(event))

    def test_unknown_kind_rejected(self):
        event = dict(self._valid(), kind="mystery")
        assert any("unknown kind" in p for p in validate_event(event))

    def test_non_scalar_field_values_rejected(self):
        event = dict(self._valid(), fields={"nested": {"a": 1}})
        assert any("non-scalar" in p for p in validate_event(event))

    def test_non_object_event(self):
        assert validate_event([1, 2]) != []


class TestValidateTraceFile:
    def test_problems_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {
            "v": EVENT_SCHEMA_VERSION, "kind": "point", "name": "x",
            "ts_ms": 1.0, "pid": 1, "seq": 0,
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(good) + "\n")
            handle.write(json.dumps(dict(good, kind="nope")) + "\n")
        count, problems = validate_trace_file(path)
        assert count == 2
        assert len(problems) == 1 and problems[0].startswith("line 2:")
