"""Tests for spans, trace events, sampling, the JSONL sink, and the
exporters (Prometheus text + run reports)."""

import json

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    TraceConfig,
    TraceSink,
    collect,
    forensics,
    prometheus_text,
    read_trace,
    span,
)
from repro.obs.report import load_journal_rows, render_report

TRACED = TraceConfig()


class TestTraceConfig:
    def test_defaults(self):
        cfg = TraceConfig()
        assert cfg.every_n == 1
        assert not cfg.failures_only

    def test_every_n_validated(self):
        with pytest.raises(ValueError):
            TraceConfig(every_n=0)

    def test_max_events_validated(self):
        with pytest.raises(ValueError):
            TraceConfig(max_events=-1)


class TestSpans:
    def test_untraced_span_is_noop(self):
        reg = MetricsRegistry()
        with reg.span("engine.task", task=1):
            pass
        assert reg.span_paths() == []
        assert reg.events == []

    def test_span_records_stat_and_event(self):
        reg = MetricsRegistry(trace=TRACED)
        with reg.span("engine.task", task=3):
            pass
        stat = reg.span_stat("engine.task")
        assert stat is not None and stat.count == 1
        [event] = reg.events
        assert event["kind"] == "span"
        assert event["path"] == "engine.task"
        assert event["attrs"] == {"task": 3}

    def test_nested_spans_build_paths(self):
        reg = MetricsRegistry(trace=TRACED)
        with reg.span("engine.run"):
            with reg.span("engine.task"):
                with reg.span("sim.point"):
                    pass
        assert "engine.run/engine.task/sim.point" in reg.span_paths()

    def test_module_level_span_hits_active_registry(self):
        with collect(trace=TRACED) as reg:
            with span("sim.point", distance_m=2.0):
                pass
        assert reg.span_paths() == ["sim.point"]

    def test_span_on_untraced_global_registry_is_noop(self):
        with collect() as reg:
            with span("sim.point"):
                pass
        assert reg.span_paths() == []


class TestPacketSampling:
    def _emit(self, reg, stages):
        for stage in stages:
            reg.packet_event("phy.wifi", stage)

    def test_every_packet_by_default(self):
        reg = MetricsRegistry(trace=TRACED)
        self._emit(reg, [forensics.OK, forensics.CRC_FAIL])
        assert len(reg.events) == 2
        assert [e["seq"] for e in reg.events] == [1, 2]

    def test_every_n_samples(self):
        reg = MetricsRegistry(trace=TraceConfig(every_n=3))
        self._emit(reg, [forensics.OK] * 7)
        assert [e["seq"] for e in reg.events] == [1, 4, 7]

    def test_failures_only_drops_ok(self):
        reg = MetricsRegistry(trace=TraceConfig(failures_only=True))
        self._emit(reg, [forensics.OK, forensics.SYNC_FAIL, forensics.OK])
        [event] = reg.events
        assert event["stage"] == forensics.SYNC_FAIL

    def test_untraced_registry_records_nothing(self):
        reg = MetricsRegistry()
        self._emit(reg, [forensics.OK])
        assert reg.events == []

    def test_max_events_drop_counted(self):
        reg = MetricsRegistry(trace=TraceConfig(max_events=2))
        self._emit(reg, [forensics.OK] * 5)
        assert len(reg.events) == 2
        assert reg.counter("trace.events.dropped") == 3


class TestSnapshotAndMerge:
    def test_untraced_snapshot_keeps_legacy_shape(self):
        reg = MetricsRegistry()
        with reg.span("engine.task"):
            pass
        reg.reset()
        assert reg.snapshot() == {"counters": {}}

    def test_traced_snapshot_round_trips(self):
        reg = MetricsRegistry(trace=TRACED)
        with reg.span("engine.task"):
            reg.packet_event("phy.wifi", forensics.OK)
        snap = json.loads(json.dumps(reg.snapshot()))  # JSON-safe
        # Span paths aggregate as histograms, like timed blocks.
        span_stat = snap["spans"]["engine.task"]
        assert span_stat["count"] == 1
        assert span_stat["min"] == span_stat["max"] == span_stat["sum"]
        assert sum(span_stat["counts"]) == 1
        assert len(snap["events"]) == 2

    def test_merge_reroots_spans_under_prefix(self):
        worker = MetricsRegistry(trace=TRACED)
        with worker.span("engine.task", task=0):
            pass
        parent = MetricsRegistry(trace=TRACED)
        parent.merge_snapshot(worker.snapshot(), span_prefix="engine.run")
        assert parent.span_paths() == ["engine.run/engine.task"]
        [event] = parent.events
        assert event["path"] == "engine.run/engine.task"


class TestTraceSink:
    def test_writes_fingerprint_stamped_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceSink(str(path), "abc123") as sink:
            sink.write({"kind": "packet", "stage": "ok"})
            sink.write_all([{"kind": "span", "path": "engine.run"}])
        assert sink.n_written == 2
        records = read_trace(str(path))
        assert all(r["spec"] == "abc123" for r in records)
        assert [r["kind"] for r in records] == ["packet", "span"]

    def test_read_trace_filters_by_fingerprint(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceSink(str(path), "runA") as sink:
            sink.write({"kind": "packet"})
        with TraceSink(str(path), "runB") as sink:  # append mode
            sink.write({"kind": "packet"})
        assert len(read_trace(str(path))) == 2
        assert len(read_trace(str(path), fingerprint="runB")) == 1

    def test_read_trace_skips_torn_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceSink(str(path), "runA") as sink:
            sink.write({"kind": "packet"})
        with open(path, "a") as fh:
            fh.write('{"kind": "packet", "trunc')
        assert len(read_trace(str(path))) == 1


class TestPrometheusExport:
    def _snapshot(self):
        reg = MetricsRegistry(trace=TRACED)
        reg.inc("phy.wifi.stage.ok", 3)
        reg.observe("phy.wifi.decode.seconds", 0.25)
        with reg.span("engine.run"):
            pass
        return reg.snapshot()

    def test_counters_timers_spans_exposed(self):
        text = prometheus_text(self._snapshot())
        assert "repro_phy_wifi_stage_ok_total 3" in text
        assert "repro_phy_wifi_decode_seconds_count 1" in text
        assert 'path="engine.run"' in text

    def test_empty_timer_has_no_min_line(self):
        snap = MetricsRegistry().snapshot()
        snap["histograms"] = {"empty.seconds": Histogram().to_dict()}
        text = prometheus_text(snap)
        assert "repro_empty_seconds_count 0" in text
        assert "empty_seconds_min" not in text
        assert "empty_seconds_max" not in text
        assert "inf" not in text


class TestReport:
    def _record(self):
        return {
            "metrics": {"counters": {
                "phy.zigbee.stage.sync_fail": 1,
                "phy.zigbee.stage.crc_fail": 2,
                "phy.zigbee.packets": 3,
                "engine.tasks.ok": 2,
            }},
            "timing": {"wall_time_s": 0.5, "n_jobs": 2, "n_tasks": 2,
                       "n_failed": 0, "packets_simulated": 3,
                       "packets_per_second": 6.0},
            "tasks": [{"index": 0, "task": 2.0, "status": "ok",
                       "stage_counts": {"crc_fail": 2}},
                      {"index": 1, "task": 30.0, "status": "ok",
                       "stage_counts": {"sync_fail": 1}}],
        }

    def test_text_report_sections(self):
        text = render_report(self._record())
        assert "Run summary" in text
        assert "Decode forensics" in text
        assert "zigbee" in text
        assert "Per-point breakdown" in text

    def test_markdown_report_renders_tables(self):
        text = render_report(self._record(), fmt="markdown")
        assert "# Run report" in text
        assert "| radio" in text

    def test_slowest_spans_from_trace(self):
        trace = [{"kind": "span", "path": "engine.run/engine.task",
                  "dur_s": 0.5, "attrs": {"task": 1}},
                 {"kind": "span", "path": "engine.run", "dur_s": 0.9}]
        text = render_report(None, trace, top=1)
        assert "engine.run" in text
        assert "engine.task" not in text  # only the top-1 span shown

    def test_span_aggregates_without_trace(self):
        reg = MetricsRegistry(trace=TRACED)
        with reg.span("engine.run"):
            pass
        record = self._record()
        record["metrics"]["spans"] = reg.snapshot()["spans"]
        text = render_report(record)
        assert "max (s)" in text
        assert "engine.run" in text

    def test_legacy_record_with_timers_renders(self):
        # Records stored before timers folded into histograms: a
        # ``timers`` key, TimerStat-shaped span paths, and histograms
        # without min/max.
        record = self._record()
        record["metrics"].update(
            timers={"engine.task": {"count": 2, "total_s": 0.4,
                                    "mean_s": 0.2, "min_s": 0.1,
                                    "max_s": 0.3}},
            spans={"engine.run": {"count": 1, "total_s": 0.9,
                                  "mean_s": 0.9, "min_s": 0.9,
                                  "max_s": 0.9}},
            histograms={"engine.task.seconds": {
                "buckets": [1.0], "counts": [2, 0], "sum": 0.4,
                "count": 2}})
        text = render_report(record)
        assert "Latency histograms" in text
        assert "engine.run" in text and "0.9" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report({}, fmt="html")

    def test_journal_rows_drive_per_point_table(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        rows = [{"index": 0, "task": 2.0, "status": "ok", "point": {},
                 "stage_counts": {"ok": 4}},
                {"index": 1, "task": 6.0, "status": "ok", "point": {},
                 "stage_counts": {"crc_fail": 4}}]
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
            fh.write("{torn")
        loaded = load_journal_rows(str(path))
        assert [r["index"] for r in loaded] == [0, 1]
        text = render_report(None, None, loaded)
        assert "checkpoint journal" in text

    def test_missing_journal_is_empty(self, tmp_path):
        assert load_journal_rows(str(tmp_path / "nope.jsonl")) == []
