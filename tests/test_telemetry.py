"""Telemetry registry and report units: counters, spans, traces, round-trips.

Covers the process-local :class:`~repro.telemetry.MetricsRegistry`
contract (disabled no-ops, bounded span ring, cumulative-snapshot merge
semantics) and the report layer (JSON round-trip, Chrome trace-event
schema, terminal summary). Integration through the cluster runtime lives
in ``test_telemetry_cluster.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.telemetry import (
    BYTE_BUCKETS,
    TIME_BUCKETS,
    MetricsRegistry,
    RunReport,
    build_report,
    chrome_trace,
    current_label,
    load_report,
    metrics,
    pop_label,
    push_label,
    summarize,
    write_metrics,
    write_trace,
)
from repro.telemetry.core import _NULL_SPAN


@pytest.fixture(autouse=True)
def clean_global_registry():
    """The module singleton must never leak state between tests."""
    metrics.reset()
    metrics.set_enabled(False)
    yield
    metrics.reset()
    metrics.set_enabled(False)


class TestRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("a")
        reg.inc("a", 2.5)
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 7.0)  # last write wins
        reg.observe("h", 0.02)
        reg.observe("h", 500.0)  # beyond the last edge -> overflow slot
        assert reg.counter_value("a") == 3.5
        assert reg.counter_value("never") == 0.0
        assert reg.gauge_value("g") == 7.0
        assert reg.gauge_value("never") is None
        hist = reg.snapshot()["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(500.02)
        assert hist["min"] == 0.02
        assert hist["max"] == 500.0
        assert hist["counts"][-1] == 1  # the overflow observation
        assert sum(hist["counts"]) == 2

    def test_histogram_bucket_assignment(self):
        reg = MetricsRegistry(enabled=True)
        reg.observe("b", 100.0, buckets=BYTE_BUCKETS)
        hist = reg.snapshot()["histograms"]["b"]
        # 100 bytes lands in the first bucket with edge >= 100 (256)
        assert hist["counts"][BYTE_BUCKETS.index(256)] == 1

    def test_disabled_is_a_no_op(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("a")
        reg.set_gauge("g", 1.0)
        reg.observe("h", 0.5)
        with reg.span("s"):
            pass
        reg.record_span("s2", 0.0, 1.0)
        reg.merge_source("w0", {"counters": {"x": 1}})
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}
        assert snap["spans"] == []
        assert reg.sources() == {}
        # and the disabled span is the shared singleton: no allocation
        assert reg.span("s") is _NULL_SPAN

    def test_span_records_name_duration_attrs(self):
        reg = MetricsRegistry(enabled=True)
        with reg.span("work", task=3):
            pass
        ((name, start, duration, attrs),) = reg.snapshot()["spans"]
        assert name == "work"
        assert duration >= 0.0
        assert start > 0.0
        assert attrs == {"task": 3}

    def test_span_ring_is_bounded(self):
        reg = MetricsRegistry(enabled=True, span_capacity=8)
        for i in range(20):
            reg.record_span(f"s{i}", float(i), 0.1)
        spans = reg.snapshot()["spans"]
        assert len(spans) == 8
        assert spans[0][0] == "s12"  # oldest events fell off the back
        assert spans[-1][0] == "s19"

    def test_snapshot_without_spans(self):
        reg = MetricsRegistry(enabled=True)
        reg.record_span("s", 0.0, 1.0)
        assert "spans" not in reg.snapshot(include_spans=False)
        assert reg.snapshot()["spans"]

    def test_merge_source_replaces_cumulative_snapshots(self):
        reg = MetricsRegistry(enabled=True)
        reg.merge_source("w0", {"counters": {"x": 5}, "spans": [["a", 0.0, 1.0, {}]]})
        reg.merge_source("w0", {"counters": {"x": 9}, "spans": [["b", 1.0, 1.0, {}]]})
        snap = reg.sources()["w0"]
        assert snap["counters"]["x"] == 9  # replaced, not summed to 14
        assert [s[0] for s in snap["spans"]] == ["b"]

    def test_spanless_heartbeat_snapshot_keeps_last_spans(self):
        reg = MetricsRegistry(enabled=True)
        reg.merge_source("w0", {"counters": {"x": 5}, "spans": [["a", 0.0, 1.0, {}]]})
        # the cheap heartbeat form carries no spans: counters update but
        # the previously-shipped spans must survive
        reg.merge_source("w0", {"counters": {"x": 9}})
        snap = reg.sources()["w0"]
        assert snap["counters"]["x"] == 9
        assert [s[0] for s in snap["spans"]] == ["a"]

    def test_reset_keeps_the_enabled_flag(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("a")
        reg.meta["source"] = "w0"
        reg.reset()
        assert reg.enabled
        assert reg.counter_value("a") == 0.0
        assert reg.meta == {}

    def test_label_stack_is_nested(self):
        assert current_label() is None
        push_label("gis")
        push_label("inner")
        assert current_label() == "inner"
        pop_label()
        assert current_label() == "gis"
        pop_label()
        assert current_label() is None
        pop_label()  # empty stack: no-op, no raise


class TestReport:
    def _sample_registry(self) -> MetricsRegistry:
        reg = MetricsRegistry(enabled=True)
        reg.inc("tasks", 3)
        reg.observe("latency", 0.02)
        reg.set_gauge("util", 0.5)
        reg.record_span("driver.work", 10.0, 1.5, phase="p1")
        reg.merge_source(
            "pipe:w0",
            {
                "meta": {"role": "ingredients"},
                "counters": {"tasks": 2},
                "gauges": {},
                "histograms": {},
                "spans": [["task:train", 10.2, 0.7, {"task": 0}]],
            },
        )
        return reg

    def test_round_trip_through_json(self, tmp_path):
        report = build_report(self._sample_registry(), command="test")
        path = tmp_path / "report.json"
        write_metrics(report, path)
        loaded = load_report(path)
        assert loaded.meta["command"] == "test"
        assert loaded.to_dict() == json.loads(json.dumps(report.to_dict()))
        assert loaded.counters_total()["tasks"] == 5  # driver 3 + worker 2

    def test_histogram_total_merges_compatible_buckets(self):
        reg = self._sample_registry()
        reg.merge_source(
            "pipe:w1",
            {
                "counters": {},
                "gauges": {},
                "histograms": {
                    "latency": {
                        "buckets": list(TIME_BUCKETS),
                        "counts": [0] * (len(TIME_BUCKETS) + 1),
                        "sum": 0.5,
                        "count": 1,
                        "min": 0.5,
                        "max": 0.5,
                    }
                },
            },
        )
        report = build_report(reg)
        merged = report.histogram_total("latency")
        assert merged["count"] == 2
        assert merged["sum"] == pytest.approx(0.52)
        assert merged["max"] == 0.5
        assert report.histogram_total("no-such-histogram") is None

    def test_chrome_trace_schema(self):
        trace = chrome_trace(build_report(self._sample_registry()))
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        meta_events = [e for e in events if e["ph"] == "M"]
        x_events = [e for e in events if e["ph"] == "X"]
        # one process_name per source (driver + 1 worker), one track each
        names = [e["args"]["name"] for e in meta_events if e["name"] == "process_name"]
        assert names == ["driver", "pipe:w0"]
        assert len({e["pid"] for e in meta_events}) == 2
        for event in x_events:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert event["ts"] >= 0.0  # rebased to the earliest span
            assert event["dur"] >= 0.0
        # the driver span started 0.2s before the worker span: rebasing
        # puts the driver at ts=0 and the worker at +0.2s (in µs)
        by_name = {e["name"]: e for e in x_events}
        assert by_name["driver.work"]["ts"] == 0.0
        assert by_name["task:train"]["ts"] == pytest.approx(0.2e6)

    def test_write_trace_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_trace(build_report(self._sample_registry()), path)
        trace = json.loads(path.read_text())
        assert isinstance(trace["traceEvents"], list)

    def test_summarize_renders_every_section(self):
        text = summarize(build_report(self._sample_registry(), command="soup"))
        for needle in ("driver + 1 worker source", "[soup]", "tasks", "latency",
                       "util", "driver.work", "role=ingredients"):
            assert needle in text, needle

    def test_empty_report_summarizes(self):
        report = RunReport()
        assert "driver + 0 worker source(s)" in summarize(report)
        # only the driver's track metadata, no span events
        events = chrome_trace(report)["traceEvents"]
        assert all(e["ph"] == "M" for e in events)


class TestPhase1Evaluation:
    """The validation passes ``train.epoch_step_s`` leaves out are observed
    on their own, as ``train.eval_s``."""

    def test_eval_time_reaches_the_summary(self, tiny_graph, tmp_path, capsys):
        from repro.cli import main
        from repro.models import build_model
        from repro.train import TrainConfig, train_model

        model = build_model("sage", tiny_graph.feature_dim, tiny_graph.num_classes, hidden_dim=8)
        metrics.set_enabled(True)
        train_model(model, tiny_graph, TrainConfig(epochs=4, eval_every=2), seed=0)
        report = build_report()
        # epochs 2 and 4 validate, then the restored best state is tested
        assert report.histogram_total("train.eval_s")["count"] == 3
        assert report.histogram_total("train.epoch_step_s")["count"] == 4
        path = tmp_path / "report.json"
        write_metrics(report, path)
        assert main(["telemetry", "summarize", str(path)]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines() if "train.eval_s" in ln)
        assert line.split()[1] == "3"
