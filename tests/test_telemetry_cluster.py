"""Telemetry through the full stack: determinism, aggregation, traces.

The acceptance contract under test: enabling telemetry must not perturb
a single bit of either phase's results, in any Phase-1 execution mode
(serial × process-pipe × process-tcp), worker snapshots must aggregate
driver-side over both transports (including across a kill-fault
respawn), and the Chrome trace export must carry one track per
worker/node.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.distributed import ClusterService, FaultPlan, train_ingredients
from repro.distributed.cluster import ClusterError, PipeTransport
from repro.soup import gis_soup
from repro.telemetry import RunReport, build_report, metrics, write_trace

from test_cluster import KW, assert_pools_identical
from test_soup_engine import assert_results_identical

#: mode -> (executor, transport) for the three Phase-1 execution modes
MODES = {
    "serial": ("serial", None),
    "process-pipe": ("process", "pipe"),
    "process-tcp": ("process", "tcp"),
}


@pytest.fixture(autouse=True)
def clean_global_registry():
    metrics.reset()
    metrics.set_enabled(False)
    yield
    metrics.reset()
    metrics.set_enabled(False)


def _train(graph, mode: str, telemetry: bool):
    executor, transport = MODES[mode]
    kwargs = dict(executor=executor, num_workers=2)
    if transport is not None:
        kwargs["transport"] = transport
    metrics.reset()
    metrics.set_enabled(telemetry)
    try:
        return train_ingredients("gcn", graph, 3, **kwargs, **KW)
    finally:
        metrics.set_enabled(False)


def _soup(pool, graph, telemetry: bool):
    metrics.reset()
    metrics.set_enabled(telemetry)
    try:
        return gis_soup(pool, graph, granularity=5)
    finally:
        metrics.set_enabled(False)


class TestDeterminismWithTelemetry:
    """Enabled vs disabled runs are bit-identical in every mode."""

    @pytest.mark.parametrize("mode", list(MODES))
    def test_phase1_bit_identical(self, tiny_graph, mode):
        baseline = _train(tiny_graph, mode, telemetry=False)
        instrumented = _train(tiny_graph, mode, telemetry=True)
        assert_pools_identical(baseline, instrumented)
        # the report rides on the pool without entering its identity, and
        # sees every epoch whatever the mode: 3 ingredients x 4 epochs
        assert baseline.telemetry is None
        report = RunReport.from_dict(instrumented.telemetry)
        assert report.histogram_total("train.epoch_step_s")["count"] == 12

    def test_phase2_bit_identical(self, gcn_pool, tiny_graph):
        baseline = _soup(gcn_pool, tiny_graph, telemetry=False)
        instrumented = _soup(gcn_pool, tiny_graph, telemetry=True)
        assert_results_identical(baseline, instrumented, "gis")
        assert metrics.counter_value("soup.candidates") > 0

    def test_pool_cache_round_trip_drops_telemetry(self, tiny_graph, tmp_path):
        """The on-disk pool format predates telemetry and must not grow
        it: a cached pool reloads bit-identically with telemetry=None."""
        from repro.experiments.cache import load_pool, save_pool

        pool = _train(tiny_graph, "serial", telemetry=True)
        assert pool.telemetry is not None
        path = tmp_path / "pool.npz"
        save_pool(pool, path)
        loaded = load_pool(path)
        assert_pools_identical(pool, loaded)
        assert loaded.telemetry is None


class TestSnapshotAggregation:
    """Worker registries reach the driver over both transports."""

    def test_pipe_workers_ship_snapshots(self, tiny_graph):
        _train(tiny_graph, "process-pipe", telemetry=True)
        sources = metrics.sources()
        assert sources and all(label.startswith("pipe:w") for label in sources)
        for snap in sources.values():
            assert snap["meta"]["role"] == "ingredients"
        # every task's span and completion reached the driver
        task_spans = [
            s for snap in sources.values() for s in snap["spans"]
            if s[0].startswith("task:")
        ]
        assert len(task_spans) == 3
        done = sum(s["counters"].get("worker.tasks_done", 0) for s in sources.values())
        assert done == 3

    def test_tcp_workers_ship_snapshots(self, tiny_graph):
        _train(tiny_graph, "process-tcp", telemetry=True)
        sources = metrics.sources()
        assert sources and all(label.startswith("tcp:w") for label in sources)
        for snap in sources.values():
            assert snap["counters"]["transport.frames_sent"] > 0
        task_spans = [
            s for snap in sources.values() for s in snap["spans"]
            if s[0].startswith("task:")
        ]
        assert len(task_spans) == 3
        # driver-side service metrics recorded alongside
        assert metrics.counter_value("cluster.tasks_done") == 3
        snap = metrics.snapshot()
        assert snap["histograms"]["cluster.claim_latency_s"]["count"] == 3
        assert snap["histograms"]["cluster.queue_wait_s"]["count"] == 3
        assert any(n.startswith("cluster.utilization.tcp:w") for n in snap["gauges"])

    def test_tcp_aggregation_survives_kill_fault_respawn(self, tiny_graph):
        """A hard-killed tcp worker loses its connection mid-task; the
        respawned replacement must ship snapshots under its own label and
        the driver must have counted the recovery. One worker makes the
        respawn mandatory — no survivor can absorb the backlog."""
        metrics.reset()
        metrics.set_enabled(True)
        try:
            pool = train_ingredients(
                "gcn", tiny_graph, 3, executor="process", transport="tcp",
                num_workers=1, fault_plan=FaultPlan(failures={0: 1}, kill=True), **KW,
            )
        finally:
            metrics.set_enabled(False)
        respawns = metrics.counter_value("cluster.respawns")
        lost = metrics.counter_value("cluster.lost_tasks")
        sources = metrics.sources()
        reference = _train(tiny_graph, "serial", telemetry=False)
        assert_pools_identical(reference, pool)
        assert respawns >= 1
        assert lost >= 1
        # the respawned replacement (w1) reported in under its own label;
        # the killed w0 may or may not have shipped a snapshot first
        assert any(label.startswith("tcp:w1") for label in sources)


class TestTraceExport:
    def test_one_track_per_worker(self, tiny_graph, tmp_path):
        _train(tiny_graph, "process-pipe", telemetry=True)
        report = build_report(command="test")
        path = tmp_path / "trace.json"
        write_trace(report, path)
        trace = json.loads(path.read_text())
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        names = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        # one track per snapshot source: the driver plus every worker
        # that reported, each under its own pid
        assert names[0] == "driver"
        worker_pids = {pid for pid, name in names.items() if name.startswith("pipe:w")}
        assert len(names) == 1 + len(worker_pids) and worker_pids
        for event in trace["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        # worker tracks carry the per-task spans, one per ingredient
        task_events = [
            e for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] in worker_pids and e["name"].startswith("task:")
        ]
        assert len(task_events) == 3


class TestWorkerIdentityOnFailure:
    def test_unexpected_worker_error_names_the_worker(self, gcn_pool, tiny_graph):
        """An exception escaping a worker's task (not a recognised fault)
        must re-raise on the driver with the worker's identity: transport
        label and role."""
        from repro.distributed.shm import _graph_to_payload

        context = {
            "graph_ref": {"kind": "arrays", "payload": _graph_to_payload(tiny_graph)},
            "model_config": dict(gcn_pool.model_config),
            "states": (gcn_pool.states[0],),
            "ensemble": False,
        }
        service = ClusterService(PipeTransport("serve", context, width=1))
        try:
            with pytest.raises(
                ClusterError,
                match=r"worker pipe:w0 .*\(role 'serve'\) raised unexpectedly",
            ):
                # an out-of-range node id explodes inside the worker
                service.run([0], lambda key, attempt: np.array([tiny_graph.num_nodes + 5]))
        finally:
            service.close()
