"""Unified cluster runtime: tcp transport, cross-transport determinism.

The acceptance contract under test: the Phase-1 pool and served
predictions are bit-identical whether the workers sit behind the
same-host ``pipe`` transport or the multi-host ``tcp`` transport
(loopback workers here) — and both run on the *same* shared
worker-service core (:mod:`repro.distributed.cluster`), with
worker-death/lost-task recovery over sockets.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue
import signal
import socket
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from repro.distributed import (
    ClusterService,
    FaultPlan,
    TcpTransport,
    parse_nodes,
    train_ingredients,
)
from repro.distributed.cluster import (
    ClusterError,
    _ResultAssembler,
    _STREAMED,
    _TcpWorker,
    _WAKEUP,
    _send_result,
    run_worker,
)
from repro.distributed.wire import decode_frame
from repro.serve import PredictionServer, ServeClient, ServeConfig
from repro.soup import soup
from repro.telemetry import metrics
from repro.train import TrainConfig, evaluate_logits

KW = dict(train_cfg=TrainConfig(epochs=4, lr=0.05), base_seed=3, hidden_dim=8)


def assert_pools_identical(a, b):
    assert len(a) == len(b)
    for s1, s2 in zip(a.states, b.states):
        for name in s1:
            np.testing.assert_array_equal(s1[name], s2[name])
    assert a.val_accs == b.val_accs
    assert a.test_accs == b.test_accs


def _states_equal(a: list[dict], b: list[dict]) -> bool:
    return all(
        set(sa) == set(sb) and all(np.array_equal(sa[k], sb[k]) for k in sa)
        for sa, sb in zip(a, b)
    )


def served_soup(pool, graph):
    """A uniform soup of ``pool`` and its full-graph reference logits."""
    state = soup("us", pool, graph).state_dict
    model = pool.make_model()
    model.load_state_dict(state)
    return state, evaluate_logits(model, graph)


def tcp_server(pool, graph, state, nodes) -> PredictionServer:
    config = ServeConfig(backend="tcp", nodes=nodes, cache_nodes=0, max_wait_s=0.001)
    return PredictionServer(pool.model_config, graph, [state], config=config)


@pytest.fixture(scope="module")
def serial_pool(tiny_graph):
    return train_ingredients("gcn", tiny_graph, 3, executor="serial", **KW)


def start_workers(tmp_path: Path, n: int):
    """Spawn ``n`` real ``cluster start-worker`` servers on loopback;
    returns ``(processes, ["127.0.0.1:port", ...])``."""
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
    procs, nodes = [], []
    for i in range(n):
        port_file = tmp_path / f"worker-{i}.port"
        proc = ctx.Process(
            target=run_worker,
            kwargs=dict(host="127.0.0.1", port=0, verbose=False, port_file=port_file),
            daemon=True,
        )
        proc.start()
        procs.append((proc, port_file))
    for proc, port_file in procs:
        deadline = time.monotonic() + 30
        while not port_file.exists():
            assert proc.is_alive(), "cluster worker died before binding"
            assert time.monotonic() < deadline, "cluster worker never bound its port"
            time.sleep(0.05)
        nodes.append("127.0.0.1:" + port_file.read_text().split()[1])
    return [proc for proc, _ in procs], nodes


class TestPhase1TcpDeterminism:
    """train_ingredients over tcp loopback: bit-identical to serial."""

    @pytest.mark.parametrize("shm", [True, False], ids=["shm", "noshm"])
    def test_tcp_loopback_bit_identical(self, tiny_graph, serial_pool, shm):
        pool = train_ingredients(
            "gcn", tiny_graph, 3, executor="process", transport="tcp",
            num_workers=2, shm=shm, **KW,
        )
        assert_pools_identical(serial_pool, pool)

    def test_hard_killed_tcp_worker_is_retried(self, tiny_graph, serial_pool):
        """A kill fault fail-stops the worker process mid-task; over tcp
        the death surfaces as connection loss, the claimed task re-enters
        the queue and a replacement loopback worker spawns."""
        pool = train_ingredients(
            "gcn", tiny_graph, 3, executor="process", transport="tcp",
            num_workers=2, fault_plan=FaultPlan(failures={0: 1}, kill=True), **KW,
        )
        assert_pools_identical(serial_pool, pool)

    def test_start_worker_nodes_bit_identical(self, tiny_graph, serial_pool, tmp_path):
        """The real multi-node path: two `cluster start-worker` servers on
        loopback, addressed through nodes=..., train the same pool."""
        procs, nodes = start_workers(tmp_path, 2)
        try:
            pool = train_ingredients(
                "gcn", tiny_graph, 3, executor="process", transport="tcp",
                nodes=",".join(nodes), **KW,
            )
            assert_pools_identical(serial_pool, pool)
        finally:
            for proc in procs:
                proc.terminate()


class TestRemoteNodes:
    """Remote ``cluster start-worker`` nodes behind the tcp transport."""

    def test_same_workers_serve_both_phases(self, tiny_graph, serial_pool, tmp_path):
        """A start-worker is role-agnostic: the role ships at handshake,
        so the same long-lived servers train a pool and then serve its
        soup."""
        procs, nodes = start_workers(tmp_path, 2)
        try:
            pool = train_ingredients(
                "gcn", tiny_graph, 3, executor="process", transport="tcp",
                nodes=nodes, **KW,
            )
            assert_pools_identical(serial_pool, pool)
            state, ref = served_soup(pool, tiny_graph)
            with tcp_server(pool, tiny_graph, state, nodes) as srv:
                srv.start()
                with ServeClient(*srv.address) as client:
                    ids = list(range(40))
                    assert np.array_equal(client.predict(ids), ref[ids])
        finally:
            for proc in procs:
                proc.terminate()

    def test_node_death_lost_task_recovery(self, gcn_pool, tiny_graph, tmp_path):
        """Killing a remote node mid-service loses a worker the driver
        cannot respawn: its tasks must be recovered onto the survivor and
        every request still answered with bit-identical rows."""
        state, ref = served_soup(gcn_pool, tiny_graph)
        procs, nodes = start_workers(tmp_path, 2)
        try:
            with tcp_server(gcn_pool, tiny_graph, state, nodes) as srv:
                srv.start()
                with ServeClient(*srv.address, timeout=60.0) as client:
                    assert np.array_equal(client.predict([0, 1]), ref[[0, 1]])
                    # an idle pool dispatches to its first worker, node 0:
                    # stopped, it holds the flush unread until it is killed
                    os.kill(procs[0].pid, signal.SIGSTOP)
                    rid = client.predict_async(list(range(10, 50)))
                    node0 = srv._backend.transport._workers[0]
                    deadline = time.monotonic() + 30
                    while node0.busy_rid is None:
                        assert time.monotonic() < deadline, "the flush never reached node 0"
                        time.sleep(0.01)
                    procs[0].kill()
                    procs[0].join()
                    assert np.array_equal(client.collect(rid), ref[10:50])
                    for start in range(50, 130, 20):
                        ids = list(range(start, start + 20))
                        assert np.array_equal(client.predict(ids), ref[ids])
        finally:
            for proc in procs:
                proc.kill()


class TestFallbackPayloadPush:
    def test_unreachable_shm_falls_back_to_serialized_payload(self, tiny_graph):
        """A worker that cannot attach the driver's shm segment (the
        cross-node case, simulated with a bogus segment name) reports
        init-error and receives the serialized graph payload once."""
        from repro.distributed.ingredients import IngredientTask, _run_task
        from repro.distributed.shm import _graph_to_payload
        from repro.distributed.shm import SharedGraphSpec

        bogus_ref = {
            "kind": "shm",
            "spec": SharedGraphSpec(
                shm_name="repro-no-such-segment", fields=(),
                num_nodes=0, num_classes=1, graph_name="bogus",
            ),
        }
        context = {"graph_ref": bogus_ref}
        fallback = {"graph_ref": {"kind": "arrays", "payload": _graph_to_payload(tiny_graph)}}
        task = IngredientTask(
            index=0,
            model_config=dict(
                arch="gcn", in_dim=tiny_graph.feature_dim, out_dim=tiny_graph.num_classes,
                hidden_dim=8, seed=3,
            ),
            train_cfg=KW["train_cfg"],
            seed=11,
        )
        service = ClusterService(
            TcpTransport("ingredients", context, fallback_context=fallback, spawn_local=1)
        )
        try:
            results, exhausted = service.run([0], lambda key, attempt: (task, False, False))
        finally:
            service.close()
        assert exhausted == []
        # the handshake shipped the graph arrays: the fallback was pushed
        assert service.transport.payload_bytes[0] > tiny_graph.features.nbytes
        expected = _run_task(task, tiny_graph, inject=False)
        assert _states_equal([results[0].state_dict], [expected.state_dict])


class TestValidationAndStructure:
    def test_unknown_transport_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="transport"):
            train_ingredients("gcn", tiny_graph, 1, transport="carrier-pigeon", **KW)

    def test_nodes_require_tcp(self, tiny_graph):
        with pytest.raises(ValueError, match="tcp"):
            train_ingredients(
                "gcn", tiny_graph, 1, executor="process",
                transport="pipe", nodes="h:1", **KW,
            )

    def test_tcp_requires_process_executor(self, tiny_graph):
        with pytest.raises(ValueError, match="process"):
            train_ingredients("gcn", tiny_graph, 1, executor="serial", transport="tcp", **KW)

    def test_tcp_requires_dynamic_queue(self, tiny_graph):
        with pytest.raises(ValueError, match="dynamic"):
            train_ingredients(
                "gcn", tiny_graph, 1, executor="process",
                transport="tcp", queue="rounds", **KW,
            )

    def test_parse_nodes(self):
        assert parse_nodes(None) is None
        assert parse_nodes("") is None
        assert parse_nodes("h1:9301, h2:9302") == [("h1", 9301), ("h2", 9302)]
        assert parse_nodes([("h1", 9301), "h2:9302"]) == [("h1", 9301), ("h2", 9302)]
        with pytest.raises(ValueError, match="host:port"):
            parse_nodes("no-port")

    def test_both_phases_share_the_cluster_core(self):
        """Phase 1 and serving own no private copy of the claim/done
        protocol: both resolve to the shared cluster service and register
        roles on it. Phase 2 has no worker role: souping runs in the
        driver."""
        from repro.distributed import cluster, ingredients
        from repro.serve import model, server

        assert not hasattr(ingredients, "_pool_worker_main")
        assert ingredients.open_service is cluster.open_service
        assert server.open_service is cluster.open_service
        assert cluster.resolve_role("ingredients") is ingredients.INGREDIENT_ROLE
        assert cluster.resolve_role("serve") is model.SERVE_ROLE
        assert sorted(cluster._ROLES) == ["ingredients", "serve"]


# ---------------------------------------------------------------------------
# streamed results
# ---------------------------------------------------------------------------


class TestResultStreaming:
    def _roundtrip(self, result, monkeypatch, threshold, chunk=512, snapshot=None):
        monkeypatch.setenv("REPRO_STREAM_THRESHOLD", str(threshold))
        monkeypatch.setenv("REPRO_STREAM_CHUNK", str(chunk))
        sent = []
        _send_result(sent.append, 3, 11, result, snapshot=snapshot)
        assembler = _ResultAssembler()
        out = [m for m in (assembler.feed(msg) for msg in sent) if m is not None]
        return sent, out

    def test_small_result_single_done_frame(self, monkeypatch):
        sent, out = self._roundtrip({"x": np.zeros(4)}, monkeypatch, threshold=1 << 20)
        assert len(sent) == 1 and sent[0][0] == "done"
        assert out == sent

    def test_large_result_streams_and_reassembles(self, monkeypatch):
        result = {"w": np.arange(4096, dtype=np.float64)}
        sent, out = self._roundtrip(result, monkeypatch, threshold=1024, chunk=777)
        kinds = [m[0] for m in sent]
        assert kinds[-1] == "done" and set(kinds[:-1]) == {"result-chunk"}
        assert len(sent) > 2  # actually chunked
        assert sent[-1][3] == _STREAMED
        # every chunk is bounded
        assert all(len(m[5]) <= 777 for m in sent[:-1])
        assert len(out) == 1 and out[0][0] == "done"
        np.testing.assert_array_equal(out[0][3]["w"], result["w"])

    def test_snapshot_rides_the_done_frame(self, monkeypatch):
        result = {"w": np.arange(4096, dtype=np.float64)}
        sent, out = self._roundtrip(result, monkeypatch, threshold=1024, snapshot={"s": 1})
        assert out[0][4] == {"s": 1}

    def test_zero_threshold_disables_streaming(self, monkeypatch):
        sent, _ = self._roundtrip(
            {"w": np.arange(4096, dtype=np.float64)}, monkeypatch, threshold=0
        )
        assert len(sent) == 1 and sent[0][0] == "done"

    def test_out_of_order_chunk_rejected(self):
        assembler = _ResultAssembler()
        assembler.feed(("result-chunk", 1, 2, 0, 3, b"a"))
        with pytest.raises(ClusterError):
            assembler.feed(("result-chunk", 1, 2, 2, 3, b"c"))

    def test_done_without_chunks_rejected(self):
        with pytest.raises(ClusterError):
            _ResultAssembler().feed(("done", 1, 2, _STREAMED))

    def test_drop_discards_partial_streams(self):
        assembler = _ResultAssembler()
        assembler.feed(("result-chunk", 1, 2, 0, 2, pickle.dumps("x")[:1]))
        assembler.drop(1)
        with pytest.raises(ClusterError):
            assembler.feed(("done", 1, 2, _STREAMED))

    def test_streamed_phase1_results_bit_identical(self, tiny_graph, monkeypatch):
        """Force every state dict over the chunked path end to end."""
        cfg = TrainConfig(epochs=2, lr=0.05)
        reference = train_ingredients("gcn", tiny_graph, 2, cfg, base_seed=5)
        monkeypatch.setenv("REPRO_STREAM_THRESHOLD", "1024")
        streamed = train_ingredients(
            "gcn", tiny_graph, 2, cfg, base_seed=5,
            executor="process", queue="dynamic", num_workers=2,
        )
        assert _states_equal(reference.states, streamed.states)


# ---------------------------------------------------------------------------
# encode-once fallback frame + payload accounting (tcp)
# ---------------------------------------------------------------------------


class TestTcpPayloadAccounting:
    def _bare_transport(self, fallback):
        transport = TcpTransport.__new__(TcpTransport)
        transport._fallback = fallback
        transport._fallback_frame_bytes = None
        transport._labels = {}
        transport.payload_bytes = {}
        return transport

    def test_fallback_frame_serialized_once(self):
        transport = self._bare_transport({"graph_ref": {"kind": "arrays", "payload": {"n": 1}}})
        frame = transport._fallback_frame()
        assert transport._fallback_frame() is frame  # cached bytes, no re-pickle
        kind, ctx = decode_frame(frame)
        assert kind == "context" and ctx["graph_ref"]["payload"] == {"n": 1}

    def test_no_fallback_returns_none(self):
        transport = self._bare_transport(None)
        assert transport._fallback_frame() is None

    def test_count_payload_accumulates_per_worker(self):
        transport = self._bare_transport(None)
        transport._count_payload(0, 100)
        transport._count_payload(0, 50)
        transport._count_payload(2, 7)
        assert transport.payload_bytes == {0: 150, 2: 7}


# ---------------------------------------------------------------------------
# tcp reader: transport failures end the connection, bugs surface
# ---------------------------------------------------------------------------


class TestTcpReaderErrors:
    def test_malformed_frame_marks_worker_eof(self):
        """A length-prefixed garbage body is a transport failure: the
        reader counts it, marks the worker dead and wakes the driver."""
        ours, theirs = socket.socketpair()
        body = b"\xee not a frame"
        theirs.sendall(struct.pack(">Q", len(body)) + body)
        transport = TcpTransport.__new__(TcpTransport)
        transport._inbox = queue.Queue()
        transport._labels = {}
        worker = _TcpWorker(wid=0, sock=ours)
        metrics.reset()
        metrics.set_enabled(True)
        try:
            transport._reader_main(worker)
            errors = metrics.counter_value("transport.reader_errors")
        finally:
            metrics.set_enabled(False)
            metrics.reset()
            ours.close()
            theirs.close()
        assert worker.eof
        assert transport._inbox.get_nowait() is _WAKEUP
        assert errors == 1
