"""Serving-layer tests: cache, served model, frontend, CLI round trip.

The load-bearing property is the serving determinism contract: identical
request sets produce bit-identical predictions regardless of arrival
order, coalescing, caching, backend, or mid-request worker death. Every
test here ultimately compares against the same reference — one
:func:`evaluate_logits` pass of the souped state on the driver.
"""

from __future__ import annotations

import gc
import os
import signal
import socket
import struct
import threading
import time
import warnings

import numpy as np
import pytest

from repro.cli import main
from repro.distributed.cluster import _recv_frame, _send_frame
from repro.graph import GeneratorConfig, homophilous_graph
from repro.graph.blocks import Blocks, forward_field
from repro.models import build_model
from repro.serve import NodeCache, PredictionServer, ServeClient, ServeConfig, ServeError
from repro.serve.loadgen import run_load
from repro.serve.model import ServedModel, state_digest
from repro.serve.server import _AdaptiveLimit
from repro.soup import soup
from repro.soup.ensemble import _softmax
from repro.telemetry import metrics
from repro.train import evaluate_logits


@pytest.fixture(scope="module")
def served(gcn_pool, tiny_graph):
    """The soup state, its reference scores, and the pool/graph pair."""
    result = soup("us", gcn_pool, tiny_graph)
    model = gcn_pool.make_model()
    model.load_state_dict(result.state_dict)
    ref = evaluate_logits(model, tiny_graph)
    return gcn_pool, tiny_graph, result.state_dict, ref


@pytest.fixture(scope="module")
def serial_server(served):
    pool, graph, state, _ref = served
    config = ServeConfig(backend="serial", cache_nodes=64, max_wait_s=0.001)
    with PredictionServer(pool.model_config, graph, [state], config=config) as srv:
        srv.start()
        yield srv


class TestNodeCache:
    def test_miss_then_hit(self):
        cache = NodeCache(4)
        hits, misses = cache.lookup([1, 2, 1])
        assert hits == {} and misses == [1, 2]  # dedup, first-appearance order
        cache.insert({1: np.array([1.0]), 2: np.array([2.0])})
        hits, misses = cache.lookup([2, 1, 2])
        assert misses == [] and set(hits) == {1, 2}
        assert cache.info()["hits"] == 3  # each hit lookup counted, dup included

    def test_lru_eviction(self):
        cache = NodeCache(2)
        cache.insert({1: np.array([1.0]), 2: np.array([2.0])})
        cache.lookup([1])  # 1 is now most-recently used
        cache.insert({3: np.array([3.0])})
        hits, misses = cache.lookup([1, 2, 3])
        assert set(hits) == {1, 3} and misses == [2]
        assert cache.evictions == 1

    def test_rows_are_exact(self):
        cache = NodeCache(4)
        row = np.array([0.1, -2.5, 3.25])
        cache.insert({7: row})
        hits, _ = cache.lookup([7])
        assert np.array_equal(hits[7], row)

    def test_zero_capacity_disables(self):
        cache = NodeCache(0)
        cache.insert({1: np.array([1.0])})
        hits, misses = cache.lookup([1])
        assert hits == {} and misses == [1] and len(cache) == 0

    def test_clear_drops_entries(self):
        cache = NodeCache(4)
        cache.insert({1: np.array([1.0])})
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup([1])[1] == [1]

    @pytest.mark.parametrize("capacity", [-1, 1.5, True, "8"])
    def test_rejects_bad_capacity(self, capacity):
        with pytest.raises(ValueError):
            NodeCache(capacity)


class TestServedModel:
    def test_matches_reference_logits(self, served):
        pool, graph, state, ref = served
        model = ServedModel(pool.model_config, graph, [state])
        rows, scores = model.scores_at([3, 0, 3, 9])
        assert rows.dtype == np.int64 and rows.tolist() == [0, 3, 9]
        assert scores.dtype == np.float64 and scores.flags.c_contiguous
        assert np.array_equal(scores, ref[rows])

    def test_rows_independent_of_batch_composition(self, served):
        pool, graph, state, _ref = served
        model = ServedModel(pool.model_config, graph, [state])
        alone = model.scores_at([11])[1][0]
        crowded = model.scores_at(range(graph.num_nodes))[1][11]
        assert np.array_equal(alone, crowded)

    def test_ensemble_matches_logit_ensemble(self, served):
        pool, graph, _state, _ref = served
        model = ServedModel(pool.model_config, graph, [dict(s) for s in pool.states], ensemble=True)
        worker = pool.make_model()
        per = []
        for s in pool.states:
            worker.load_state_dict(s)
            per.append(evaluate_logits(worker, graph))
        expected = _softmax(np.stack(per)).mean(axis=0)
        rows, scores = model.scores_at([0, 5])
        assert rows.tolist() == [0, 5]
        assert np.array_equal(scores, expected[[0, 5]])

    def test_digest_identifies_parameters(self, served):
        pool, graph, state, _ref = served
        a = ServedModel(pool.model_config, graph, [state]).digest
        assert a == state_digest([state])
        perturbed = {k: v + (1e-12 if k == next(iter(state)) else 0) for k, v in state.items()}
        assert state_digest([perturbed]) != a

    def test_rejects_out_of_range_ids(self, served):
        pool, graph, state, _ref = served
        model = ServedModel(pool.model_config, graph, [state])
        with pytest.raises(ValueError, match="outside"):
            model.scores_at([graph.num_nodes])

    def test_rejects_multi_state_without_ensemble(self, served):
        pool, graph, _state, _ref = served
        with pytest.raises(ValueError, match="exactly one state"):
            ServedModel(pool.model_config, graph, [dict(s) for s in pool.states])


#: Sparse enough that a few rows' 2-hop field is a strict subset of the
#: graph; hidden width 12 and 5 classes give GEMM output widths that are
#: not multiples of 8 (the padded path of ``rowwise_matmul``).
SPARSE_CFG = GeneratorConfig(
    num_nodes=600,
    num_classes=5,
    avg_degree=3.0,
    homophily=0.7,
    feature_dim=10,
    feature_noise=1.0,
    split=(0.5, 0.06, 0.44),
    name="sparse",
)


@pytest.fixture(scope="module")
def sparse_graph():
    return homophilous_graph(SPARSE_CFG, seed=3)


def flush_field(model: ServedModel, rows):
    """What a flush of ``rows`` runs on: serving's per-call blocks or the graph."""
    return forward_field(model.graph, np.unique(rows), model._model.num_hops, cached=False)


class TestServedModelOnBlocks:
    """Every flush, on blocks or on the whole graph, scores each row
    bit-identically to the full ``evaluate_logits`` pass."""

    @pytest.mark.parametrize("ensemble", [False, True], ids=["soup", "ensemble"])
    @pytest.mark.parametrize("arch", ["sage", "gcn", "gat", "gin", "mlp"])
    def test_rows_match_full_pass(self, sparse_graph, arch, ensemble, crossing):
        graph = sparse_graph
        config = dict(arch=arch, in_dim=graph.feature_dim, out_dim=graph.num_classes, hidden_dim=12, num_heads=3)
        seeds = (0, 1, 2) if ensemble else (0,)
        states = [build_model(**config, seed=seed).state_dict() for seed in seeds]
        reference = build_model(**config)
        per_state = []
        for state in states:
            reference.load_state_dict(state)
            per_state.append(evaluate_logits(reference, graph))
        expected = _softmax(np.stack(per_state)).mean(axis=0) if ensemble else per_state[0]
        served = ServedModel(config, graph, states, ensemble=ensemble)
        n = graph.num_nodes

        small = {"one": [17], "dup-unsorted": [412, 3, 412, 250, 3], "few": [9, 400, 77, 123]}
        for name, ids in small.items():
            field = flush_field(served, ids)
            assert isinstance(field, Blocks), name
            assert len(field.input_rows) < n, name
            for block in field.layers:  # a strict subset of the graph at every layer
                assert len(block.src) < n, name
        flushes = dict(small, all=range(n))
        if arch == "mlp":  # no field to grow: every flush is its own rows
            assert isinstance(flush_field(served, np.arange(n)), Blocks)
        else:
            under, past = crossing(graph, served._model.num_hops)
            assert isinstance(flush_field(served, under), Blocks)
            assert flush_field(served, past) is graph
            flushes.update(under=under, past=past)
        for name, ids in flushes.items():
            rows, scores = served.scores_at(ids)
            assert rows.tolist() == sorted(set(int(i) for i in ids)), name
            assert np.array_equal(scores, expected[rows]), name

    def test_blocks_bypass_the_graph_block_cache(self, sparse_graph):
        served = _served_sage(sparse_graph)
        sparse_graph._block_cache.clear()
        served.scores_at([1, 2, 3])
        assert len(sparse_graph._block_cache) == 0

    def test_each_flush_records_a_score_span(self, sparse_graph):
        served = _served_sage(sparse_graph)
        n = sparse_graph.num_nodes
        metrics.reset()
        metrics.set_enabled(True)
        try:
            served.scores_at([4, 9, 4])
            served.scores_at(range(n))
            spans = [span for span in metrics.snapshot()["spans"] if span[0] == "serve.score"]
        finally:
            metrics.set_enabled(False)
            metrics.reset()
        (_, _, small_s, small), (_, _, full_s, full) = spans
        assert small["rows"] == 2 and small["blocked"] and 0 < small["input_rows"] < n
        assert full == {"rows": n, "input_rows": n, "blocked": False}
        assert small_s > 0 and full_s > 0


def _served_sage(graph) -> ServedModel:
    config = dict(arch="sage", in_dim=graph.feature_dim, out_dim=graph.num_classes, hidden_dim=12)
    return ServedModel(config, graph, [build_model(**config).state_dict()])


class TestAdaptiveLimit:
    def test_grows_under_backlog_and_decays_when_idle(self):
        limit = _AdaptiveLimit(base=8, cap=64)
        limit.on_flush(batch_size=8, backlog=20)  # backlog > limit -> grow
        assert limit.value == 16
        limit.on_flush(batch_size=16, backlog=40)
        assert limit.value == 32
        for _ in range(8):  # 8 consecutive under-quarter-full flushes -> decay
            limit.on_flush(batch_size=1, backlog=0)
        assert limit.value == 16

    def test_bounded_by_cap_and_base(self):
        limit = _AdaptiveLimit(base=8, cap=16)
        for _ in range(10):
            limit.on_flush(batch_size=limit.value, backlog=1000)
        assert limit.value == 16
        for _ in range(100):
            limit.on_flush(batch_size=1, backlog=0)
        assert limit.value == 8


class TestServeConfig:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ServeConfig(backend="gpu").validate()

    def test_nodes_require_tcp(self):
        with pytest.raises(ValueError, match="tcp"):
            ServeConfig(backend="pipe", nodes=["h:1"]).validate()

    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0}, {"max_wait_s": -1.0}, {"cache_nodes": -1},
        {"backend": "pipe", "num_workers": 0}, {"backend": "pipe", "num_workers": True},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs).validate()


class TestPredictionServerSerial:
    def test_hello_carries_identity(self, serial_server, served):
        _pool, graph, state, _ref = served
        host, port = serial_server.address
        with ServeClient(host, port) as client:
            assert client.info["digest"] == state_digest([state])
            assert client.info["num_nodes"] == graph.num_nodes
            assert client.ping()

    def test_predictions_match_reference(self, serial_server, served):
        _pool, _graph, _state, ref = served
        host, port = serial_server.address
        with ServeClient(host, port) as client:
            ids = [5, 3, 5, 0, 150]
            scores = client.predict(ids)
            assert scores.shape == (len(ids), ref.shape[1])
            assert np.array_equal(scores, ref[ids])
            labels = client.predict_labels([8, 2])
            assert np.array_equal(labels, np.argmax(ref[[8, 2]], axis=-1))

    def test_any_arrival_order_is_bit_identical(self, serial_server, served):
        """Same request set, shuffled arrival, pipelined + concurrent
        clients -> every reply identical to the serial reference."""
        _pool, graph, _state, ref = served
        host, port = serial_server.address
        rng = np.random.default_rng(5)
        request_sets = [rng.integers(0, graph.num_nodes, size=6) for _ in range(12)]

        def drive(order, out):
            with ServeClient(host, port) as client:
                pending = [(client.predict_async(request_sets[i]), i) for i in order]
                for rid, i in pending[::-1]:  # collect out of order too
                    out[i] = client.collect(rid)

        by_order: list[dict] = [{}, {}]
        threads = [
            threading.Thread(target=drive, args=(order, by_order[j]))
            for j, order in enumerate([list(range(12)), list(range(11, -1, -1))])
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for out in by_order:
            assert set(out) == set(range(12))
            for i, scores in out.items():
                assert np.array_equal(scores, ref[request_sets[i]])

    def test_cache_hits_accumulate(self, serial_server):
        host, port = serial_server.address
        with ServeClient(host, port) as client:
            before = client.stats()["cache"]
            client.predict([70, 71, 72])
            mid = client.stats()["cache"]
            assert mid["misses"] >= before["misses"]  # cold nodes missed
            client.predict([70, 71, 72])
            after = client.stats()["cache"]
            assert after["hits"] >= mid["hits"] + 3
            assert after["misses"] == mid["misses"]

    def test_out_of_range_request_fails_cleanly(self, serial_server, served):
        _pool, graph, _state, ref = served
        host, port = serial_server.address
        with ServeClient(host, port) as client:
            with pytest.raises(ServeError, match="outside"):
                client.predict([graph.num_nodes + 5])
            # the connection and server survive the rejected request
            assert np.array_equal(client.predict([1]), ref[[1]])

    def test_empty_request(self, serial_server, served):
        _pool, _graph, _state, ref = served
        host, port = serial_server.address
        with ServeClient(host, port) as client:
            scores = client.predict([])
            assert scores.shape == (0, ref.shape[1])

    def test_loadgen_verifies_and_reports(self, serial_server):
        host, port = serial_server.address
        out = run_load(host, port, requests=30, clients=2, pipeline=2,
                       nodes_per_request=4, seed=3)
        assert out["requests"] == 30
        assert out["verified"] is True
        assert out["latency_s"]["p99"] >= out["latency_s"]["p50"] >= 0
        assert out["server_stats"]["replies"] >= 30


class TestPredictionServerCluster:
    @pytest.mark.parametrize("backend", ["pipe", "tcp"])
    def test_backends_bit_identical_to_serial(self, served, backend, crossing):
        """Workers score through the same ServedModel: small flushes on
        blocks and wide ones on the whole graph, each bit-identical."""
        pool, graph, state, ref = served
        under, past = crossing(graph, ServedModel(pool.model_config, graph, [state])._model.num_hops)
        # one request per flush: nothing else is pending, and max_batch
        # holds the widest request whole
        config = ServeConfig(
            backend=backend, num_workers=2, cache_nodes=0, max_wait_s=0.001, max_batch=graph.num_nodes
        )
        with PredictionServer(pool.model_config, graph, [state], config=config) as srv:
            srv.start()
            host, port = srv.address
            with ServeClient(host, port) as client:
                for ids in ([5], [7, 3, 7], list(range(0, 40)), under, past, range(graph.num_nodes)):
                    ids = list(ids)
                    assert np.array_equal(client.predict(ids), ref[ids]), ids[:8]

    def test_worker_death_mid_request_recovers(self, served):
        """SIGKILL one of two tcp workers with a request in flight: the
        cluster stream resubmits the lost flush and the reply is still
        bit-identical. (tcp: a dead worker only takes its own socket.)"""
        pool, graph, state, ref = served
        config = ServeConfig(backend="tcp", num_workers=2, cache_nodes=0, max_wait_s=0.001)
        with PredictionServer(pool.model_config, graph, [state], config=config) as srv:
            srv.start()
            host, port = srv.address
            with ServeClient(host, port, timeout=120.0) as client:
                assert np.array_equal(client.predict([0, 1]), ref[[0, 1]])  # warm init
                transport = srv._backend.transport
                victim = next(w.proc.pid for w in transport._workers.values() if w.proc is not None)
                rid = client.predict_async(list(range(50, 90)))
                os.kill(victim, signal.SIGKILL)
                scores = client.collect(rid)
                assert np.array_equal(scores, ref[50:90])
                # and the server keeps serving afterwards
                assert np.array_equal(client.predict([120]), ref[[120]])

    def test_close_returns_promptly(self, served):
        """close() must wake the accept thread instead of waiting out its
        join timeout."""
        pool, graph, state, ref = served
        config = ServeConfig(backend="pipe", num_workers=1, cache_nodes=0, max_wait_s=0.001)
        srv = PredictionServer(pool.model_config, graph, [state], config=config)
        try:
            srv.start()
            host, port = srv.address
            with ServeClient(host, port) as client:
                assert np.array_equal(client.predict([0]), ref[[0]])
        finally:
            started = time.monotonic()
            srv.close()
        assert time.monotonic() - started < 1.0

    def test_ensemble_over_workers_matches_serial_ensemble(self, served):
        pool, graph, _state, _ref = served
        states = [dict(s) for s in pool.states]
        serial = ServedModel(pool.model_config, graph, states, ensemble=True)
        _rows, expected = serial.scores_at([0, 33, 150])
        config = ServeConfig(backend="pipe", num_workers=2, cache_nodes=8, max_wait_s=0.001)
        with PredictionServer(pool.model_config, graph, states, ensemble=True, config=config) as srv:
            srv.start()
            host, port = srv.address
            with ServeClient(host, port) as client:
                assert client.info["ensemble"] is True
                scores = client.predict([0, 33, 150])
                assert np.array_equal(scores, expected)


class TestClientGone:
    def test_server_closes_the_socket_of_a_client_that_left(self, served):
        """A client that disconnects must not leave its server-side socket
        open: the server closes it on the reader's "gone" event, so nothing
        is left for the garbage collector to warn about."""
        pool, graph, state, ref = served
        config = ServeConfig(backend="serial", cache_nodes=0, max_wait_s=0.001)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with PredictionServer(pool.model_config, graph, [state], config=config) as srv:
                srv.start()
                host, port = srv.address
                with ServeClient(host, port) as client:
                    assert np.array_equal(client.predict([1, 2]), ref[[1, 2]])
                    (conn,) = srv._conns
                deadline = time.monotonic() + 5.0
                while srv._conns and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert not srv._conns, "the server never noticed the client leave"
                assert conn.sock.fileno() == -1, "the departed client's socket is still open"
                del conn
                gc.collect()
        leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaked, [str(w.message) for w in leaked]


class TestServeLoopFault:
    def test_internal_error_hangs_up_every_client(self, served, capsys):
        """A bug in the serve loop stops serving loudly: counted, traceback
        printed, and every client told at once rather than timing out."""
        pool, graph, state, ref = served
        config = ServeConfig(backend="serial", cache_nodes=0, max_wait_s=0.001)
        metrics.reset()
        metrics.set_enabled(True)
        try:
            with PredictionServer(pool.model_config, graph, [state], config=config) as srv:
                srv.start()
                host, port = srv.address
                handle = srv._handle_event

                def faulty(event):
                    if event[0] == "request" and event[2][0] == "predict" and list(event[2][2]) == [13]:
                        raise RuntimeError("injected serve-loop fault")
                    handle(event)

                srv._handle_event = faulty
                with ServeClient(host, port, timeout=30) as first, ServeClient(host, port, timeout=30) as second:
                    assert np.array_equal(second.predict([1]), ref[[1]])
                    with pytest.raises(ServeError):
                        first.predict([13])
                    start = time.monotonic()
                    with pytest.raises(ServeError):
                        second.predict([2])
                    assert time.monotonic() - start < 1.0
                with pytest.raises(OSError):
                    socket.create_connection((host, port), timeout=1.0).close()
                assert metrics.counter_value("serve.internal_errors") == 1
            err = capsys.readouterr().err
            assert "Traceback" in err and "injected serve-loop fault" in err
        finally:
            metrics.reset()
            metrics.set_enabled(False)


class TestMalformedFrames:
    """The serve fault matrix's malformed-frame cases: a bad frame costs its
    sender an error reply or its connection, never the server."""

    @pytest.fixture
    def server(self, served):
        pool, graph, state, _ref = served
        config = ServeConfig(backend="serial", cache_nodes=0, max_wait_s=0.001)
        metrics.reset()
        metrics.set_enabled(True)
        try:
            with PredictionServer(pool.model_config, graph, [state], config=config) as srv:
                srv.start()
                yield srv
        finally:
            metrics.set_enabled(False)
            metrics.reset()

    @staticmethod
    def _connect(srv) -> socket.socket:
        sock = socket.create_connection(srv.address, timeout=5.0)
        assert _recv_frame(sock)[0] == "hello"
        return sock

    @pytest.mark.parametrize(
        "frame, error",
        [
            (("predict", 7), "predict takes"),
            (("predict", 7, [1], "extra"), "predict takes"),
            ((None, 7), "must be a string"),
            ((np.array([1, 2]), 7), "must be a string"),
        ],
        ids=["short-predict", "long-predict", "none-op", "array-op"],
    )
    def test_bad_request_gets_an_error_reply(self, server, served, frame, error):
        ref = served[3]
        with self._connect(server) as sock, ServeClient(*server.address, timeout=5.0) as healthy:
            _send_frame(sock, frame)
            status, rid, message = _recv_frame(sock)
            assert (status, rid) == ("err", 7) and error in message
            # the sender's connection and every other client keep working
            _send_frame(sock, ("predict", 8, np.array([3])))
            status, rid, scores = _recv_frame(sock)
            assert (status, rid) == ("ok", 8) and np.array_equal(scores, ref[[3]])
            assert np.array_equal(healthy.predict([4, 2, 4]), ref[[4, 2, 4]])

    @pytest.mark.parametrize("frame", [("predict",), 42, "predict"], ids=["one-field", "int", "str"])
    def test_frame_without_request_id_closes_its_connection(self, server, served, frame):
        ref = served[3]
        with ServeClient(*server.address, timeout=5.0) as healthy:
            before = healthy.predict([6, 1])
            with self._connect(server) as sock:
                _send_frame(sock, frame)
                assert sock.recv(1) == b"", "the server kept the connection open"
            assert metrics.snapshot()["counters"]["serve.bad_frames"] == 1
            after = healthy.predict([6, 1])
        assert np.array_equal(before, ref[[6, 1]]) and np.array_equal(after, before)

    def test_non_protocol_bytes_close_only_their_connection(self, server, served, monkeypatch):
        """An HTTP probe: its first 8 bytes read as a ~5e18-byte length."""
        ref = served[3]
        crashed = []
        monkeypatch.setattr(threading, "excepthook", crashed.append)
        with ServeClient(*server.address, timeout=5.0) as healthy:
            with self._connect(server) as sock:
                sock.sendall(b"GET / HTTP/1.1\r\nHost: localhost\r\n\r\n")
                # the reader waits for the rest of the "frame" instead of
                # allocating all of it up front
                sock.settimeout(0.2)
                with pytest.raises(socket.timeout):
                    sock.recv(1)
                sock.settimeout(5.0)
                sock.shutdown(socket.SHUT_WR)
                assert sock.recv(1) == b"", "the server kept the connection open"
            assert np.array_equal(healthy.predict([5]), ref[[5]])
        assert not crashed, [repr(args.exc_value) for args in crashed]

    def test_garbage_body_closes_its_connection(self, server, served):
        ref = served[3]
        with ServeClient(*server.address, timeout=5.0) as healthy:
            before = healthy.predict([9, 0, 9])
            with self._connect(server) as sock:
                sock.sendall(struct.pack(">Q", 9) + b"Xgarbage!")
                assert sock.recv(1) == b"", "the server kept the connection open"
            assert metrics.snapshot()["counters"]["serve.bad_frames"] == 1
            after = healthy.predict([9, 0, 9])
        assert np.array_equal(before, ref[[9, 0, 9]]) and np.array_equal(after, before)


class TestServeCli:
    def test_cli_round_trip(self, tmp_path, monkeypatch):
        """`repro serve` end to end: train a tiny pool, serve it, drive it
        with the load generator, shut it down over the wire."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        port_file = tmp_path / "serve.port"
        rc: dict = {}

        def serve():
            rc["code"] = main([
                "serve", "us", "gcn", "flickr", "--scale", "0.05", "-n", "2",
                "--serve-port-file", str(port_file), "--max-wait-ms", "1",
            ])

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = time.monotonic() + 120
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.1)
        assert port_file.exists(), "server never wrote its port file"
        host, port = port_file.read_text().split()
        out = run_load(host, int(port), requests=20, clients=2, pipeline=2,
                       nodes_per_request=4, seed=1)
        assert out["verified"] is True
        with ServeClient(host, int(port)) as client:
            assert client.shutdown()
        thread.join(timeout=60)
        assert not thread.is_alive() and rc["code"] == 0

    def test_cli_rejects_ensemble_vote(self, capsys):
        with pytest.raises(SystemExit, match="ensemble-vote"):
            main(["serve", "ensemble-vote", "gcn", "flickr"])

    def test_cli_rejects_unknown_method(self, capsys):
        assert main(["serve", "nope", "gcn", "flickr"]) == 2
        assert "unknown method" in capsys.readouterr().err


class TestCleanPathErrors:
    def test_summarize_missing_report(self):
        with pytest.raises(SystemExit, match="cannot read telemetry report"):
            main(["telemetry", "summarize", "/nonexistent/report.json"])

    def test_summarize_malformed_report(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        with pytest.raises(SystemExit, match="not a telemetry report"):
            main(["telemetry", "summarize", str(bad)])

    def test_loadgen_missing_port_file(self):
        from repro.serve.loadgen import main as loadgen_main

        with pytest.raises(SystemExit, match="cannot read port file"):
            loadgen_main(["--port-file", "/nonexistent/serve.port"])
