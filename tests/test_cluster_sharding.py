"""Sharded graph distribution across the cluster runtime.

Covers the dispatch/assembly glue (:mod:`repro.distributed.shards`), the
per-worker context specialization, the streamed-result protocol, the
encode-once fallback frame, and the end-to-end determinism contract:
sharded Phase-1 training and Phase-2 evaluation are bit-identical to the
unsharded serial path over both transports.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.distributed.cluster import (
    ClusterError,
    TcpTransport,
    _ResultAssembler,
    _STREAMED,
    _send_result,
    _specialize_context,
)
from repro.distributed.ingredients import train_ingredients
from repro.distributed.shards import ShardDispatch, ShardedGraphSource
from repro.distributed.wire import decode_frame
from repro.graph.shard import shard_to_arrays
from repro.soup.engine import Candidate, make_evaluator, uniform_weights
from repro.telemetry import metrics
from repro.train import TrainConfig


def _states_equal(a: list[dict], b: list[dict]) -> bool:
    return all(
        set(sa) == set(sb) and all(np.array_equal(sa[k], sb[k]) for k in sa)
        for sa, sb in zip(a, b)
    )


# ---------------------------------------------------------------------------
# dispatch / source units
# ---------------------------------------------------------------------------


class TestShardDispatch:
    def test_frame_encoded_once(self, tiny_graph):
        with ShardDispatch(tiny_graph, 2, shm=False) as dispatch:
            assert dispatch.frame(0) is dispatch.frame(0)  # cached bytes reused
            kind, sid, arrays, meta = decode_frame(dispatch.frame(1))
            assert (kind, sid) == ("shard", 1)
            ref_arrays, ref_meta = shard_to_arrays(dispatch.shards[1])
            assert meta == ref_meta
            for key, value in ref_arrays.items():
                np.testing.assert_array_equal(arrays[key], value)

    def test_context_ref_specs_toggle(self, tiny_graph):
        with ShardDispatch(tiny_graph, 2, shm=True) as dispatch:
            assert dispatch.has_specs
            assert "specs" in dispatch.context_ref()
            assert "specs" not in dispatch.context_ref(specs=False)
        with ShardDispatch(tiny_graph, 2, shm=False) as dispatch:
            assert not dispatch.has_specs
            assert "specs" not in dispatch.context_ref()

    def test_invalid_k(self, tiny_graph):
        with pytest.raises(ValueError):
            ShardDispatch(tiny_graph, 0)

    def test_release_idempotent(self, tiny_graph):
        dispatch = ShardDispatch(tiny_graph, 2, shm=True)
        dispatch.release()
        dispatch.release()


class TestShardedGraphSource:
    def test_shm_path_assembles_exact(self, tiny_graph):
        with ShardDispatch(tiny_graph, 3, shm=True) as dispatch:
            ref = dict(dispatch.context_ref())
            ref["assigned"] = 1
            source = ShardedGraphSource(ref)
            assert source.holds() == {1}  # eager assigned-shard load only
            graph = source.graph
            assert source.holds() == {0, 1, 2}
            np.testing.assert_array_equal(graph.features, tiny_graph.features)
            np.testing.assert_array_equal(graph.csr.indices, tiny_graph.csr.indices)
            source.close()

    def test_fetch_path_batches_missing(self, tiny_graph):
        with ShardDispatch(tiny_graph, 3, shm=False) as dispatch:
            calls = []

            def fetch(sids):
                calls.append(tuple(sids))
                return {
                    int(sid): shard_to_arrays(dispatch.shards[int(sid)]) for sid in sids
                }

            ref = dict(dispatch.context_ref())
            ref["assigned"] = 2
            source = ShardedGraphSource(ref, fetch=fetch)
            assert calls == [(2,)]  # handshake ships only the assigned shard
            graph = source.graph
            assert calls == [(2,), (0, 1)]  # one batched round trip for the rest
            np.testing.assert_array_equal(graph.labels, tiny_graph.labels)
            source.close()

    def test_no_channel_raises(self, tiny_graph):
        with ShardDispatch(tiny_graph, 2, shm=False) as dispatch:
            source = ShardedGraphSource(dispatch.context_ref())
            with pytest.raises(RuntimeError):
                _ = source.graph


class TestSpecializeContext:
    def test_grafts_assigned_and_fetch(self):
        context = {"graph_ref": {"kind": "shards", "k": 3}, "other": 1}
        fetch = object()
        out = _specialize_context(context, 7, fetch=fetch)
        assert out is not context  # shared context stays cacheable
        assert out["graph_ref"]["assigned"] == 7 % 3
        assert out["graph_ref"]["_fetch"] is fetch
        assert "assigned" not in context["graph_ref"]
        assert out["other"] == 1

    def test_passthrough_without_shard_refs(self):
        context = {"graph_ref": {"kind": "shm", "spec": None}}
        assert _specialize_context(context, 4) is context
        assert _specialize_context("opaque", 4) == "opaque"


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
        transport._fallback_value = None
        transport._fallback_frame_bytes = None
        transport._labels = {}
        transport.payload_bytes = {}
        return transport

    def test_fallback_frame_serialized_once(self):
        calls = []

        def fallback():
            calls.append(1)
            return {"graph_ref": {"kind": "arrays", "payload": {"n": 1}}}

        transport = self._bare_transport(fallback)
        frame = transport._fallback_frame()
        assert transport._fallback_frame() is frame  # cached bytes, no re-pickle
        assert len(calls) == 1
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
# end-to-end determinism: sharded == unsharded, both phases, both transports
# ---------------------------------------------------------------------------


class TestPhase1Sharded:
    @pytest.fixture(scope="class")
    def reference(self, tiny_graph):
        return train_ingredients(
            "gcn", tiny_graph, 3, TrainConfig(epochs=2, lr=0.05), base_seed=9
        )

    @pytest.mark.parametrize(
        "transport,kwargs",
        [
            ("pipe", {}),
            ("tcp", {}),
            ("tcp", {"shm": False}),  # pure fetch path: shards cross the socket
        ],
    )
    def test_bit_identical_to_serial(self, tiny_graph, reference, transport, kwargs):
        pool = train_ingredients(
            "gcn", tiny_graph, 3, TrainConfig(epochs=2, lr=0.05), base_seed=9,
            executor="process", queue="dynamic", transport=transport,
            num_workers=2, shards=2, **kwargs,
        )
        assert _states_equal(reference.states, pool.states)
        assert pool.val_accs == reference.val_accs

    def test_shards_require_process_dynamic(self, tiny_graph):
        with pytest.raises(ValueError, match="shards"):
            train_ingredients("gcn", tiny_graph, 2, shards=2)

    def test_pipe_shards_require_shm(self, tiny_graph):
        with pytest.raises(ValueError, match="shm"):
            train_ingredients(
                "gcn", tiny_graph, 2, executor="process", queue="dynamic",
                shards=2, shm=False,
            )

    def test_negative_shards_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            train_ingredients("gcn", tiny_graph, 2, shards=-1)

    def test_sharded_attach_metrics(self, tiny_graph):
        metrics.reset()
        metrics.set_enabled(True)
        try:
            train_ingredients(
                "gcn", tiny_graph, 2, TrainConfig(epochs=1), base_seed=9,
                executor="process", queue="dynamic", num_workers=2, shards=2,
            )
            sources = metrics.sources()
            attaches = sum(
                snap["counters"].get("shard.attaches", 0) for snap in sources.values()
            )
            # every worker attaches all k=2 shards by its first task
            assert attaches >= 2
        finally:
            metrics.set_enabled(False)
            metrics.reset()


class TestPhase2Sharded:
    @pytest.fixture(scope="class")
    def candidates(self, gcn_pool):
        n = len(gcn_pool)
        return [
            Candidate(weights=uniform_weights(n)),
            Candidate(weights=np.eye(n)[0]),
            Candidate(weights=uniform_weights(n), split="test"),
        ]

    @pytest.fixture(scope="class")
    def reference(self, gcn_pool, tiny_graph, candidates):
        with make_evaluator(gcn_pool, tiny_graph) as ev:
            return ev.evaluate(candidates)

    @pytest.mark.parametrize(
        "transport,kwargs",
        [
            ("pipe", {}),
            ("tcp", {"shm": False}),
        ],
    )
    def test_bit_identical_to_serial(
        self, gcn_pool, tiny_graph, candidates, reference, transport, kwargs
    ):
        with make_evaluator(
            gcn_pool, tiny_graph, backend="process", transport=transport,
            num_workers=2, shards=2, **kwargs,
        ) as ev:
            scores = ev.evaluate(candidates)
        assert scores == reference
        assert [type(s) for s in scores] == [type(r) for r in reference]

    def test_shards_require_process_backend(self, gcn_pool, tiny_graph):
        with pytest.raises(ValueError, match="process"):
            make_evaluator(gcn_pool, tiny_graph, backend="serial", shards=2)

    def test_pipe_shards_require_shm(self, gcn_pool, tiny_graph):
        with pytest.raises(ValueError, match="shm"):
            with make_evaluator(
                gcn_pool, tiny_graph, backend="process", shards=2, shm=False
            ) as ev:
                ev.evaluate([Candidate(weights=uniform_weights(len(gcn_pool)))])
