"""Prefetching minibatch pipeline: determinism, seeding, resume, telemetry.

The contract under test is the PR's headline guarantee: sampled-minibatch
training results are a pure function of ``(config, graph, seed)`` — the
prefetch depth, the sampler-worker count and the executor can never change
a single bit of the trained weights.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.distributed import train_ingredients
from repro.graph import NeighborSampler, build_csr, khop_subgraph
from repro.models import build_model
from repro.telemetry import metrics
from repro.train import PrefetchPipeline, TrainConfig, evaluate, evaluate_blocked, train_model


def _train(graph, depth, workers, *, seed=11, epochs=3, arch="sage"):
    model = build_model(arch, graph.feature_dim, graph.num_classes, hidden_dim=16, seed=0)
    cfg = TrainConfig(
        epochs=epochs,
        minibatch=True,
        batch_size=32,
        fanout=4,
        prefetch_depth=depth,
        sample_workers=workers,
    )
    return train_model(model, graph, cfg, seed=seed)


def _assert_same_result(a, b, context=""):
    assert set(a.state_dict) == set(b.state_dict)
    for name in a.state_dict:
        np.testing.assert_array_equal(a.state_dict[name], b.state_dict[name], err_msg=f"{context}: {name}")
    assert a.val_acc == b.val_acc, context
    assert a.test_acc == b.test_acc, context
    assert a.epochs_run == b.epochs_run, context


class TestSeededStreams:
    """Per-(epoch, batch) RNG streams: order- and thread-independent."""

    def test_sample_is_pure(self, tiny_graph):
        s = NeighborSampler(tiny_graph, tiny_graph.train_idx, 16, hops=2, fanout=3, seed=5)
        sub1, pos1 = s.sample(2, 1)
        s.sample(0, 0)  # interleave other draws
        s.sample(2, 0)
        sub2, pos2 = s.sample(2, 1)
        np.testing.assert_array_equal(pos1, pos2)
        np.testing.assert_array_equal(sub1.features, sub2.features)
        np.testing.assert_array_equal(sub1.csr.indices, sub2.csr.indices)

    def test_epochs_differ(self, tiny_graph):
        s = NeighborSampler(tiny_graph, tiny_graph.train_idx, 16, hops=2, fanout=3, seed=5)
        assert not np.array_equal(s.batch_seeds(0, 0), s.batch_seeds(1, 0))

    def test_regression_vector(self, tiny_graph):
        """Pinned stream: a refactor that shifts the spawn-key scheme (and
        silently invalidates every cached/checkpointed minibatch run) must
        fail loudly here."""
        s = NeighborSampler(tiny_graph, tiny_graph.train_idx, 16, hops=2, fanout=3, seed=11)
        assert s.epoch_order(0)[:8].tolist() == [30, 59, 55, 76, 44, 14, 66, 7]
        assert s.batch_seeds(1, 0).tolist() == [
            32, 77, 72, 42, 92, 73, 157, 38, 64, 132, 99, 74, 26, 104, 131, 95,
        ]
        sub, pos = s.sample(1, 0)
        assert (sub.num_nodes, sub.num_edges) == (69, 404)
        assert pos.tolist() == [16, 39, 36, 23, 45, 37, 68, 20, 33, 56, 47, 38, 12, 49, 55, 46]

    def test_khop_seeded_regression(self):
        edges = [(i, (i + 1) % 20) for i in range(20)] + [(i, (i + 5) % 20) for i in range(20)]
        csr = build_csr(edges, 20)
        rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(1, 1)))
        nodes = khop_subgraph(csr, np.array([0, 3]), hops=2, fanout=2, rng=rng)
        assert nodes.tolist() == [0, 3, 4, 5, 10, 14, 17, 18, 19]

    def test_requires_exactly_one_rng_mode(self, tiny_graph):
        with pytest.raises(ValueError, match="exactly one"):
            NeighborSampler(tiny_graph, tiny_graph.train_idx, 16, hops=2, fanout=3)
        with pytest.raises(ValueError, match="exactly one"):
            NeighborSampler(
                tiny_graph, tiny_graph.train_idx, 16, hops=2, fanout=3,
                rng=np.random.default_rng(0), seed=1,
            )

    def test_legacy_shared_stream_iteration(self, tiny_graph):
        """The rng= mode still iterates (PLS-era callers)."""
        s = NeighborSampler(
            tiny_graph, tiny_graph.train_idx, 32, hops=2, fanout=3, rng=np.random.default_rng(0)
        )
        batches = list(s)
        assert len(batches) == len(s)


class TestPrefetchPipeline:
    def _sampler(self, graph, **kw):
        kw.setdefault("seed", 5)
        return NeighborSampler(graph, graph.train_idx, 16, hops=2, fanout=3, **kw)

    def test_order_and_content_match_inline(self, tiny_graph):
        sampler = self._sampler(tiny_graph)
        inline = [pos.tolist() for _, pos in sampler.iter_epoch(0)]
        with PrefetchPipeline(self._sampler(tiny_graph), prefetch_depth=3, num_workers=2) as pipe:
            prefetched = [pos.tolist() for _, pos in pipe.epoch(0)]
        assert inline == prefetched

    def test_multiple_epochs_one_pipeline(self, tiny_graph):
        with PrefetchPipeline(self._sampler(tiny_graph), prefetch_depth=2, num_workers=2) as pipe:
            first = [pos.tolist() for _, pos in pipe.epoch(0)]
            second = [pos.tolist() for _, pos in pipe.epoch(1)]
        assert first != second  # shuffled differently per epoch

    def test_depth_zero_is_inline(self, tiny_graph):
        pipe = PrefetchPipeline(self._sampler(tiny_graph), prefetch_depth=0, num_workers=4)
        assert pipe.num_workers == 0
        batches = list(pipe.epoch(0))
        assert len(batches) == len(pipe.sampler)
        pipe.close()

    def test_worker_error_propagates(self, tiny_graph):
        sampler = self._sampler(tiny_graph)

        def boom(epoch, index):
            raise RuntimeError("sampler exploded")

        sampler.sample = boom
        with PrefetchPipeline(sampler, prefetch_depth=2, num_workers=2) as pipe:
            with pytest.raises(RuntimeError, match="sampler exploded"):
                list(pipe.epoch(0))

    def test_close_is_idempotent_and_final(self, tiny_graph):
        pipe = PrefetchPipeline(self._sampler(tiny_graph), prefetch_depth=2, num_workers=2)
        list(pipe.epoch(0))
        pipe.close()
        pipe.close()
        with pytest.raises(RuntimeError, match="closed"):
            list(pipe.epoch(1))

    def test_close_returns_promptly_mid_epoch(self, tiny_graph):
        """close() mid-epoch, with the workers parked on a full lookahead,
        returns within a fixed bound and stops every worker; the suspended
        epoch then raises instead of waiting for a batch nothing produces."""
        pipe = PrefetchPipeline(self._sampler(tiny_graph), prefetch_depth=2, num_workers=2)
        batches = pipe.epoch(0)
        next(batches)
        threads = list(pipe._threads)
        started = time.monotonic()
        pipe.close()
        assert time.monotonic() - started < 1.0
        assert not any(t.is_alive() for t in threads)
        outcome = []

        def resume():
            try:
                next(batches)
            except RuntimeError as exc:
                outcome.append(str(exc))

        consumer = threading.Thread(target=resume, daemon=True)
        consumer.start()
        consumer.join(timeout=5.0)
        assert not consumer.is_alive()
        assert outcome == ["pipeline is closed"]

    def test_close_returns_promptly_while_sampling(self, tiny_graph):
        """close() while a worker is inside a slow sample waits for that
        one sample, not for the join timeout."""
        sampler = self._sampler(tiny_graph)
        sample, entered = sampler.sample, threading.Event()

        def slow(epoch, index):
            entered.set()
            time.sleep(0.2)
            return sample(epoch, index)

        sampler.sample = slow
        pipe = PrefetchPipeline(sampler, prefetch_depth=2, num_workers=1)
        batches = pipe.epoch(0)
        next(batches)
        entered.clear()
        assert entered.wait(5.0)  # the worker is inside its next sample
        threads = list(pipe._threads)
        started = time.monotonic()
        pipe.close()
        assert time.monotonic() - started < 1.0
        assert not any(t.is_alive() for t in threads)

    def test_validation(self, tiny_graph):
        with pytest.raises(ValueError, match="prefetch_depth"):
            PrefetchPipeline(self._sampler(tiny_graph), prefetch_depth=-1)
        with pytest.raises(ValueError, match="num_workers"):
            PrefetchPipeline(self._sampler(tiny_graph), num_workers=0)
        shared = NeighborSampler(
            tiny_graph, tiny_graph.train_idx, 16, hops=2, fanout=3, rng=np.random.default_rng(0)
        )
        with pytest.raises(ValueError, match="seeded-mode"):
            PrefetchPipeline(shared, prefetch_depth=1)

    def test_telemetry_instrumented(self, tiny_graph):
        metrics.reset()
        metrics.set_enabled(True)
        try:
            with PrefetchPipeline(self._sampler(tiny_graph), prefetch_depth=2, num_workers=2) as pipe:
                list(pipe.epoch(0))
            snap = metrics.snapshot(include_spans=False)
            assert "pipeline.sample_s" in snap["histograms"]
            assert "pipeline.consumer_stall_s" in snap["histograms"]
            assert "pipeline.queue_depth" in snap["gauges"]
        finally:
            metrics.set_enabled(False)
            metrics.reset()


class TestDeterminismMatrix:
    """Bit-identical TrainResult at any prefetch depth × worker count."""

    @pytest.mark.parametrize("depth", [1, 4])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_depth_workers_matrix(self, tiny_graph, depth, workers):
        reference = _train(tiny_graph, 0, 1)
        result = _train(tiny_graph, depth, workers)
        _assert_same_result(reference, result, f"depth={depth} workers={workers}")

    def test_gcn_prefetched_matches_inline(self, tiny_graph):
        _assert_same_result(_train(tiny_graph, 0, 1, arch="gcn"), _train(tiny_graph, 2, 2, arch="gcn"))

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_executor_matrix(self, tiny_graph, executor):
        cfg = TrainConfig(
            epochs=2, minibatch=True, batch_size=32, fanout=4, prefetch_depth=2, sample_workers=2
        )
        pool = train_ingredients(
            "sage", tiny_graph, n_ingredients=2, executor=executor,
            train_cfg=cfg, hidden_dim=16, num_workers=2, epoch_jitter=0,
        )
        reference = train_ingredients(
            "sage", tiny_graph, n_ingredients=2, executor="serial",
            train_cfg=TrainConfig(epochs=2, minibatch=True, batch_size=32, fanout=4),
            hidden_dim=16, num_workers=2, epoch_jitter=0,
        )
        for got, want in zip(pool.states, reference.states):
            for name in want:
                np.testing.assert_array_equal(got[name], want[name], err_msg=f"{executor}: {name}")

    def test_tcp_loopback_matches_serial(self, tiny_graph):
        cfg = TrainConfig(
            epochs=2, minibatch=True, batch_size=32, fanout=4, prefetch_depth=2, sample_workers=2
        )
        tcp = train_ingredients(
            "sage", tiny_graph, n_ingredients=2, executor="process", transport="tcp",
            train_cfg=cfg, hidden_dim=16, num_workers=2, epoch_jitter=0,
        )
        serial = train_ingredients(
            "sage", tiny_graph, n_ingredients=2, executor="serial",
            train_cfg=cfg, hidden_dim=16, num_workers=2, epoch_jitter=0,
        )
        for got, want in zip(tcp.states, serial.states):
            for name in want:
                np.testing.assert_array_equal(got[name], want[name], err_msg=name)


class TestPipelineResume:
    """Checkpoint/resume mid-run with the pipeline active (satellite)."""

    def _model(self, graph, seed=0):
        return build_model("sage", graph.feature_dim, graph.num_classes, hidden_dim=8, seed=seed)

    def test_resume_with_prefetch_active(self, tiny_graph):
        cfg = TrainConfig(
            epochs=4, lr=0.02, minibatch=True, batch_size=32, prefetch_depth=3, sample_workers=2
        )
        reference = train_model(self._model(tiny_graph), tiny_graph, cfg, seed=3)
        snapshots = {}
        train_model(
            self._model(tiny_graph), tiny_graph, cfg, seed=3,
            on_epoch_end=lambda epoch, snapshot: snapshots.__setitem__(epoch, snapshot()),
        )
        assert snapshots
        for epoch, state in snapshots.items():
            resumed = train_model(self._model(tiny_graph), tiny_graph, cfg, seed=3, epoch_state=state)
            _assert_same_result(reference, resumed, f"resume from epoch {epoch}")

    def test_resume_across_prefetch_settings(self, tiny_graph):
        """A snapshot taken inline resumes identically under prefetching —
        the perf knobs are not part of the training trajectory."""
        inline = TrainConfig(epochs=4, lr=0.02, minibatch=True, batch_size=32)
        prefetched = TrainConfig(
            epochs=4, lr=0.02, minibatch=True, batch_size=32, prefetch_depth=4, sample_workers=2
        )
        reference = train_model(self._model(tiny_graph), tiny_graph, inline, seed=3)
        snapshots = {}
        train_model(
            self._model(tiny_graph), tiny_graph, inline, seed=3,
            on_epoch_end=lambda epoch, snapshot: snapshots.__setitem__(epoch, snapshot()),
        )
        epoch = min(snapshots)
        resumed = train_model(
            self._model(tiny_graph), tiny_graph, prefetched, seed=3, epoch_state=snapshots[epoch]
        )
        _assert_same_result(reference, resumed, "inline snapshot resumed under prefetch")


class TestBlockedEvaluate:
    def test_matches_full_graph_for_sage(self, tiny_graph):
        model = build_model("sage", tiny_graph.feature_dim, tiny_graph.num_classes, hidden_dim=16, seed=0)
        full = evaluate(model, tiny_graph, tiny_graph.val_idx)
        blocked = evaluate_blocked(model, tiny_graph, tiny_graph.val_idx, batch_size=13)
        assert blocked == full

    def test_batch_size_invariant(self, tiny_graph):
        model = build_model("sage", tiny_graph.feature_dim, tiny_graph.num_classes, hidden_dim=16, seed=1)
        accs = {evaluate_blocked(model, tiny_graph, tiny_graph.val_idx, batch_size=b) for b in (7, 16, 1000)}
        assert len(accs) == 1


class TestTrainConfigValidation:
    """Bad sampler settings fail at construction, not mid-training."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"batch_size": -5},
            {"fanout": 0},
            {"fanout": -1},
            {"eval_every": 0},
            {"prefetch_depth": -1},
            {"sample_workers": 0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_accepts_valid(self):
        cfg = TrainConfig(batch_size=1, fanout=None, eval_every=2, prefetch_depth=0, sample_workers=3)
        assert cfg.fanout is None
