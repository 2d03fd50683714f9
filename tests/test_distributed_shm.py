"""Shared-memory graph transport (`repro.distributed.shm`).

The transport contract: a graph packed into one shared segment rebuilds
bit-identically through a few-hundred-byte picklable descriptor, attached
views are zero-copy, and the creator-owned segment disappears exactly
when the context manager exits — never earlier (a worker detaching or
dying must not unlink it) and never twice.
"""

from __future__ import annotations

import errno
import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.distributed import SharedGraphBuffer, attach_graph, train_ingredients
from repro.serve import PredictionServer, ServeClient, ServeConfig
from repro.soup import soup
from repro.train import TrainConfig, evaluate_logits


class TestSharedGraphBuffer:
    def test_round_trip_bit_identical(self, tiny_graph):
        with SharedGraphBuffer.create(tiny_graph) as buf:
            handle = attach_graph(buf.spec)
            g = handle.graph
            np.testing.assert_array_equal(g.csr.indptr, tiny_graph.csr.indptr)
            np.testing.assert_array_equal(g.csr.indices, tiny_graph.csr.indices)
            np.testing.assert_array_equal(g.features, tiny_graph.features)
            np.testing.assert_array_equal(g.labels, tiny_graph.labels)
            np.testing.assert_array_equal(g.train_mask, tiny_graph.train_mask)
            np.testing.assert_array_equal(g.val_mask, tiny_graph.val_mask)
            np.testing.assert_array_equal(g.test_mask, tiny_graph.test_mask)
            assert g.num_classes == tiny_graph.num_classes
            assert g.name == tiny_graph.name

    def test_attached_views_are_zero_copy(self, tiny_graph):
        """The rebuilt graph's arrays must view the shared mapping, not
        private copies — the whole point of the transport."""
        with SharedGraphBuffer.create(tiny_graph) as buf:
            handle = attach_graph(buf.spec)
            for arr in (handle.graph.features, handle.graph.labels, handle.graph.csr.indices):
                assert not arr.flags.owndata

    def test_spec_is_small_and_picklable(self, tiny_graph):
        """The descriptor crossing the process boundary must stay tiny no
        matter the graph size (it replaces a full graph pickle)."""
        with SharedGraphBuffer.create(tiny_graph) as buf:
            payload = pickle.dumps(buf.spec)
            assert len(payload) < 2048
            spec = pickle.loads(payload)
            assert spec == buf.spec
            assert spec.nbytes > 0

    def test_unlink_is_idempotent(self, tiny_graph):
        buf = SharedGraphBuffer.create(tiny_graph)
        buf.unlink()
        buf.unlink()  # second release must be a no-op, not an error

    def test_segment_released_on_context_exit(self, tiny_graph):
        with SharedGraphBuffer.create(tiny_graph) as buf:
            spec = buf.spec
            attach_graph(spec)  # attachable while the context is live
        with pytest.raises(FileNotFoundError):
            attach_graph(spec)

    def test_segment_released_when_pool_body_raises(self, tiny_graph):
        """The executor wraps pool lifetime in the context manager; an
        exception mid-pool must still unlink the segment."""
        with pytest.raises(RuntimeError, match="boom"):
            with SharedGraphBuffer.create(tiny_graph) as buf:
                spec = buf.spec
                raise RuntimeError("boom")
        with pytest.raises(FileNotFoundError):
            attach_graph(spec)

    def test_worker_detach_does_not_unlink(self, tiny_graph):
        """A worker closing (or dying with) its attachment must leave the
        segment alive for its siblings — only the creator unlinks."""
        with SharedGraphBuffer.create(tiny_graph) as buf:
            first = attach_graph(buf.spec)
            first.close()
            second = attach_graph(buf.spec)  # still attachable
            np.testing.assert_array_equal(second.graph.features, tiny_graph.features)


class TestSegmentCreationFailure:
    """A platform whose shared memory refuses new segments: the driver
    warns and ships the graph as pickled arrays, and every role still
    computes bit-identical results from them."""

    @pytest.fixture
    def no_segments(self, monkeypatch):
        attach = shared_memory.SharedMemory

        def refuse_create(name=None, create=False, size=0, **kwargs):
            if create:
                raise OSError(errno.ENOSPC, "No space left on device")
            return attach(name=name, create=create, size=size, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse_create)

    def test_ingredients_role_uses_arrays(self, no_segments, tiny_graph):
        kw = dict(train_cfg=TrainConfig(epochs=3, lr=0.05), base_seed=3, hidden_dim=8)
        serial = train_ingredients("gcn", tiny_graph, 2, **kw)
        with pytest.warns(RuntimeWarning, match="shared-memory"):
            pool = train_ingredients(
                "gcn", tiny_graph, 2, executor="process", num_workers=2, shm=True, **kw
            )
        for a, b in zip(serial.states, pool.states):
            for name in a:
                assert np.array_equal(a[name], b[name]), name
        assert serial.val_accs == pool.val_accs

    def test_serve_role_uses_arrays(self, no_segments, gcn_pool, tiny_graph):
        state = soup("us", gcn_pool, tiny_graph).state_dict
        model = gcn_pool.make_model()
        model.load_state_dict(state)
        ref = evaluate_logits(model, tiny_graph)
        config = ServeConfig(backend="pipe", num_workers=1, cache_nodes=0, max_wait_s=0.001)
        with PredictionServer(gcn_pool.model_config, tiny_graph, [state], config=config) as srv:
            with pytest.warns(RuntimeWarning, match="shared-memory"):
                srv.start()
            with ServeClient(*srv.address) as client:
                ids = list(range(0, 40))
                assert np.array_equal(client.predict(ids), ref[ids])
