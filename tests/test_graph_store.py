"""mmap graph store: round-trip fidelity, budget enforcement, training parity."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.graph import GraphStore, MemoryBudgetError, parse_memory_budget
from repro.models import build_model
from repro.train import TrainConfig, train_model


@pytest.fixture()
def store(tiny_graph, tmp_path):
    return tiny_graph.to_store(tmp_path / "store")


class TestRoundTrip:
    def test_arrays_bit_identical(self, tiny_graph, store):
        g = store.graph()
        np.testing.assert_array_equal(g.csr.indptr, tiny_graph.csr.indptr)
        np.testing.assert_array_equal(g.csr.indices, tiny_graph.csr.indices)
        np.testing.assert_array_equal(np.asarray(g.features), tiny_graph.features)
        np.testing.assert_array_equal(g.labels, tiny_graph.labels)
        np.testing.assert_array_equal(g.train_mask, tiny_graph.train_mask)
        np.testing.assert_array_equal(g.val_mask, tiny_graph.val_mask)
        np.testing.assert_array_equal(g.test_mask, tiny_graph.test_mask)
        assert g.num_classes == tiny_graph.num_classes
        assert g.name == tiny_graph.name

    def test_row_slice_equality(self, tiny_graph, store):
        rng = np.random.default_rng(0)
        nodes = rng.choice(tiny_graph.num_nodes, size=37, replace=False)
        np.testing.assert_array_equal(store.gather_features(nodes), tiny_graph.features[nodes])

    def test_subgraph_equality(self, tiny_graph, store):
        g = store.graph()
        nodes = np.sort(np.random.default_rng(1).choice(tiny_graph.num_nodes, size=50, replace=False))
        a, b = tiny_graph.subgraph(nodes), g.subgraph(nodes)
        np.testing.assert_array_equal(a.csr.indptr, b.csr.indptr)
        np.testing.assert_array_equal(a.csr.indices, b.csr.indices)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_no_resident_feature_copy(self, store):
        g = store.graph()
        # the Graph constructor must pass the mmap view through un-copied
        assert np.asarray(g.features).base is not None
        assert not np.asarray(g.features).flags.owndata

    def test_chunked_writer_matches_array_writer(self, tiny_graph, tmp_path):
        chunks = [tiny_graph.features[i : i + 37] for i in range(0, tiny_graph.num_nodes, 37)]
        GraphStore.write(
            tmp_path / "chunked",
            csr=tiny_graph.csr,
            features=iter(chunks),
            labels=tiny_graph.labels,
            train_mask=tiny_graph.train_mask,
            val_mask=tiny_graph.val_mask,
            test_mask=tiny_graph.test_mask,
            num_classes=tiny_graph.num_classes,
            feature_dim=tiny_graph.feature_dim,
        )
        chunked = GraphStore(tmp_path / "chunked")
        np.testing.assert_array_equal(np.asarray(chunked.features), tiny_graph.features)

    def test_write_validates_row_count(self, tiny_graph, tmp_path):
        with pytest.raises(ValueError, match="feature rows"):
            GraphStore.write(
                tmp_path / "bad",
                csr=tiny_graph.csr,
                features=tiny_graph.features[:-1],
                labels=tiny_graph.labels,
                train_mask=tiny_graph.train_mask,
                val_mask=tiny_graph.val_mask,
                test_mask=tiny_graph.test_mask,
                num_classes=tiny_graph.num_classes,
            )

    def test_missing_store_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            GraphStore(tmp_path / "nope")

    def test_digest_is_cheap_and_stable(self, store, tiny_graph, tmp_path):
        other = tiny_graph.to_store(tmp_path / "again")
        assert store.digest() == other.digest()
        assert store.feature_digest == other.feature_digest


class TestBudget:
    def test_parse(self):
        assert parse_memory_budget(None) is None
        assert parse_memory_budget(1024) == 1024
        assert parse_memory_budget("64K") == 64 * 1024
        assert parse_memory_budget("2M") == 2 * 1024**2
        assert parse_memory_budget("2MB") == 2 * 1024**2
        assert parse_memory_budget("2MiB") == 2 * 1024**2
        assert parse_memory_budget("1.5G") == int(1.5 * 1024**3)
        with pytest.raises(ValueError):
            parse_memory_budget("lots")
        with pytest.raises(ValueError):
            parse_memory_budget(0)

    def test_env_budget(self, tiny_graph, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "3M")
        store = GraphStore(tiny_graph.to_store(tmp_path / "env").path)
        assert store.memory_budget == 3 * 1024**2

    def test_oversized_gather_raises(self, tiny_graph, tmp_path):
        row_bytes = tiny_graph.feature_dim * 8
        store = tiny_graph.to_store(tmp_path / "b", memory_budget=row_bytes * 8)
        store.gather_features(np.arange(8))  # exactly at the budget: fine
        with pytest.raises(MemoryBudgetError, match="exceeds"):
            store.gather_features(np.arange(9))

    def test_full_graph_operator_raises(self, tiny_graph, tmp_path):
        g = tiny_graph.to_store(tmp_path / "b", memory_budget="1M").graph()
        with pytest.raises(MemoryBudgetError, match="minibatch"):
            g.operator("gcn")
        with pytest.raises(MemoryBudgetError, match="minibatch"):
            g.attention_structure()

    def test_unbudgeted_operator_works(self, tiny_graph, store):
        g = store.graph()
        assert g.operator("gcn") is g.operator("gcn")  # cached like the base class

    def test_full_batch_training_rejected(self, tiny_graph, tmp_path):
        g = tiny_graph.to_store(tmp_path / "b", memory_budget="1M").graph()
        model = build_model("sage", g.feature_dim, g.num_classes, hidden_dim=8, seed=0)
        with pytest.raises(ValueError, match="minibatch"):
            train_model(model, g, TrainConfig(epochs=1), seed=0)

    def test_release_accounting(self, tiny_graph, tmp_path):
        row_bytes = tiny_graph.feature_dim * 8
        store = tiny_graph.to_store(tmp_path / "b", memory_budget=row_bytes * 64)
        for _ in range(64):  # push well past the release threshold
            store.gather_features(np.arange(16))
        # accounting must reset instead of accumulating forever
        assert store._touched < store._release_threshold

    def test_close_returns_promptly_mid_iteration(self, tiny_graph, tmp_path):
        """close() in the middle of a budgeted row-by-row read returns
        within a fixed bound, releases the pread descriptor, is idempotent,
        and the rest of the read still returns the stored rows (from the
        mmap)."""
        row_bytes = tiny_graph.feature_dim * 8
        store = tiny_graph.to_store(tmp_path / "b", memory_budget=row_bytes * 64)
        fd = store._features_fd
        chunks = np.array_split(np.arange(tiny_graph.num_nodes), 8)
        rows = [store.gather_features(chunk) for chunk in chunks[:4]]
        started = time.monotonic()
        store.close()
        store.close()
        assert time.monotonic() - started < 1.0
        assert fd is not None and store._features_fd is None
        rows += [store.gather_features(chunk) for chunk in chunks[4:]]
        np.testing.assert_array_equal(np.concatenate(rows), tiny_graph.features)


class TestStoreTrainingParity:
    def _train(self, graph, seed=11):
        model = build_model("sage", graph.feature_dim, graph.num_classes, hidden_dim=16, seed=0)
        cfg = TrainConfig(
            epochs=3, minibatch=True, batch_size=32, fanout=4, prefetch_depth=2, sample_workers=2
        )
        return train_model(model, graph, cfg, seed=seed)

    def test_store_backed_matches_in_ram(self, tiny_graph, store):
        ref = self._train(tiny_graph)
        got = self._train(store.graph())
        for name in ref.state_dict:
            np.testing.assert_array_equal(ref.state_dict[name], got.state_dict[name], err_msg=name)
        assert (ref.val_acc, ref.test_acc) == (got.val_acc, got.test_acc)

    def test_budgeted_store_matches_in_ram_for_sage(self, tiny_graph, tmp_path):
        """With a budget, eval goes through blocked k-hop evaluation — exact
        for SAGE's destination-degree aggregation, so even the budgeted run
        reproduces the in-RAM result bit-for-bit."""
        g = tiny_graph.to_store(tmp_path / "b", memory_budget="256K").graph()
        ref = self._train(tiny_graph)
        got = self._train(g)
        for name in ref.state_dict:
            np.testing.assert_array_equal(ref.state_dict[name], got.state_dict[name], err_msg=name)
        assert (ref.val_acc, ref.test_acc) == (got.val_acc, got.test_acc)

    def test_budgeted_run_is_deterministic(self, tiny_graph, tmp_path):
        g = tiny_graph.to_store(tmp_path / "b", memory_budget="256K").graph()
        a, b = self._train(g), self._train(g)
        for name in a.state_dict:
            np.testing.assert_array_equal(a.state_dict[name], b.state_dict[name], err_msg=name)
