"""Phase-1 training on layered blocks.

``train_model`` runs every full-batch step on the train split's cached
blocks, every minibatch step on its sampled subgraph's seed blocks and
every evaluation pass through ``forward_field``. The reference here is
the same run with ``forward_field`` swapped for the whole graph: logits
and dropout masks at the loss rows are the same bits, so the epoch-1 loss
is bitwise equal, and parameters differ only by the rounding of weight
gradients summed over fewer rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import GeneratorConfig, homophilous_graph
from repro.graph.blocks import BLOCK_EDGE_SHARE, Blocks, blocks_key, forward_field
from repro.models import build_model
from repro.train import TrainConfig, accuracy, evaluate, evaluate_logits, evaluate_rows, train_model
from repro.train import trainer

#: Sparse, with small train/val splits, so each split's 2-hop field is a
#: strict subset of the graph; widths 12 and 5 are not multiples of 8.
CFG = GeneratorConfig(
    num_nodes=600,
    num_classes=5,
    avg_degree=3.0,
    homophily=0.7,
    feature_dim=10,
    feature_noise=1.0,
    split=(0.1, 0.1, 0.8),
    name="sparse-train",
)

#: ``(arch, build_model kwargs)``: every model, GAT with and without
#: attention dropout.
MODELS = {
    "sage": ("sage", {}),
    "gcn": ("gcn", {}),
    "gat": ("gat", {"num_heads": 3}),
    "gat-attn": ("gat", {"num_heads": 3, "attn_dropout": 0.3}),
    "gin": ("gin", {}),
    "mlp": ("mlp", {}),
}


@pytest.fixture(scope="module")
def graph():
    return homophilous_graph(CFG, seed=3)


def make_model(graph, name, seed=0):
    arch, kwargs = MODELS[name]
    return build_model(arch, graph.feature_dim, graph.num_classes, hidden_dim=12, dropout=0.5, seed=seed, **kwargs)


def full_pass(monkeypatch):
    """Run ``train_model`` on the whole graph (the reference)."""
    monkeypatch.setattr(trainer, "forward_field", lambda graph, rows, hops, **rule: graph)


def assert_params_close(a: dict, b: dict, tol: float = 1e-12) -> None:
    assert a.keys() == b.keys()
    for name in a:
        assert np.max(np.abs(a[name] - b[name]), initial=0.0) <= tol, name


FULL_BATCH = TrainConfig(epochs=5, lr=0.02)
MINIBATCH = TrainConfig(epochs=3, lr=0.02, minibatch=True, batch_size=16, fanout=3)
#: One batch per epoch: the epoch-1 loss is then the first step's, which is
#: the full pass's bits (later batches start from parameters that differ
#: from the full-pass run's by rounding).
ONE_BATCH = TrainConfig(epochs=3, lr=0.02, minibatch=True, batch_size=64, fanout=3)


class TestBlockTrainingMatchesFullPass:
    @pytest.mark.parametrize("cfg", [FULL_BATCH, ONE_BATCH], ids=["full-batch", "minibatch"])
    @pytest.mark.parametrize("name", list(MODELS))
    def test_loss_bitwise_and_params_to_rounding(self, graph, name, cfg, monkeypatch):
        model = make_model(graph, name)
        if not cfg.minibatch:
            field = forward_field(graph, graph.train_idx, model.num_hops)
            assert isinstance(field, Blocks)
            assert len(field.input_rows) < graph.num_nodes
        blocked = train_model(model, graph, cfg, seed=4)
        with monkeypatch.context() as patch:
            full_pass(patch)
            full = train_model(make_model(graph, name), graph, cfg, seed=4)
        assert blocked.history[0][1] == full.history[0][1]  # epoch-1 loss, bit for bit
        assert [h[2] for h in blocked.history] == [h[2] for h in full.history]
        assert_params_close(blocked.state_dict, full.state_dict)
        assert blocked.test_acc == full.test_acc

    def test_full_batch_steps_use_the_cached_train_blocks(self, graph):
        model = make_model(graph, "sage")
        graph._block_cache.clear()
        train_model(model, graph, TrainConfig(epochs=2), seed=0)
        key = blocks_key(graph.train_idx, model.num_hops)
        assert key in graph._block_cache
        assert graph._block_cache[key].layers[0]._operators  # the step sliced its operators


class TestEvaluate:
    @pytest.mark.parametrize("name", ["sage", "gcn", "gat", "gin"])
    def test_accuracy_equals_full_pass_at_every_coverage(self, graph, name, crossing):
        """Evaluation reads cached blocks at any coverage, including row sets
        past the per-call crossover and every node."""
        model = make_model(graph, name, seed=2)
        full = evaluate_logits(model, graph)
        under, past = crossing(graph, model.num_hops)
        everything = np.arange(graph.num_nodes)
        for rows in (under, past, everything, graph.val_idx, graph.test_idx, under[::-1]):
            assert isinstance(forward_field(graph, rows, model.num_hops), Blocks)
            assert np.array_equal(evaluate_rows(model, graph, rows), full[rows])
            assert evaluate(model, graph, rows) == accuracy(full[rows], graph.labels[rows])


class TestBudgetedStore:
    def test_takes_the_whole_graph_and_blocked_evaluation(self, graph, tmp_path, monkeypatch):
        store_graph = graph.to_store(tmp_path / "store", memory_budget="1M").graph()
        model = make_model(graph, "sage")
        assert forward_field(store_graph, store_graph.val_idx, model.num_hops) is store_graph
        assert forward_field(store_graph, store_graph.val_idx, model.num_hops, backward=True) is store_graph
        calls = []
        blocked_eval = trainer.evaluate_blocked

        def counting(*args, **kwargs):
            calls.append(1)
            return blocked_eval(*args, **kwargs)

        monkeypatch.setattr(trainer, "evaluate_blocked", counting)
        on_store = train_model(model, store_graph, MINIBATCH, seed=1)
        assert len(calls) == MINIBATCH.epochs + 1  # every val pass and the test pass
        in_memory = train_model(make_model(graph, "sage"), graph, MINIBATCH, seed=1)
        assert on_store.history[0][1] == in_memory.history[0][1]


class TestResume:
    @pytest.mark.parametrize("cfg", [FULL_BATCH, MINIBATCH], ids=["full-batch", "minibatch"])
    def test_resumed_block_run_is_bit_identical(self, graph, cfg):
        reference = train_model(make_model(graph, "gat-attn"), graph, cfg, seed=5)
        snapshots = {}
        train_model(
            make_model(graph, "gat-attn"), graph, cfg, seed=5,
            on_epoch_end=lambda epoch, snapshot: snapshots.__setitem__(epoch, snapshot()),
        )
        mid = cfg.epochs // 2
        resumed = train_model(make_model(graph, "gat-attn"), graph, cfg, seed=5, epoch_state=snapshots[mid])
        for name in reference.state_dict:
            np.testing.assert_array_equal(reference.state_dict[name], resumed.state_dict[name])
        assert resumed.history == reference.history
        assert resumed.test_acc == reference.test_acc


class TestForwardFieldRule:
    """The one rule deciding blocks vs the whole graph, for serving (a
    forward on blocks built per flush), minibatch steps (a backward follows,
    blocks built per batch) and cached row sets (always blocks)."""

    def test_share_table(self):
        assert BLOCK_EDGE_SHARE == {False: 0.5, True: 0.7}

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "train-step"])
    def test_per_call_crossover_sits_at_the_share(self, graph, crossing, backward):
        hops = 2
        under, past = crossing(graph, hops, backward=backward)
        budget = BLOCK_EDGE_SHARE[backward] * hops * graph.num_edges
        blocks = forward_field(graph, under, hops, backward=backward, cached=False)
        assert isinstance(blocks, Blocks)
        assert blocks.num_edges <= budget
        assert forward_field(graph, past, hops, backward=backward, cached=False) is graph
        assert graph.blocks(past, hops).num_edges > budget

    def test_a_training_step_keeps_wider_fields_on_blocks(self, graph, crossing):
        forward_under, _ = crossing(graph, 2)
        step_under, _ = crossing(graph, 2, backward=True)
        assert len(step_under) > len(forward_under)

    def test_cached_blocks_come_from_the_graph_cache(self, graph):
        for rows in (graph.val_idx, np.arange(graph.num_nodes)):
            for backward in (False, True):
                assert forward_field(graph, rows, 2, backward=backward) is graph.blocks(rows, 2)
        uncached = forward_field(graph, graph.val_idx, 2, cached=False)
        assert uncached is not graph.blocks(graph.val_idx, 2)
        assert np.array_equal(uncached.input_rows, graph.blocks(graph.val_idx, 2).input_rows)

    def test_zero_hops_always_blocks(self, graph):
        for backward in (False, True):
            field = forward_field(graph, np.arange(graph.num_nodes), 0, backward=backward, cached=False)
            assert isinstance(field, Blocks)
            assert field.layers == ()
