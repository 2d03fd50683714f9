"""LS and PLS share one alpha-descent loop.

The loop must reproduce the two descents it replaced bit for bit (the
verbatim copies in tests/_soup_reference.py), and free each epoch's tape
before the next one, so a soup's peak memory does not grow with epochs.

Peaks are compared on a warmed evaluator without a score cache: a cold
evaluator builds its model inside the measured region, and
``load_state_dict`` then frees those first parameter buffers while their
ids stay in the meter's seen set, so a later buffer at a reused address
goes uncounted and the peak reads low by an allocator-dependent amount.
"""

from __future__ import annotations

import numpy as np
import pytest

import _soup_reference as reference
from repro.distributed import train_ingredients
from repro.graph import partition_graph
from repro.soup import PLSConfig, SoupConfig, learned_soup, make_evaluator, partition_learned_soup
from repro.soup.extensions import DropoutSoupConfig, ingredient_dropout_soup
from repro.train import TrainConfig


@pytest.fixture(scope="module")
def sage_pool(tiny_graph):
    return train_ingredients(
        "sage", tiny_graph, n_ingredients=3, train_cfg=TrainConfig(epochs=10, lr=0.02), base_seed=4, hidden_dim=8
    )


@pytest.fixture(scope="module")
def partitions(tiny_graph):
    return {k: partition_graph(tiny_graph, k, method="metis", node_weights="val", seed=0) for k in (4, 16)}


@pytest.fixture
def warm_evaluator(tiny_graph):
    """``make(pool)``: an evaluator whose model is already built and whose
    score cache is off, so every run scores its restarts afresh."""
    made = []

    def make(pool):
        ev = make_evaluator(pool, tiny_graph, cache_size=0)
        ev.accuracy_of(weights=np.full(len(pool), 1.0 / len(pool)), split="val")
        made.append(ev)
        return ev

    yield make
    for ev in made:
        ev.close()


FAST = dict(epochs=10, lr=0.5)

LS_CASES = {
    "softmax": ("gcn_pool", {}),
    "sparsemax": ("gcn_pool", dict(normalize="sparsemax", alpha_init="uniform")),
    "none": ("gcn_pool", dict(normalize="none", cosine=False)),
    "val-batch": ("gcn_pool", dict(val_batch_size=9)),
    "early-stopping": ("gcn_pool", dict(epochs=30, lr=3.0, early_stopping=2)),
    "entropy": ("gcn_pool", dict(alpha_entropy_coef=0.2)),
    "restarts": ("gcn_pool", dict(n_restarts=3)),
    "last-epoch": ("gcn_pool", dict(select_best=False, momentum=0.0)),
    "no-holdout": ("gcn_pool", dict(holdout_fraction=0.0)),
    "gat": ("gat_pool", dict(granularity="module")),
    "sage": ("sage_pool", dict(val_batch_size=12, n_restarts=2)),
}

PLS_CASES = {
    "R=2": ("gcn_pool", dict(num_partitions=4, partition_budget=2)),
    "R=K": ("gcn_pool", dict(num_partitions=4, partition_budget=4)),
    "R=1": ("gcn_pool", dict(num_partitions=4, partition_budget=1)),
    "skips": ("gcn_pool", dict(num_partitions=16, partition_budget=1, holdout_fraction=0.6)),
    "skips-early-stopping": (
        "gcn_pool",
        dict(epochs=40, num_partitions=16, partition_budget=1, holdout_fraction=0.5, early_stopping=5),
    ),
    "sparsemax": ("gcn_pool", dict(num_partitions=4, partition_budget=2, normalize="sparsemax")),
    "none": ("gcn_pool", dict(num_partitions=4, partition_budget=2, normalize="none")),
    "val-batch": ("gcn_pool", dict(num_partitions=4, partition_budget=2, val_batch_size=5)),
    "early-stopping": (
        "gcn_pool",
        dict(epochs=30, lr=3.0, num_partitions=4, partition_budget=3, early_stopping=2),
    ),
    "entropy": ("gcn_pool", dict(num_partitions=4, partition_budget=2, alpha_entropy_coef=0.2)),
    "restarts": ("gcn_pool", dict(num_partitions=16, partition_budget=2, n_restarts=3)),
    "last-epoch": ("gcn_pool", dict(num_partitions=4, partition_budget=2, select_best=False)),
    "no-holdout": ("gcn_pool", dict(num_partitions=4, partition_budget=2, holdout_fraction=0.0)),
    "gat": ("gat_pool", dict(num_partitions=4, partition_budget=2)),
    "sage-R=1": ("sage_pool", dict(num_partitions=16, partition_budget=1, val_batch_size=2)),
    "sage-R=K": ("sage_pool", dict(num_partitions=4, partition_budget=4, n_restarts=2)),
}


def _assert_same_soup(result, expected) -> None:
    assert result.method == expected.method
    assert result.state_dict.keys() == expected.state_dict.keys()
    for name in expected.state_dict:
        assert np.array_equal(result.state_dict[name], expected.state_dict[name]), name
    assert result.val_acc == expected.val_acc and result.test_acc == expected.test_acc
    for key in ("alphas", "weights"):
        assert np.array_equal(result.extras[key], expected.extras[key]), key
    for key in ("history", "restart_val_accs", "best_restart", "group_names", "n_restarts"):
        assert result.extras[key] == expected.extras[key], key
    assert result.extras["skipped_epochs"] == expected.extras.get("skipped_epochs", 0)
    assert result.peak_memory <= expected.peak_memory


class TestMatchesReference:
    @pytest.mark.parametrize("case", sorted(LS_CASES))
    def test_learned_soup(self, case, request, tiny_graph, warm_evaluator):
        pool_name, overrides = LS_CASES[case]
        pool = request.getfixturevalue(pool_name)
        cfg = SoupConfig(**{**FAST, "seed": 3, **overrides})
        ev = warm_evaluator(pool)
        result = learned_soup(pool, tiny_graph, cfg, evaluator=ev)
        _assert_same_soup(result, reference.learned_soup(pool, tiny_graph, cfg, evaluator=ev))

    @pytest.mark.parametrize("case", sorted(PLS_CASES))
    def test_partition_learned_soup(self, case, request, tiny_graph, partitions, warm_evaluator):
        pool_name, overrides = PLS_CASES[case]
        pool = request.getfixturevalue(pool_name)
        cfg = PLSConfig(**{**FAST, "seed": 3, **overrides})
        partition = partitions[cfg.num_partitions]
        ev = warm_evaluator(pool)
        result = partition_learned_soup(pool, tiny_graph, cfg, partition=partition, evaluator=ev)
        expected = reference.partition_learned_soup(pool, tiny_graph, cfg, partition=partition, evaluator=ev)
        _assert_same_soup(result, expected)
        assert result.peak_memory == expected.peak_memory
        for key in ("partition_cut_edges", "partition_imbalance", "partition_ratio", "subgraph_diversity"):
            assert result.extras[key] == expected.extras[key], key

    def test_cases_reach_the_skip_paths(self, gcn_pool, tiny_graph, partitions):
        """The skip cases do skip epochs, and some kept epoch there has no
        holdout row, so the oracle covers both branches of the loop."""
        _, overrides = PLS_CASES["skips-early-stopping"]
        cfg = PLSConfig(**{**FAST, "seed": 3, **overrides})
        result = partition_learned_soup(gcn_pool, tiny_graph, cfg, partition=partitions[16])
        assert result.extras["skipped_epochs"] > 0
        assert any(acc < 0 for _, _, acc in result.extras["history"])


class TestEpochTapeIsFreed:
    """Each epoch's logits, loss and soup parameters are gone before the
    next forward, so the peak is one epoch's peak at any epoch count."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda pool, graph, epochs, ev: learned_soup(pool, graph, SoupConfig(epochs=epochs, lr=0.5), ev),
            lambda pool, graph, epochs, ev: ingredient_dropout_soup(
                pool, graph, DropoutSoupConfig(epochs=epochs, lr=0.5), ev
            ),
            lambda pool, graph, epochs, ev: partition_learned_soup(
                pool, graph, PLSConfig(epochs=epochs, lr=0.5, num_partitions=4, partition_budget=4), evaluator=ev
            ),
        ],
        ids=["ls", "ls-dropout", "pls"],
    )
    def test_peak_independent_of_epochs(self, run, gcn_pool, tiny_graph, warm_evaluator):
        ev = warm_evaluator(gcn_pool)
        peaks = [run(gcn_pool, tiny_graph, epochs, ev).peak_memory for epochs in (1, 2, 20)]
        assert peaks[0] == peaks[1] == peaks[2], peaks
