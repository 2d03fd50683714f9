"""Phase-2 candidate-evaluation engine: mixing, views, determinism.

The acceptance contract under test: every registered souping method runs
through the shared evaluator and returns bit-identical
``SoupResult.state_dict`` / ``val_acc`` / ``test_acc`` for a fixed seed,
whether it builds its own evaluator or shares one, and whether scores
come from the model or from the score cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.soup import (
    SOUP_METHODS,
    Candidate,
    DropoutSoupConfig,
    PLSConfig,
    SoupConfig,
    eval_state,
    make_evaluator,
    mix_candidate,
    soup,
    stack_flat_states,
)
from repro.soup.state import layer_groups

#: Per-method kwargs sized for the tiny test graph (seconds, not minutes).
METHOD_KWARGS = {
    "us": {},
    "greedy": {},
    "gis": {"granularity": 5},
    "ls": {"cfg": SoupConfig(epochs=3, lr=0.5, n_restarts=2)},
    "pls": {"cfg": PLSConfig(epochs=3, lr=0.5, num_partitions=4, partition_budget=2)},
    "ls-dropout": {"cfg": DropoutSoupConfig(epochs=3, lr=0.5)},
    "ls-finetune": {"cfg": SoupConfig(epochs=2, lr=0.5), "finetune_epochs": 2},
    "diversity": {},
    "radin": {"eval_budget": 2},
    "sparse": {},
    "ensemble-logit": {},
    "ensemble-vote": {},
}


def run_all_methods(pool, graph, evaluator=None):
    return {
        name: soup(name, pool, graph, evaluator=evaluator, **METHOD_KWARGS[name])
        for name in SOUP_METHODS
    }


def assert_results_identical(a, b, label):
    assert set(a.state_dict) == set(b.state_dict), label
    for name in a.state_dict:
        np.testing.assert_array_equal(a.state_dict[name], b.state_dict[name], err_msg=f"{label}:{name}")
    assert a.val_acc == b.val_acc, label
    assert a.test_acc == b.test_acc, label


class TestBackendDeterminism:
    """All 12 methods: bit-identical results through any evaluator."""

    @pytest.fixture(scope="class")
    def serial_results(self, gcn_pool, tiny_graph):
        return run_all_methods(gcn_pool, tiny_graph)

    def test_method_kwargs_cover_registry(self):
        assert set(METHOD_KWARGS) == set(SOUP_METHODS)

    def test_bit_identical_without_score_cache(self, gcn_pool, tiny_graph, serial_results):
        """Every score recomputed: the cache never changes a result."""
        with make_evaluator(gcn_pool, tiny_graph, cache_size=0) as ev:
            results = run_all_methods(gcn_pool, tiny_graph, evaluator=ev)
        for name, result in results.items():
            assert_results_identical(serial_results[name], result, f"uncached/{name}")

    def test_default_matches_explicit_serial(self, gcn_pool, tiny_graph, serial_results):
        """evaluator=None (the legacy call shape) matches one evaluator
        shared by every method."""
        with make_evaluator(gcn_pool, tiny_graph) as ev:
            again = run_all_methods(gcn_pool, tiny_graph, evaluator=ev)
        for name, result in again.items():
            assert_results_identical(serial_results[name], result, f"serial-explicit/{name}")


class TestMixCandidate:
    def test_flat_vector_mix_matches_tensordot(self, gcn_pool):
        flats, params = stack_flat_states(gcn_pool.states)
        weights = np.linspace(0.1, 0.4, len(gcn_pool))
        mixed = mix_candidate(flats, params, weights)
        for name in gcn_pool.param_names():
            stack = np.stack([sd[name] for sd in gcn_pool.states])
            np.testing.assert_allclose(
                mixed[name], np.tensordot(weights, stack, axes=(0, 0)), atol=1e-12
            )

    def test_basis_vector_reproduces_ingredient_bitwise(self, gcn_pool):
        flats, params = stack_flat_states(gcn_pool.states)
        e = np.zeros(len(gcn_pool))
        e[1] = 1.0
        mixed = mix_candidate(flats, params, e)
        for name, value in gcn_pool.states[1].items():
            np.testing.assert_array_equal(mixed[name], value)

    def test_grouped_mix_matches_per_group_tensordot(self, gcn_pool):
        flats, params = stack_flat_states(gcn_pool.states)
        names = gcn_pool.param_names()
        group_ids, group_names = layer_groups(names, "layer")
        rng = np.random.default_rng(0)
        weights = rng.random((len(gcn_pool), len(group_names)))
        mixed = mix_candidate(flats, params, weights, groups=group_ids)
        for name, g in zip(names, group_ids):
            stack = np.stack([sd[name] for sd in gcn_pool.states])
            np.testing.assert_allclose(
                mixed[name], np.tensordot(weights[:, int(g)], stack, axes=(0, 0)), atol=1e-12
            )

    def test_grouped_mix_requires_groups(self, gcn_pool):
        flats, params = stack_flat_states(gcn_pool.states)
        with pytest.raises(ValueError, match="groups"):
            mix_candidate(flats, params, np.ones((len(gcn_pool), 2)))

    def test_wrong_weight_length_rejected(self, gcn_pool):
        flats, params = stack_flat_states(gcn_pool.states)
        with pytest.raises(ValueError, match="pool size"):
            mix_candidate(flats, params, np.ones(len(gcn_pool) + 1))


class TestCandidateValidation:
    def test_weights_xor_state(self):
        with pytest.raises(ValueError, match="exactly one"):
            Candidate()
        with pytest.raises(ValueError, match="exactly one"):
            Candidate(weights=np.ones(2), state={"w": np.ones(2)})

    def test_unknown_split_rejected(self):
        with pytest.raises(ValueError, match="split"):
            Candidate(weights=np.ones(2), split="holdout")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Candidate(weights=np.ones(2), kind="loss")

    def test_acc_needs_node_selection(self):
        with pytest.raises(ValueError, match="split or an indices"):
            Candidate(weights=np.ones(2), split=None)

    def test_grouped_weights_need_groups(self):
        with pytest.raises(ValueError, match="groups"):
            Candidate(weights=np.ones((2, 3)))


class TestEvaluatorApi:
    def test_pool_size_mismatch_rejected(self, gcn_pool, tiny_graph):
        from repro.soup import uniform_soup

        with make_evaluator(gcn_pool, tiny_graph) as ev:
            sub = gcn_pool.subset([0, 1])
            with pytest.raises(ValueError, match="ingredients"):
                uniform_soup(sub, tiny_graph, evaluator=ev)

    def test_graph_mismatch_rejected(self, gcn_pool, tiny_graph, small_graph):
        from repro.soup import uniform_soup

        with make_evaluator(gcn_pool, tiny_graph) as ev:
            with pytest.raises(ValueError, match="different graph"):
                uniform_soup(gcn_pool, small_graph, evaluator=ev)

    def test_wrong_candidate_width_rejected(self, gcn_pool, tiny_graph):
        with make_evaluator(gcn_pool, tiny_graph) as ev:
            with pytest.raises(ValueError, match="evaluator pool holds"):
                ev.evaluate([Candidate(weights=np.ones(len(gcn_pool) + 2))])

    def test_closed_evaluator_rejects_batches(self, gcn_pool, tiny_graph):
        ev = make_evaluator(gcn_pool, tiny_graph)
        ev.close()
        with pytest.raises(RuntimeError, match="closed"):
            ev.evaluate([Candidate(weights=np.full(len(gcn_pool), 0.25))])

    def test_logits_kind_matches_eval_logits(self, gcn_pool, tiny_graph):
        from repro.train import evaluate_logits

        model = gcn_pool.make_model()
        model.load_state_dict(gcn_pool.states[0])
        expected = evaluate_logits(model, tiny_graph)
        e = np.zeros(len(gcn_pool))
        e[0] = 1.0
        with make_evaluator(gcn_pool, tiny_graph) as ev:
            full = ev.evaluate([Candidate(weights=e, split=None, kind="logits")])[0]
            val_only = ev.evaluate([Candidate(weights=e, split="val", kind="logits")])[0]
        np.testing.assert_array_equal(full, expected)
        np.testing.assert_array_equal(val_only, expected[tiny_graph.val_idx])

    def test_custom_indices_accuracy(self, gcn_pool, tiny_graph):
        idx = tiny_graph.val_idx[:5]
        weights = np.full(len(gcn_pool), 1.0 / len(gcn_pool))
        with make_evaluator(gcn_pool, tiny_graph) as ev:
            acc = ev.evaluate([Candidate(weights=weights, indices=idx)])[0]
            state = ev.mix(weights)
        model = gcn_pool.make_model()
        from repro.train import evaluate_logits

        model.load_state_dict(state)
        logits = evaluate_logits(model, tiny_graph)
        expected = float(np.mean(logits[idx].argmax(axis=1) == tiny_graph.labels[idx]))
        assert acc == expected


class TestSubsetEvaluator:
    def test_subset_matches_standalone(self, gcn_pool, tiny_graph):
        """A rotation view over the shared evaluator scores a sub-pool's
        candidates exactly like an evaluator built on the sub-pool."""
        from repro.soup import gis_soup

        keep = [0, 2, 3]
        sub = gcn_pool.subset(keep)
        standalone = gis_soup(sub, tiny_graph, granularity=4)
        with make_evaluator(gcn_pool, tiny_graph) as shared:
            view = shared.subset(keep)
            through_view = gis_soup(sub, tiny_graph, granularity=4, evaluator=view)
        for name in standalone.state_dict:
            np.testing.assert_array_equal(
                standalone.state_dict[name], through_view.state_dict[name]
            )
        assert standalone.val_acc == through_view.val_acc

    def test_subset_indices_validated(self, gcn_pool, tiny_graph):
        with make_evaluator(gcn_pool, tiny_graph) as ev:
            with pytest.raises(ValueError, match="out of range"):
                ev.subset([0, len(gcn_pool)])
            with pytest.raises(ValueError, match="unique"):
                ev.subset([0, 0])

    def test_view_close_leaves_base_usable(self, gcn_pool, tiny_graph):
        with make_evaluator(gcn_pool, tiny_graph) as ev:
            view = ev.subset([0, 1])
            view.close()
            acc = ev.evaluate([Candidate(weights=np.full(len(gcn_pool), 0.25))])[0]
            assert 0.0 <= acc <= 1.0


class TestModelOwnership:
    """Satellite: souping and eval_state never corrupt caller-held models."""

    def test_eval_state_restores_prior_parameters(self, gcn_pool, tiny_graph):
        model = gcn_pool.make_model()
        model.load_state_dict(gcn_pool.states[0])
        before = model.state_dict()
        eval_state(model, gcn_pool.states[1], tiny_graph, "val")
        after = model.state_dict()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_eval_state_restore_optout(self, gcn_pool, tiny_graph):
        model = gcn_pool.make_model()
        model.load_state_dict(gcn_pool.states[0])
        eval_state(model, gcn_pool.states[1], tiny_graph, "val", restore=False)
        after = model.state_dict()
        for name, value in gcn_pool.states[1].items():
            np.testing.assert_array_equal(after[name], value)

    def test_souping_leaves_caller_model_untouched(self, gcn_pool, tiny_graph):
        """Regression: a model the caller holds (same architecture, loaded
        with an ingredient) survives a full souping sweep bit-for-bit."""
        model = gcn_pool.make_model()
        model.load_state_dict(gcn_pool.states[2])
        before = model.state_dict()
        run_all_methods(gcn_pool, tiny_graph)
        after = model.state_dict()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])
