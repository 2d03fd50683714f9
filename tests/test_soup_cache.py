"""Evaluator-side candidate-score cache.

Identical mixes must stop costing forward passes (GIS's ``alpha = 0``
endpoint, repeats across an evaluator's lifetime), with hit/miss
counters exposed, and the cache must never change a result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.soup import (
    Candidate,
    greedy_soup,
    gis_soup,
    make_evaluator,
    member_weights,
    uniform_weights,
)


class TestScoreCache:
    def test_gis_hits_within_a_single_run(self, gcn_pool, tiny_graph):
        """GIS re-scores the current soup at every ingredient's alpha=0
        grid endpoint — those must come from the cache."""
        with make_evaluator(gcn_pool, tiny_graph) as ev:
            gis_soup(gcn_pool, tiny_graph, granularity=5, evaluator=ev)
            info = ev.cache_info()
        assert info["hits"] > 0
        assert info["misses"] > 0
        assert info["size"] <= info["capacity"]

    def test_greedy_evaluation_count_drops(self, gcn_pool, tiny_graph):
        """The satellite's acceptance: re-running greedy on the same
        evaluator re-scores nothing — every mix is already cached."""
        with make_evaluator(gcn_pool, tiny_graph) as ev:
            first = greedy_soup(gcn_pool, tiny_graph, evaluator=ev)
            evals_after_first = ev.backend_evals
            assert evals_after_first > 0
            second = greedy_soup(gcn_pool, tiny_graph, evaluator=ev)
            assert ev.backend_evals == evals_after_first  # count dropped to zero
            assert ev.cache_info()["hits"] >= evals_after_first
        assert first.val_acc == second.val_acc
        for name in first.state_dict:
            np.testing.assert_array_equal(first.state_dict[name], second.state_dict[name])

    def test_disabled_cache_rescores_everything(self, gcn_pool, tiny_graph):
        with make_evaluator(gcn_pool, tiny_graph, cache_size=0) as ev:
            greedy_soup(gcn_pool, tiny_graph, evaluator=ev)
            evals_after_first = ev.backend_evals
            greedy_soup(gcn_pool, tiny_graph, evaluator=ev)
            assert ev.backend_evals == 2 * evals_after_first
            assert ev.cache_info() == {"hits": 0, "misses": 0, "size": 0, "capacity": 0}

    def test_cached_results_bit_identical(self, gcn_pool, tiny_graph):
        with make_evaluator(gcn_pool, tiny_graph, cache_size=0) as cold:
            ref = greedy_soup(gcn_pool, tiny_graph, evaluator=cold)
        with make_evaluator(gcn_pool, tiny_graph) as warm:
            greedy_soup(gcn_pool, tiny_graph, evaluator=warm)  # populate
            hot = greedy_soup(gcn_pool, tiny_graph, evaluator=warm)  # all hits
        assert ref.val_acc == hot.val_acc and ref.test_acc == hot.test_acc
        for name in ref.state_dict:
            np.testing.assert_array_equal(ref.state_dict[name], hot.state_dict[name])

    def test_rotation_views_share_one_cache(self, gcn_pool, tiny_graph):
        """Subset views zero-expand onto the base pool, so the same
        sub-pool mix scored through two rotations hits one shared cache."""
        with make_evaluator(gcn_pool, tiny_graph) as ev:
            view_a = ev.subset([0, 1, 2])
            view_b = ev.subset([0, 1, 2])
            view_a.accuracy_of(weights=member_weights(3, [0, 1]))
            hits_before = ev.cache_info()["hits"]
            view_b.accuracy_of(weights=member_weights(3, [0, 1]))
            assert ev.cache_info()["hits"] == hits_before + 1
            assert view_b.cache_info() == ev.cache_info()

    def test_split_and_indices_distinguish_entries(self, gcn_pool, tiny_graph):
        weights = uniform_weights(len(gcn_pool))
        with make_evaluator(gcn_pool, tiny_graph) as ev:
            val = ev.accuracy_of(weights=weights, split="val")
            test = ev.accuracy_of(weights=weights, split="test")
            sliced = ev.accuracy_of(weights=weights, indices=tiny_graph.val_idx[:5])
            assert ev.cache_info()["misses"] == 3  # three distinct selections
            assert ev.accuracy_of(weights=weights, split="val") == val
            assert ev.accuracy_of(weights=weights, split="test") == test
            assert ev.accuracy_of(weights=weights, indices=tiny_graph.val_idx[:5]) == sliced
            assert ev.cache_info()["hits"] == 3

    def test_logits_and_states_bypass_the_cache(self, gcn_pool, tiny_graph):
        weights = uniform_weights(len(gcn_pool))
        with make_evaluator(gcn_pool, tiny_graph) as ev:
            state = ev.mix(weights)
            for _ in range(2):
                ev.evaluate([Candidate(weights=weights, split=None, kind="logits")])
                ev.evaluate([Candidate(state=state, split="val")])
            info = ev.cache_info()
            assert info["hits"] == 0 and info["misses"] == 0
            assert ev.backend_evals == 4

    def test_duplicates_within_one_batch_scored_once(self, gcn_pool, tiny_graph):
        """Two identical mix specs in the same batch must cost one
        forward pass — the second takes the first's value."""
        weights = uniform_weights(len(gcn_pool))
        with make_evaluator(gcn_pool, tiny_graph) as ev:
            a, b = ev.evaluate(
                [Candidate(weights=weights), Candidate(weights=weights)]
            )
            assert a == b
            assert ev.backend_evals == 1
            assert ev.cache_info() == {"hits": 1, "misses": 1, "size": 1, "capacity": 8192}

    def test_capacity_bounds_the_cache(self, gcn_pool, tiny_graph):
        n = len(gcn_pool)
        with make_evaluator(gcn_pool, tiny_graph, cache_size=2) as ev:
            rng = np.random.default_rng(0)
            for _ in range(5):
                w = rng.random(n)
                ev.accuracy_of(weights=w / w.sum())
            assert ev.cache_info()["size"] <= 2

    def test_cache_size_rejects_bool(self, gcn_pool, tiny_graph):
        with pytest.raises(ValueError, match="cache_size"):
            make_evaluator(gcn_pool, tiny_graph, cache_size=True)


class TestPersistedCache:
    """``cache_path=`` carries scored mixes across evaluator lifetimes."""

    def test_round_trip_warm_start(self, gcn_pool, tiny_graph, tmp_path):
        path = tmp_path / "scores.json"
        with make_evaluator(gcn_pool, tiny_graph, cache_path=path) as ev:
            cold = greedy_soup(gcn_pool, tiny_graph, evaluator=ev)
            cold_evals = ev.backend_evals
        assert path.exists()
        with make_evaluator(gcn_pool, tiny_graph, cache_path=path) as ev:
            warm = greedy_soup(gcn_pool, tiny_graph, evaluator=ev)
            assert ev.backend_evals == 0  # every mix came from disk
            assert ev.cache_info()["hits"] >= cold_evals
        assert warm.val_acc == cold.val_acc and warm.test_acc == cold.test_acc
        for name in cold.state_dict:
            np.testing.assert_array_equal(cold.state_dict[name], warm.state_dict[name])

    def test_value_types_survive_the_round_trip(self, gcn_pool, tiny_graph, tmp_path):
        path = tmp_path / "scores.json"
        weights = uniform_weights(len(gcn_pool))
        with make_evaluator(gcn_pool, tiny_graph, cache_path=path) as ev:
            before = ev.accuracy_of(weights=weights)
        with make_evaluator(gcn_pool, tiny_graph, cache_path=path) as ev:
            after = ev.accuracy_of(weights=weights)
            assert ev.cache_info()["hits"] == 1
        assert after == before
        assert type(after) is type(before)  # np.float64 stays np.float64

    def test_missing_file_starts_empty(self, gcn_pool, tiny_graph, tmp_path):
        path = tmp_path / "nested" / "fresh.json"
        with make_evaluator(gcn_pool, tiny_graph, cache_path=path) as ev:
            ev.accuracy_of(weights=uniform_weights(len(gcn_pool)))
            assert ev.cache_info()["misses"] == 1
        assert path.exists()  # parents created on save

    def test_corrupt_file_warns_and_starts_empty(self, gcn_pool, tiny_graph, tmp_path):
        path = tmp_path / "scores.json"
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="cache"):
            ev = make_evaluator(gcn_pool, tiny_graph, cache_path=path)
        try:
            assert ev.cache_info()["size"] == 0
            ev.accuracy_of(weights=uniform_weights(len(gcn_pool)))
        finally:
            ev.close()
        # and the rewrite repaired the file
        with make_evaluator(gcn_pool, tiny_graph, cache_path=path) as ev:
            assert ev.cache_info()["size"] == 1

    def test_load_trims_to_capacity_keeping_newest(self, gcn_pool, tiny_graph, tmp_path):
        path = tmp_path / "scores.json"
        n = len(gcn_pool)
        rng = np.random.default_rng(3)
        mixes = [w / w.sum() for w in rng.random((5, n))]
        with make_evaluator(gcn_pool, tiny_graph, cache_path=path) as ev:
            for w in mixes:
                ev.accuracy_of(weights=w)
        with make_evaluator(gcn_pool, tiny_graph, cache_size=2, cache_path=path) as ev:
            assert ev.cache_info()["size"] == 2
            ev.accuracy_of(weights=mixes[-1])  # newest entry survived the trim
            assert ev.cache_info()["hits"] == 1

    def test_disabled_cache_never_persists(self, gcn_pool, tiny_graph, tmp_path):
        path = tmp_path / "scores.json"
        with make_evaluator(gcn_pool, tiny_graph, cache_size=0, cache_path=path) as ev:
            ev.accuracy_of(weights=uniform_weights(len(gcn_pool)))
        assert not path.exists()
