"""Baseline souping methods: US, Greedy (Alg. 1), GIS (Alg. 2), ensembles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.soup import (
    average,
    eval_state,
    gis_soup,
    greedy_soup,
    logit_ensemble,
    uniform_soup,
    vote_ensemble,
)


class TestUniformSoup:
    def test_state_is_exact_mean(self, gcn_pool, tiny_graph):
        result = uniform_soup(gcn_pool, tiny_graph)
        expected = average(gcn_pool.states)
        for name in expected:
            np.testing.assert_allclose(result.state_dict[name], expected[name])

    def test_accuracies_in_range(self, gcn_pool, tiny_graph):
        result = uniform_soup(gcn_pool, tiny_graph)
        assert 0.0 <= result.val_acc <= 1.0
        assert 0.0 <= result.test_acc <= 1.0

    def test_method_label(self, gcn_pool, tiny_graph):
        assert uniform_soup(gcn_pool, tiny_graph).method == "us"

    def test_deterministic(self, gcn_pool, tiny_graph):
        a = uniform_soup(gcn_pool, tiny_graph)
        b = uniform_soup(gcn_pool, tiny_graph)
        assert a.test_acc == b.test_acc

    def test_fastest_method(self, gcn_pool, tiny_graph):
        """Paper §V-B: US 'nearly always performs best' on time."""
        us = uniform_soup(gcn_pool, tiny_graph)
        gis = gis_soup(gcn_pool, tiny_graph, granularity=10)
        assert us.soup_time < gis.soup_time

    def test_no_forward_low_memory(self, gcn_pool, tiny_graph):
        """US does no forward pass: its peak is far below GIS's."""
        us = uniform_soup(gcn_pool, tiny_graph)
        gis = gis_soup(gcn_pool, tiny_graph, granularity=10)
        assert us.peak_memory < gis.peak_memory


class TestGreedySoup:
    def test_val_at_least_best_ingredient(self, gcn_pool, tiny_graph):
        """Algorithm 1 starts from the best ingredient and only accepts
        non-degrading additions, so soup val >= best ingredient val."""
        result = greedy_soup(gcn_pool, tiny_graph)
        model = gcn_pool.make_model()
        best = max(
            eval_state(model, sd, tiny_graph, "val") for sd in gcn_pool.states
        )
        assert result.val_acc >= best - 1e-9

    def test_members_recorded(self, gcn_pool, tiny_graph):
        result = greedy_soup(gcn_pool, tiny_graph)
        members = result.extras["members"]
        assert 1 <= len(members) <= len(gcn_pool)
        assert members[0] == gcn_pool.best_index

    def test_soup_is_average_of_members(self, gcn_pool, tiny_graph):
        result = greedy_soup(gcn_pool, tiny_graph)
        expected = average([gcn_pool.states[i] for i in result.extras["members"]])
        for name in expected:
            np.testing.assert_allclose(result.state_dict[name], expected[name])

    def test_deterministic(self, gcn_pool, tiny_graph):
        a = greedy_soup(gcn_pool, tiny_graph)
        b = greedy_soup(gcn_pool, tiny_graph)
        assert a.extras["members"] == b.extras["members"]


class TestGISSoup:
    def test_val_monotone_vs_best_ingredient(self, gcn_pool, tiny_graph):
        """alpha=0 always reproduces the current soup, so GIS's val accuracy
        can never fall below the best single ingredient's."""
        result = gis_soup(gcn_pool, tiny_graph, granularity=10)
        model = gcn_pool.make_model()
        best = max(eval_state(model, sd, tiny_graph, "val") for sd in gcn_pool.states)
        assert result.val_acc >= best - 1e-9

    def test_forward_pass_count(self, gcn_pool, tiny_graph):
        """Cost model §III-E: exactly 1 + (N-1) * g validation passes."""
        g = 7
        result = gis_soup(gcn_pool, tiny_graph, granularity=g)
        assert result.extras["forward_passes"] == 1 + (len(gcn_pool) - 1) * g

    def test_chosen_ratios_within_unit_interval(self, gcn_pool, tiny_graph):
        result = gis_soup(gcn_pool, tiny_graph, granularity=10)
        ratios = result.extras["chosen_ratios"]
        assert len(ratios) == len(gcn_pool) - 1
        assert all(0.0 <= r <= 1.0 for r in ratios)

    def test_granularity_validation(self, gcn_pool, tiny_graph):
        with pytest.raises(ValueError):
            gis_soup(gcn_pool, tiny_graph, granularity=1)

    def test_deterministic(self, gcn_pool, tiny_graph):
        a = gis_soup(gcn_pool, tiny_graph, granularity=8)
        b = gis_soup(gcn_pool, tiny_graph, granularity=8)
        assert a.test_acc == b.test_acc
        assert a.extras["chosen_ratios"] == b.extras["chosen_ratios"]

    def test_higher_granularity_costs_more_time(self, gcn_pool, tiny_graph):
        """O(N g F_v): doubling g should clearly increase wall time."""
        fast = gis_soup(gcn_pool, tiny_graph, granularity=4)
        slow = gis_soup(gcn_pool, tiny_graph, granularity=24)
        assert slow.soup_time > fast.soup_time

    def test_single_ingredient_pool(self, gcn_pool, tiny_graph):
        solo = gcn_pool.subset([0])
        result = gis_soup(solo, tiny_graph, granularity=5)
        for name, v in result.state_dict.items():
            np.testing.assert_allclose(v, gcn_pool.states[0][name])


class TestEnsembles:
    def test_logit_ensemble_beats_worst_ingredient(self, gcn_pool, tiny_graph):
        result = logit_ensemble(gcn_pool, tiny_graph)
        assert result.test_acc >= min(gcn_pool.test_accs) - 0.05

    def test_vote_ensemble_runs(self, gcn_pool, tiny_graph):
        result = vote_ensemble(gcn_pool, tiny_graph)
        assert 0.0 <= result.test_acc <= 1.0
        assert result.extras["inference_passes"] == len(gcn_pool)

    def test_ensembles_have_no_single_state(self, gcn_pool, tiny_graph):
        assert logit_ensemble(gcn_pool, tiny_graph).state_dict == {}
        assert vote_ensemble(gcn_pool, tiny_graph).state_dict == {}

    def test_ensemble_slower_than_uniform_soup(self, gcn_pool, tiny_graph):
        """The motivation for soups: N inference passes vs zero."""
        ens = logit_ensemble(gcn_pool, tiny_graph)
        us = uniform_soup(gcn_pool, tiny_graph)
        assert ens.soup_time > us.soup_time
