"""End-to-end integration: the complete paper pipeline on a small graph.

Phase 1 (zero-communication ingredients) -> Phase 2 (all souping methods)
-> evaluation, asserting the qualitative relationships the paper reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import train_ingredients
from repro.graph import partition_graph
from repro.soup import (
    PLSConfig,
    SoupConfig,
    gis_soup,
    greedy_soup,
    learned_soup,
    logit_ensemble,
    partition_learned_soup,
    uniform_soup,
)
from repro.train import TrainConfig


@pytest.fixture(scope="module")
def pipeline(small_graph):
    """A full Phase-1 + Phase-2 execution shared by the assertions below."""
    pool = train_ingredients(
        "gcn",
        small_graph,
        n_ingredients=6,
        train_cfg=TrainConfig(epochs=30, lr=0.02),
        base_seed=17,
        hidden_dim=16,
        epoch_jitter=10,
    )
    partition = partition_graph(small_graph, 8, method="metis", node_weights="val", seed=0)
    results = {
        "us": uniform_soup(pool, small_graph),
        "greedy": greedy_soup(pool, small_graph),
        # paper-regime cost ratio: GIS pays (N-1)*g = 100 validation passes,
        # LS pays 20 forward+backward epochs (~60 pass-equivalents)
        "gis": gis_soup(pool, small_graph, granularity=20),
        "ls": learned_soup(pool, small_graph, SoupConfig(epochs=20, lr=0.5, seed=0)),
        "pls": partition_learned_soup(
            pool, small_graph,
            PLSConfig(epochs=20, lr=0.5, num_partitions=8, partition_budget=3, seed=0),
            partition=partition,
        ),
        "ensemble": logit_ensemble(pool, small_graph),
    }
    return pool, results


class TestPipeline:
    def test_all_methods_produce_valid_scores(self, pipeline):
        _, results = pipeline
        for name, r in results.items():
            assert 0.0 <= r.test_acc <= 1.0, name
            assert r.soup_time >= 0.0

    def test_informed_soups_beat_mean_ingredient(self, pipeline):
        """Fig 3's core message: souping recovers more than the average
        ingredient provides."""
        pool, results = pipeline
        mean_ing = float(np.mean(pool.test_accs))
        for method in ("gis", "ls"):
            assert results[method].test_acc >= mean_ing - 0.02, method

    def test_gis_val_at_least_best_ingredient(self, pipeline):
        pool, results = pipeline
        assert results["gis"].val_acc >= max(pool.val_accs) - 1e-9

    def test_ls_faster_than_gis(self, pipeline, small_graph):
        """RQ1/Table III: gradient-descent souping beats exhaustive search
        on wall time (with paper-scale N and granularity). Compared on the
        median of three alternating calls of each, so one call slowed by
        another process on a shared machine cannot decide it."""
        pool, _ = pipeline
        ls_times, gis_times = [], []
        for _ in range(3):
            ls_times.append(learned_soup(pool, small_graph, SoupConfig(epochs=20, lr=0.5, seed=0)).soup_time)
            gis_times.append(gis_soup(pool, small_graph, granularity=20).soup_time)
        assert np.median(ls_times) < np.median(gis_times)

    def test_pls_uses_least_memory_of_learned_methods(self, pipeline):
        """RQ2/Fig 4b: PLS peak memory below both LS and GIS."""
        _, results = pipeline
        assert results["pls"].peak_memory < results["ls"].peak_memory
        assert results["pls"].peak_memory < results["gis"].peak_memory

    def test_ls_memory_is_highest(self, pipeline):
        """§V-C: LS has the highest footprint of all souping methods."""
        _, results = pipeline
        ls_peak = results["ls"].peak_memory
        for method in ("us", "greedy", "gis", "pls"):
            assert ls_peak >= results[method].peak_memory, method

    def test_us_fastest(self, pipeline):
        _, results = pipeline
        us_time = results["us"].soup_time
        for method in ("gis", "ls", "pls"):
            assert us_time < results[method].soup_time, method

    def test_soup_single_model_inference_cost(self, pipeline):
        """Soups return ONE state dict — the inference-cost advantage over
        the ensemble, which needs all N ingredient passes."""
        pool, results = pipeline
        for method in ("us", "greedy", "gis", "ls", "pls"):
            assert set(results[method].state_dict) == set(pool.states[0]), method
        assert results["ensemble"].extras["inference_passes"] == len(pool)

    def test_ensemble_accuracy_is_the_bar(self, pipeline):
        """Ensembles are the accuracy ceiling soups aim for; the best soup
        should land within a few points of the ensemble (Graph Ladling's
        observation, which the paper builds on)."""
        _, results = pipeline
        best_soup = max(results[m].test_acc for m in ("us", "greedy", "gis", "ls", "pls"))
        assert best_soup >= results["ensemble"].test_acc - 0.06

    def test_phase1_schedule_consistent_with_eq1(self, pipeline):
        """The simulated 8-worker makespan must respect the Graham bounds
        around Eq. (1)'s estimate."""
        pool, _ = pipeline
        sched = pool.schedule
        t_single = float(np.mean(pool.train_times))
        eq1 = (len(pool) / sched.num_workers) * t_single
        assert sched.makespan >= max(pool.train_times) - 1e-9
        assert sched.makespan <= eq1 + max(pool.train_times) + 1e-9


class TestCrossArchitecture:
    @pytest.mark.parametrize("arch", ["sage", "gat"])
    def test_full_pipeline_other_archs(self, tiny_graph, arch):
        pool = train_ingredients(
            arch,
            tiny_graph,
            n_ingredients=3,
            train_cfg=TrainConfig(epochs=10, lr=0.02),
            base_seed=2,
            hidden_dim=8,
            num_heads=2,
        )
        us = uniform_soup(pool, tiny_graph)
        ls = learned_soup(pool, tiny_graph, SoupConfig(epochs=8, lr=0.5))
        assert np.isfinite(us.test_acc) and np.isfinite(ls.test_acc)
