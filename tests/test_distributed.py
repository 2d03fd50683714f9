"""Phase-1 substrate: list scheduler (Eq. 1/2) and ingredient production."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import (
    IngredientPool,
    WorkerPoolSimulator,
    eq1_estimate,
    eq2_min_time,
    train_ingredients,
)
from repro.train import TrainConfig


class TestScheduler:
    def test_single_worker_sequential(self):
        sched = WorkerPoolSimulator(1).schedule([1.0, 2.0, 3.0])
        assert sched.makespan == 6.0
        np.testing.assert_array_equal(sched.worker_of_task, [0, 0, 0])

    def test_n_leq_w_is_max(self):
        """Eq. 2: with enough workers the makespan is the slowest task."""
        durations = [3.0, 1.0, 2.0]
        sched = WorkerPoolSimulator(8).schedule(durations)
        assert sched.makespan == eq2_min_time(durations) == 3.0

    def test_eq1_approximation_uniform_tasks(self):
        """Eq. 1 is exact for uniform durations when W divides N."""
        n, w, t = 16, 4, 2.0
        sched = WorkerPoolSimulator(w).schedule([t] * n)
        assert sched.makespan == pytest.approx(eq1_estimate(n, w, t))

    def test_dynamic_queue_goes_to_earliest_free(self):
        # tasks: [4, 1, 1, 1] on 2 workers -> w0 takes 4; w1 takes 1,1,1
        sched = WorkerPoolSimulator(2).schedule([4.0, 1.0, 1.0, 1.0])
        assert sched.makespan == 4.0
        np.testing.assert_array_equal(sched.worker_of_task, [0, 1, 1, 1])

    def test_utilization_and_idle(self):
        sched = WorkerPoolSimulator(2).schedule([2.0, 2.0])
        assert sched.utilization == 1.0
        assert sched.idle_time == 0.0

    def test_busy_accounting(self):
        sched = WorkerPoolSimulator(3).schedule([1.0, 2.0, 3.0, 1.0])
        assert sched.worker_busy.sum() == pytest.approx(sched.total_work)

    def test_start_end_consistency(self):
        sched = WorkerPoolSimulator(2).schedule([1.0, 1.5, 0.5])
        np.testing.assert_allclose(sched.end_times - sched.start_times, sched.durations)

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerPoolSimulator(0)
        with pytest.raises(ValueError):
            WorkerPoolSimulator(2).schedule([])
        with pytest.raises(ValueError):
            WorkerPoolSimulator(2).schedule([-1.0])
        with pytest.raises(ValueError):
            eq1_estimate(0, 1, 1.0)
        with pytest.raises(ValueError):
            eq2_min_time([])

    def test_non_integral_num_workers_rejected(self):
        """A 2.5-worker cluster (or a bool) is a caller bug, not a layout."""
        for bad in (2.5, "4", True, np.float64(3.0)):
            with pytest.raises(ValueError):
                WorkerPoolSimulator(bad)
            with pytest.raises(ValueError):
                eq1_estimate(4, bad, 1.0)
        assert WorkerPoolSimulator(np.int64(3)).num_workers == 3

    def test_nan_and_inf_durations_rejected(self):
        """NaN previously flowed through the heap and produced a garbage
        schedule instead of an error."""
        for bad in ([1.0, np.nan], [np.inf, 1.0]):
            with pytest.raises(ValueError):
                WorkerPoolSimulator(2).schedule(bad)
            with pytest.raises(ValueError):
                eq2_min_time(bad)

    def test_non_1d_durations_rejected(self):
        with pytest.raises(ValueError):
            WorkerPoolSimulator(2).schedule(np.ones((2, 2)))
        with pytest.raises(ValueError):
            eq2_min_time(np.ones((2, 2)))

    def test_eq1_invalid_t_single_rejected(self):
        with pytest.raises(ValueError):
            eq1_estimate(4, 2, -1.0)
        with pytest.raises(ValueError):
            eq1_estimate(4, 2, float("nan"))

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 30),
        w=st.integers(1, 10),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property_makespan_bounds(self, n, w, seed):
        """Hypothesis: list-scheduling bounds — makespan is at least both
        max(d) and total/W, and at most total/W + max(d) (Graham)."""
        rng = np.random.default_rng(seed)
        durations = rng.random(n) + 0.01
        sched = WorkerPoolSimulator(w).schedule(durations)
        lower = max(durations.max(), durations.sum() / w)
        upper = durations.sum() / w + durations.max() + 1e-9
        assert lower - 1e-9 <= sched.makespan <= upper

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 24), seed=st.integers(0, 2**31 - 1))
    def test_property_more_workers_never_slower(self, n, seed):
        rng = np.random.default_rng(seed)
        durations = rng.random(n) + 0.01
        m1 = WorkerPoolSimulator(2).schedule(durations).makespan
        m2 = WorkerPoolSimulator(4).schedule(durations).makespan
        assert m2 <= m1 + 1e-9


class TestIngredientPool:
    def test_pool_basic(self, gcn_pool):
        assert len(gcn_pool) == 4
        assert gcn_pool.graph_name == "tiny"
        assert len(gcn_pool.param_names()) > 0

    def test_order_by_val(self, gcn_pool):
        order = gcn_pool.order_by_val()
        accs = np.asarray(gcn_pool.val_accs)[order]
        assert np.all(np.diff(accs) <= 1e-12)
        assert gcn_pool.best_index == order[0]

    def test_stacked_params_shape(self, gcn_pool):
        stacks = gcn_pool.stacked_params()
        for name, stack in stacks.items():
            assert stack.shape[0] == 4
            assert stack.shape[1:] == gcn_pool.states[0][name].shape

    def test_make_model_loads_states(self, gcn_pool, tiny_graph):
        m = gcn_pool.make_model()
        m.load_state_dict(gcn_pool.states[0])  # shapes must line up

    def test_subset(self, gcn_pool):
        sub = gcn_pool.subset([0, 2])
        assert len(sub) == 2
        assert sub.val_accs == [gcn_pool.val_accs[0], gcn_pool.val_accs[2]]

    def test_state_nbytes_positive(self, gcn_pool):
        assert gcn_pool.state_nbytes() > 0

    def test_inconsistent_lists_rejected(self, gcn_pool):
        with pytest.raises(ValueError):
            IngredientPool(
                model_config=gcn_pool.model_config,
                states=gcn_pool.states,
                val_accs=[0.1],
                test_accs=gcn_pool.test_accs,
                train_times=gcn_pool.train_times,
            )


class TestTrainIngredients:
    def test_shared_initialization_diverges(self, tiny_graph):
        """All ingredients start identical (shared init) but end different."""
        pool = train_ingredients(
            "gcn", tiny_graph, n_ingredients=3,
            train_cfg=TrainConfig(epochs=8, lr=0.05), base_seed=1, hidden_dim=8,
        )
        names = pool.param_names()
        a, b = pool.states[0], pool.states[1]
        assert any(not np.array_equal(a[n], b[n]) for n in names)

    def test_determinism_across_runs(self, tiny_graph):
        kw = dict(
            train_cfg=TrainConfig(epochs=5, lr=0.05), base_seed=2, hidden_dim=8,
        )
        p1 = train_ingredients("gcn", tiny_graph, n_ingredients=2, **kw)
        p2 = train_ingredients("gcn", tiny_graph, n_ingredients=2, **kw)
        for s1, s2 in zip(p1.states, p2.states):
            for name in s1:
                np.testing.assert_array_equal(s1[name], s2[name])

    def test_epoch_jitter_varies_quality(self, tiny_graph):
        pool = train_ingredients(
            "gcn", tiny_graph, n_ingredients=4,
            train_cfg=TrainConfig(epochs=12, lr=0.05), base_seed=0, hidden_dim=8, epoch_jitter=8,
        )
        assert len(set(np.round(pool.val_accs, 6))) >= 2  # not all identical

    def test_schedule_attached(self, gcn_pool):
        assert gcn_pool.schedule is not None
        assert gcn_pool.schedule.makespan <= sum(gcn_pool.train_times) + 1e-9

    def test_invalid_args(self, tiny_graph):
        with pytest.raises(ValueError):
            train_ingredients("gcn", tiny_graph, n_ingredients=0)
        with pytest.raises(ValueError):
            train_ingredients("gcn", tiny_graph, n_ingredients=1, executor="mpi")
