"""Executor equivalence, fault injection and checkpoint/resume (Phase 1).

The determinism contract under test: for a fixed ``base_seed`` the
ingredient pool is a pure function of ``(arch config, graph, base_seed)``
— identical across the ``serial`` and ``process`` executors,
across injected faults (retries retrain bit-identical replicas), and
across checkpoint-resumed runs.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.distributed import (
    EXECUTORS,
    QUEUES,
    CheckpointStore,
    FaultPlan,
    IngredientTrainingError,
    ResilientPoolSimulator,
    SimulatedWorkerFault,
    WorkerSpec,
    run_fingerprint,
    train_ingredients,
)
from repro.graph import GeneratorConfig, homophilous_graph
from repro.graph.blocks import Blocks, forward_field
from repro.serve.model import state_digest
from repro.train import TrainConfig, TrainResult


KW = dict(train_cfg=TrainConfig(epochs=4, lr=0.05), base_seed=3, hidden_dim=8)


def assert_pools_identical(a, b):
    assert len(a) == len(b)
    for s1, s2 in zip(a.states, b.states):
        for name in s1:
            np.testing.assert_array_equal(s1[name], s2[name])
    assert a.val_accs == b.val_accs
    assert a.test_accs == b.test_accs


@pytest.fixture(scope="module")
def serial_pool(tiny_graph):
    return train_ingredients("gcn", tiny_graph, 3, executor="serial", **KW)


class TestExecutorEquivalence:
    @pytest.mark.parametrize("executor", [e for e in EXECUTORS if e != "serial"])
    def test_bit_identical_to_serial(self, tiny_graph, serial_pool, executor):
        pool = train_ingredients(
            "gcn", tiny_graph, 3, executor=executor, num_workers=3, **KW
        )
        assert_pools_identical(serial_pool, pool)

    def test_process_executor_with_jitter(self, tiny_graph):
        kw = dict(train_cfg=TrainConfig(epochs=6, lr=0.05), base_seed=1, hidden_dim=8, epoch_jitter=3)
        serial = train_ingredients("gcn", tiny_graph, 3, executor="serial", **kw)
        proc = train_ingredients("gcn", tiny_graph, 3, executor="process", num_workers=2, **kw)
        assert_pools_identical(serial, proc)

    def test_unknown_executor_rejected(self, tiny_graph):
        for executor in ("mpi", "thread"):
            with pytest.raises(ValueError) as info:
                train_ingredients("gcn", tiny_graph, 1, executor=executor, **KW)
            message = str(info.value)
            assert "\n" not in message
            assert all(repr(name) in message for name in EXECUTORS)

    def test_invalid_worker_count_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            train_ingredients("gcn", tiny_graph, 1, num_workers=0, **KW)

    def test_non_integral_worker_count_rejected_before_training(self, tiny_graph):
        """A float W (e.g. os.cpu_count()/2) must fail at the entry check,
        not after training at the makespan simulation."""
        with pytest.raises(ValueError, match="integer"):
            train_ingredients("gcn", tiny_graph, 1, num_workers=2.5, **KW)

    @pytest.mark.parametrize("bad", [True, False, "4", None])
    def test_non_integer_worker_count_rejected(self, tiny_graph, bad):
        """`True` used to slip through as num_workers=1: the scheduler's
        strict integer rule rejects booleans and non-numbers too."""
        with pytest.raises(ValueError, match="integer"):
            train_ingredients("gcn", tiny_graph, 1, num_workers=bad, **KW)


class TestBlockTrainingAcrossExecutors:
    """Ingredients trained on layered blocks: every worker builds its own
    block cache (under spawn too, from a re-imported module) and still
    yields the serial pool's bits."""

    SPARSE = GeneratorConfig(
        num_nodes=500, num_classes=4, avg_degree=3.0, homophily=0.7, feature_dim=10,
        feature_noise=1.0, split=(0.1, 0.1, 0.8), name="sparse",
    )

    @pytest.mark.parametrize(
        "arch, cfg",
        [
            ("sage", TrainConfig(epochs=3, lr=0.05)),
            ("gat", TrainConfig(epochs=2, lr=0.05, minibatch=True, batch_size=16, fanout=3)),
        ],
        ids=["full-batch", "minibatch"],
    )
    def test_pool_digest_matches_serial(self, arch, cfg):
        graph = homophilous_graph(self.SPARSE, seed=2)
        field = forward_field(graph, graph.train_idx, 2)
        assert isinstance(field, Blocks) and len(field.input_rows) < graph.num_nodes
        kw = dict(train_cfg=cfg, base_seed=5, hidden_dim=8, attn_dropout=0.2)
        serial = train_ingredients(arch, graph, 3, executor="serial", **kw)
        proc = train_ingredients(arch, graph, 3, executor="process", num_workers=2, **kw)
        assert state_digest(proc.states) == state_digest(serial.states)
        assert_pools_identical(serial, proc)


class TestExecutionMatrix:
    """The full determinism matrix of the acceptance contract: the pool is
    bit-identical across executor × graph transport (the queue is always
    the shared dynamic one)."""

    @pytest.mark.parametrize("shm", [True, False], ids=["shm", "noshm"])
    @pytest.mark.parametrize("queue", list(QUEUES))
    @pytest.mark.parametrize("executor", list(EXECUTORS))
    def test_bit_identical_across_matrix(self, tiny_graph, serial_pool, executor, queue, shm):
        pool = train_ingredients(
            "gcn", tiny_graph, 3, executor=executor, queue=queue, shm=shm,
            num_workers=3, **KW,
        )
        assert_pools_identical(serial_pool, pool)

    def test_unknown_queue_rejected(self, tiny_graph):
        for queue in ("lifo", "rounds"):
            with pytest.raises(ValueError, match="queue") as info:
                train_ingredients("gcn", tiny_graph, 1, queue=queue, **KW)
            message = str(info.value)
            assert "\n" not in message
            assert all(repr(name) in message for name in QUEUES)

    def test_dynamic_pool_survives_task_sets_beyond_pipe_capacity(self, tiny_graph):
        """The shared task pipe holds only ~64KB (~130 pickled specs); the
        driver must feed it incrementally or a large pool wedges before the
        first worker spawns. 150 one-epoch tasks regress exactly that."""
        pool = train_ingredients(
            "gcn", tiny_graph, 150, executor="process", num_workers=2,
            train_cfg=TrainConfig(epochs=1, lr=0.05), base_seed=3, hidden_dim=4,
        )
        assert len(pool) == 150

    @pytest.mark.parametrize("executor", list(EXECUTORS))
    def test_executors_share_checkpoints(self, tiny_graph, tmp_path, executor):
        """Same run fingerprint whatever the executor: a checkpoint
        directory written by one executor resumes a run on the other."""
        other = "serial" if executor == "process" else "process"
        train_ingredients(
            "gcn", tiny_graph, 2, executor=other, num_workers=2,
            checkpoint_dir=tmp_path, **KW,
        )
        poisoned = train_ingredients(
            "gcn", tiny_graph, 2, executor=executor, num_workers=2,
            checkpoint_dir=tmp_path, resume=True,
            fault_plan={0: 99, 1: 99}, max_retries=0, **KW,
        )
        clean = train_ingredients("gcn", tiny_graph, 2, executor="serial", **KW)
        assert_pools_identical(clean, poisoned)  # nothing actually retrained


class TestFaultInjection:
    @pytest.mark.parametrize("executor", list(EXECUTORS))
    def test_faulted_attempt_is_retried(self, tiny_graph, serial_pool, executor):
        pool = train_ingredients(
            "gcn", tiny_graph, 3, executor=executor, num_workers=2,
            fault_plan={1: 1}, **KW,
        )
        assert_pools_identical(serial_pool, pool)

    @pytest.mark.parametrize("queue", list(QUEUES))
    def test_hard_killed_process_worker_is_retried(self, tiny_graph, serial_pool, queue):
        """kill=True fail-stops the worker process; the lost task re-enters
        the shared queue and a replacement worker spawns."""
        pool = train_ingredients(
            "gcn", tiny_graph, 3, executor="process", num_workers=2, queue=queue,
            fault_plan=FaultPlan(failures={0: 1}, kill=True), **KW,
        )
        assert_pools_identical(serial_pool, pool)

    def test_retry_budget_exhausted_raises(self, tiny_graph):
        with pytest.raises(IngredientTrainingError, match=r"\[0\]"):
            train_ingredients(
                "gcn", tiny_graph, 2, executor="serial",
                fault_plan={0: 99}, max_retries=1, **KW,
            )

    def test_negative_max_retries_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            train_ingredients("gcn", tiny_graph, 1, max_retries=-1, **KW)

    def test_fault_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(failures={-1: 1})
        with pytest.raises(ValueError):
            FaultPlan(failures={0: -2})

    def test_fault_plan_normalizes_keys(self):
        """A plan deserialised from JSON carries string keys; lookups by
        int task index must still hit."""
        plan = FaultPlan(failures={"2": "1"})
        assert plan.fail_attempts(2) == 1
        assert plan.failures == {2: 1}

    def test_concurrent_kill_faults_all_fire_and_converge(self, tiny_graph, serial_pool):
        """Two kill faults in flight at once: collateral pool breakage must
        not silently eat the second task's fault budget in a way that
        leaves the run failing or the pool wrong."""
        pool = train_ingredients(
            "gcn", tiny_graph, 3, executor="process", num_workers=3,
            fault_plan=FaultPlan(failures={0: 1, 1: 1, 2: 1}, kill=True),
            max_retries=3, **KW,
        )
        assert_pools_identical(serial_pool, pool)

    def test_fault_plan_from_schedule(self):
        """Replaying a simulated fail-stop schedule: tasks that needed k
        attempts in the simulation fail k-1 real attempts."""
        workers = [WorkerSpec(fail_at=1.5), WorkerSpec()]
        sched = ResilientPoolSimulator(workers).schedule([1.0, 1.0, 1.0, 1.0])
        plan = FaultPlan.from_schedule(sched)
        assert plan.failures == {
            i: int(a - 1) for i, a in enumerate(sched.attempts) if a > 1
        }
        assert sum(plan.failures.values()) == sched.total_retries

    def test_simulated_fault_is_runtime_error(self):
        assert issubclass(SimulatedWorkerFault, RuntimeError)

    def test_after_epochs_validation(self):
        with pytest.raises(ValueError, match="after_epochs"):
            FaultPlan(failures={0: 1}, after_epochs=0)

    @pytest.mark.parametrize("executor", list(EXECUTORS))
    def test_mid_epoch_fault_is_retried(self, tiny_graph, serial_pool, executor):
        """An attempt dying after N completed epochs (not at pickup) is
        retried and still converges to the bit-identical pool."""
        pool = train_ingredients(
            "gcn", tiny_graph, 3, executor=executor, num_workers=2,
            fault_plan=FaultPlan(failures={1: 1}, after_epochs=2), **KW,
        )
        assert_pools_identical(serial_pool, pool)

    def test_kill_plan_never_exits_a_non_worker_driver(self):
        """A kill fault under the serial executor must raise (and be
        retried/reported), not os._exit the driver — even when the driver
        itself runs inside a multiprocessing child. Runs in a fresh
        interpreter: forking from inside pytest is not fork-safe."""
        script = """
import multiprocessing as mp

from repro.distributed import FaultPlan, IngredientTrainingError, train_ingredients
from repro.graph import GeneratorConfig, homophilous_graph
from repro.train import TrainConfig

def driver():
    graph = homophilous_graph(
        GeneratorConfig(num_nodes=60, num_classes=3, avg_degree=6.0, homophily=0.7,
                        feature_dim=8, feature_noise=1.0, split=(0.5, 0.25, 0.25), name="t"),
        seed=0,
    )
    try:
        train_ingredients(
            "gcn", graph, 1, executor="serial", hidden_dim=4,
            train_cfg=TrainConfig(epochs=2),
            fault_plan=FaultPlan(failures={0: 9}, kill=True), max_retries=0,
        )
    except IngredientTrainingError:
        print("fault-raised")

if __name__ == "__main__":
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
    proc = ctx.Process(target=driver)
    proc.start()
    proc.join(60)
    print("exitcode", proc.exitcode)
"""
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=str(Path(__file__).resolve().parents[1]),
        )
        assert "fault-raised" in out.stdout, out.stderr
        assert "exitcode 0" in out.stdout  # not 43: the driver was never hard-killed


class TestCheckpointStore:
    def _result(self, rng):
        return TrainResult(
            state_dict={"w": rng.normal(size=(3, 2)), "b": rng.normal(size=3)},
            val_acc=0.5, test_acc=0.4, train_time=1.25, epochs_run=7,
        )

    def test_round_trip(self, tmp_path, rng):
        store = CheckpointStore(tmp_path, "fp-1")
        result = self._result(rng)
        path = store.save(2, result)
        assert path.exists() and len(store) == 1
        loaded = store.load(2)
        np.testing.assert_array_equal(loaded.state_dict["w"], result.state_dict["w"])
        np.testing.assert_array_equal(loaded.state_dict["b"], result.state_dict["b"])
        assert loaded.val_acc == result.val_acc
        assert loaded.test_acc == result.test_acc
        assert loaded.train_time == result.train_time
        assert loaded.epochs_run == result.epochs_run

    def test_missing_index_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path, "fp").load(0) is None

    def test_different_fingerprints_are_isolated(self, tmp_path, rng):
        """Runs with different fingerprints share a directory without
        seeing each other's entries (per-fingerprint subdirs)."""
        CheckpointStore(tmp_path, "fp-a").save(0, self._result(rng))
        other = CheckpointStore(tmp_path, "fp-b")
        assert other.load(0) is None
        assert other.completed(1) == {}

    def test_foreign_stamp_rejected(self, tmp_path, rng):
        """A file copied in from another run (fingerprint stamp mismatch)
        must read as absent even when the filename matches."""
        source = CheckpointStore(tmp_path, "fp-a")
        source.save(0, self._result(rng))
        target = CheckpointStore(tmp_path, "fp-b")
        target.path(0).write_bytes(source.path(0).read_bytes())
        assert target.load(0) is None

    def test_stale_tmp_swept_on_open(self, tmp_path, rng):
        """A worker hard-killed mid-write leaves its temp file behind
        (``finally`` never runs under SIGKILL); reopening the store must
        sweep it without touching finished checkpoints."""
        store = CheckpointStore(tmp_path, "fp")
        store.save(0, self._result(rng))
        orphan = store.directory / ".ingredient-00003.npz.tmp-4242.npz"
        orphan.write_bytes(b"half-written garbage")
        reopened = CheckpointStore(tmp_path, "fp")
        assert not orphan.exists()
        assert reopened.load(0) is not None
        assert len(reopened) == 1

    def test_worker_handle_does_not_sweep(self, tmp_path, rng):
        """Workers attach with sweep_stale=False — a sweep concurrent with
        live writers could race an in-flight temp file."""
        store = CheckpointStore(tmp_path, "fp")
        inflight = store.directory / ".ingredient-00001.npz.tmp-77.npz"
        inflight.write_bytes(b"another worker, mid-write")
        CheckpointStore(tmp_path, "fp", sweep_stale=False)
        assert inflight.exists()

    def test_corrupt_file_ignored(self, tmp_path, rng):
        store = CheckpointStore(tmp_path, "fp")
        store.save(0, self._result(rng))
        store.path(0).write_bytes(b"not an npz archive")
        assert store.load(0) is None

    def test_truncated_file_ignored(self, tmp_path, rng):
        """A checkpoint truncated mid-write (disk full, bad copy) raises
        zipfile.BadZipFile inside np.load — must read as absent."""
        store = CheckpointStore(tmp_path, "fp")
        store.save(0, self._result(rng))
        payload = store.path(0).read_bytes()
        store.path(0).write_bytes(payload[: len(payload) // 2])
        assert store.load(0) is None

    def test_completed_subset(self, tmp_path, rng):
        store = CheckpointStore(tmp_path, "fp")
        store.save(0, self._result(rng))
        store.save(2, self._result(rng))
        assert sorted(store.completed(4)) == [0, 2]

    def test_fingerprint_sensitivity(self, tiny_graph, small_graph):
        cfgs = [TrainConfig(epochs=2)]
        config = {"arch": "gcn", "seed": 0}
        base = run_fingerprint(config, tiny_graph, cfgs, [1])
        assert base == run_fingerprint(config, tiny_graph, cfgs, [1])
        assert base != run_fingerprint(config, tiny_graph, cfgs, [2])
        assert base != run_fingerprint({"arch": "gcn", "seed": 1}, tiny_graph, cfgs, [1])
        assert base != run_fingerprint(config, small_graph, cfgs, [1])
        assert base != run_fingerprint(config, tiny_graph, [TrainConfig(epochs=3)], [1])

    def test_fingerprint_sensitive_to_split(self, tiny_graph):
        """Same structure/features/labels but a different train/val/test
        partition must fingerprint differently — otherwise resume could
        serve weights trained on the wrong split."""
        from repro.graph import Graph

        swapped = Graph(
            tiny_graph.csr,
            tiny_graph.features,
            tiny_graph.labels,
            tiny_graph.val_mask,  # train and val swapped
            tiny_graph.train_mask,
            tiny_graph.test_mask,
            tiny_graph.num_classes,
            name=tiny_graph.name,
        )
        cfgs = [TrainConfig(epochs=2)]
        config = {"arch": "gcn", "seed": 0}
        assert run_fingerprint(config, tiny_graph, cfgs, [1]) != run_fingerprint(
            config, swapped, cfgs, [1]
        )


class TestResume:
    @pytest.mark.parametrize("executor", list(EXECUTORS))
    def test_resume_after_mid_pool_fault(self, tiny_graph, serial_pool, tmp_path, executor):
        """A run killed mid-pool leaves completed ingredients checkpointed;
        the resumed run skips them and the final pool matches a clean run."""
        with pytest.raises(IngredientTrainingError):
            train_ingredients(
                "gcn", tiny_graph, 3, executor=executor, num_workers=2,
                checkpoint_dir=tmp_path, fault_plan={2: 99}, max_retries=0, **KW,
            )
        # entries land under a per-fingerprint subdirectory
        store_files = sorted(p.name for p in tmp_path.glob("*/ingredient-*.npz"))
        assert store_files == ["ingredient-00000.npz", "ingredient-00001.npz"]

        resumed = train_ingredients(
            "gcn", tiny_graph, 3, executor=executor, num_workers=2,
            checkpoint_dir=tmp_path, resume=True, **KW,
        )
        assert_pools_identical(serial_pool, resumed)
        # checkpointed train_times survive the resume verbatim
        assert resumed.train_times[:2] != [0.0, 0.0]

    def test_resume_with_full_checkpoint_retrains_nothing(self, tiny_graph, serial_pool, tmp_path):
        first = train_ingredients(
            "gcn", tiny_graph, 3, executor="serial", checkpoint_dir=tmp_path, **KW
        )
        resumed = train_ingredients(
            "gcn", tiny_graph, 3, executor="serial", checkpoint_dir=tmp_path,
            resume=True, fault_plan={0: 99, 1: 99, 2: 99}, max_retries=0, **KW,
        )
        # the poisonous fault plan proves no task actually ran
        assert_pools_identical(first, resumed)
        assert resumed.train_times == first.train_times

    def test_resume_ignores_foreign_checkpoints(self, tiny_graph, tmp_path):
        """A checkpoint dir written under different hyperparameters must not
        leak into the pool (fingerprint mismatch => retrain)."""
        other_kw = dict(train_cfg=TrainConfig(epochs=2, lr=0.1), base_seed=9, hidden_dim=8)
        train_ingredients("gcn", tiny_graph, 3, checkpoint_dir=tmp_path, **other_kw)
        clean = train_ingredients("gcn", tiny_graph, 3, **KW)
        resumed = train_ingredients(
            "gcn", tiny_graph, 3, checkpoint_dir=tmp_path, resume=True, **KW
        )
        assert_pools_identical(clean, resumed)

    def test_checkpoints_written_per_task_not_per_round(self, tiny_graph, tmp_path, monkeypatch):
        """Each finished ingredient must hit disk immediately: a crash that
        aborts the round mid-way (here an unexpected error on task 2) must
        leave tasks 0 and 1 checkpointed for resume."""
        from repro.distributed import ingredients as ing

        real_train_model = ing.train_model
        calls = []

        def crashing_train_model(model, graph, cfg, seed=0, **kwargs):
            calls.append(seed)
            if len(calls) == 3:
                raise RuntimeError("simulated hard crash mid-pool")
            return real_train_model(model, graph, cfg, seed=seed, **kwargs)

        monkeypatch.setattr(ing, "train_model", crashing_train_model)
        with pytest.raises(RuntimeError, match="mid-pool"):
            train_ingredients(
                "gcn", tiny_graph, 3, executor="serial", checkpoint_dir=tmp_path, **KW
            )
        saved = sorted(p.name for p in tmp_path.glob("*/ingredient-*.npz"))
        assert saved == ["ingredient-00000.npz", "ingredient-00001.npz"]

    def test_resume_requires_checkpoint_dir(self, tiny_graph):
        with pytest.raises(ValueError):
            train_ingredients("gcn", tiny_graph, 1, resume=True, **KW)

    def test_schedule_present_after_resume(self, tiny_graph, tmp_path):
        train_ingredients("gcn", tiny_graph, 2, checkpoint_dir=tmp_path, **KW)
        pool = train_ingredients(
            "gcn", tiny_graph, 2, checkpoint_dir=tmp_path, resume=True, **KW
        )
        assert pool.schedule is not None and pool.schedule.makespan > 0


class TestEpochCheckpoint:
    """Per-epoch granularity: a worker killed mid-ingredient resumes from
    its last epoch snapshot, never from epoch 1 — and the final pool stays
    bit-identical to an uninterrupted run."""

    def test_checkpoint_every_requires_dir(self, tiny_graph):
        with pytest.raises(ValueError, match="checkpoint_every"):
            train_ingredients("gcn", tiny_graph, 1, checkpoint_every=2, **KW)

    def test_negative_checkpoint_every_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            train_ingredients(
                "gcn", tiny_graph, 1, checkpoint_dir="unused", checkpoint_every=-1, **KW
            )

    def test_mid_epoch_kill_then_resume_bit_identical(self, tiny_graph, serial_pool, tmp_path):
        """The acceptance scenario: a process worker hard-dies after 2 of 4
        epochs (FaultPlan kill + after_epochs) with no retry budget; the
        resumed run restarts that task from its epoch snapshot and the
        final pool matches an uninterrupted serial run bit for bit."""
        with pytest.raises(IngredientTrainingError, match=r"\[1\]"):
            train_ingredients(
                "gcn", tiny_graph, 3, executor="process", num_workers=2,
                checkpoint_dir=tmp_path, checkpoint_every=1,
                fault_plan=FaultPlan(failures={1: 99}, kill=True, after_epochs=2),
                max_retries=0, **KW,
            )
        # the killed task left its rolling epoch snapshot behind
        epoch_files = sorted(p.name for p in tmp_path.glob("*/ingredient-*.epoch.npz"))
        assert epoch_files == ["ingredient-00001.epoch.npz"]

        resumed = train_ingredients(
            "gcn", tiny_graph, 3, executor="process", num_workers=2,
            checkpoint_dir=tmp_path, checkpoint_every=1, resume=True, **KW,
        )
        assert_pools_identical(serial_pool, resumed)
        # the snapshot is superseded by the finished ingredient
        assert list(tmp_path.glob("*/ingredient-*.epoch.npz")) == []

    def test_resume_restarts_from_snapshot_not_scratch(self, tiny_graph, serial_pool, tmp_path, monkeypatch):
        """The resumed attempt must actually load the epoch snapshot (epoch
        cursor advanced), not silently retrain from epoch 1."""
        from repro.distributed import ingredients as ing

        with pytest.raises(IngredientTrainingError):
            train_ingredients(
                "gcn", tiny_graph, 3, executor="serial",
                checkpoint_dir=tmp_path, checkpoint_every=2,
                fault_plan=FaultPlan(failures={0: 99}, after_epochs=3),
                max_retries=0, **KW,
            )

        real_train_model = ing.train_model
        seen_states = {}

        def spying_train_model(model, graph, cfg, seed=0, epoch_state=None, **kwargs):
            seen_states[seed] = epoch_state
            return real_train_model(model, graph, cfg, seed=seed, epoch_state=epoch_state, **kwargs)

        monkeypatch.setattr(ing, "train_model", spying_train_model)
        resumed = train_ingredients(
            "gcn", tiny_graph, 3, executor="serial",
            checkpoint_dir=tmp_path, resume=True, **KW,
        )
        assert_pools_identical(serial_pool, resumed)
        # task 0's seed is base_seed * 7919 + 1; its resume state carries
        # the snapshot taken at epoch 2 (last multiple of checkpoint_every
        # before the fault at epoch 3)
        task0_state = seen_states[KW["base_seed"] * 7_919 + 1]
        assert task0_state is not None and task0_state.epoch == 2

    def test_multiple_planned_faults_all_fire_despite_epoch_resume(self, tiny_graph, serial_pool, tmp_path):
        """A retried attempt resuming at/past the fault epoch must still
        die (>= gate, not ==): with 2 planned mid-ingredient faults and
        per-epoch snapshots, both fire and the third attempt finishes."""
        pool = train_ingredients(
            "gcn", tiny_graph, 3, executor="serial",
            checkpoint_dir=tmp_path, checkpoint_every=1,
            fault_plan=FaultPlan(failures={0: 2}, after_epochs=2),
            max_retries=2, **KW,
        )
        assert_pools_identical(serial_pool, pool)

    def test_within_run_retry_resumes_mid_ingredient(self, tiny_graph, serial_pool, tmp_path, monkeypatch):
        """A retried attempt inside one run picks up the dead attempt's
        snapshot instead of burning the epochs again."""
        from repro.distributed import ingredients as ing

        real_train_model = ing.train_model
        resume_epochs = []

        def spying_train_model(model, graph, cfg, seed=0, epoch_state=None, **kwargs):
            if seed == KW["base_seed"] * 7_919 + 1:  # task 0
                resume_epochs.append(None if epoch_state is None else epoch_state.epoch)
            return real_train_model(model, graph, cfg, seed=seed, epoch_state=epoch_state, **kwargs)

        monkeypatch.setattr(ing, "train_model", spying_train_model)
        pool = train_ingredients(
            "gcn", tiny_graph, 3, executor="serial",
            checkpoint_dir=tmp_path, checkpoint_every=1,
            fault_plan=FaultPlan(failures={0: 1}, after_epochs=2), **KW,
        )
        assert_pools_identical(serial_pool, pool)
        assert resume_epochs == [None, 2]  # attempt 1 fresh, attempt 2 resumed

    def test_no_epoch_files_left_after_clean_run(self, tiny_graph, serial_pool, tmp_path):
        pool = train_ingredients(
            "gcn", tiny_graph, 3, executor="serial",
            checkpoint_dir=tmp_path, checkpoint_every=1, **KW,
        )
        assert_pools_identical(serial_pool, pool)
        assert list(tmp_path.glob("*/ingredient-*.epoch.npz")) == []
        finished = sorted(p.name for p in tmp_path.glob("*/ingredient-*.npz"))
        assert finished == [f"ingredient-{i:05d}.npz" for i in range(3)]
