"""Real executor scaling: serial vs process wall-clock (Fig. 4a's headline
dimension, measured instead of simulated), plus the process executor's
graph-transport (shared memory vs pickled payload) delta.

Phase-1 training is zero-communication (Eq. 1/2), so a process pool should
approach ``min(W, N)``-way speedup on multi-core hardware while the serial
loop anchors the baseline. This bench measures the executors on the same
task set, checks the determinism contract (bit-identical pools across
every executor × transport combination), and adds a straggler-skewed
workload — heterogeneous epoch budgets plus one injected fault — whose
retry rides along with the draining work-stealing queue.

The JSON artifact is consumed by the CI benchmark-smoke job and gated
against ``benchmarks/baselines/executor_scaling.json`` by
``compare_baseline.py`` (>2x wall-clock regression fails the job).

Reduced-size mode: ``REPRO_BENCH_SCALE`` shrinks the dataset and
``REPRO_BENCH_EXEC_INGREDIENTS`` / ``REPRO_BENCH_EXEC_EPOCHS`` bound the
task set, so the sweep stays seconds-cheap in CI.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.distributed import EXECUTORS, FaultPlan, train_ingredients
from repro.graph import load_dataset
from repro.train import TrainConfig

from conftest import BENCH_SCALE, write_artifact

N_INGREDIENTS = int(os.environ.get("REPRO_BENCH_EXEC_INGREDIENTS", "6"))
EPOCHS = int(os.environ.get("REPRO_BENCH_EXEC_EPOCHS", "20"))
WORKERS = max(2, min(4, os.cpu_count() or 1))


def _timed(pools, key, *args, **kwargs):
    start = time.perf_counter()
    pool = train_ingredients(*args, **kwargs)
    elapsed = time.perf_counter() - start
    pools[key] = pool
    return {
        "wall_clock_s": elapsed,
        "sum_task_s": float(np.sum(pool.train_times)),
        "simulated_makespan_s": float(pool.schedule.makespan),
        "mean_val_acc": float(np.mean(pool.val_accs)),
    }


def _assert_identical(reference, pool):
    for s1, s2 in zip(reference.states, pool.states):
        for name in s1:
            np.testing.assert_array_equal(s1[name], s2[name])


def _sweep() -> dict:
    graph = load_dataset("ogbn-arxiv", seed=0, scale=BENCH_SCALE)
    kw = dict(
        train_cfg=TrainConfig(epochs=EPOCHS, lr=0.01),
        base_seed=0,
        num_workers=WORKERS,
        hidden_dim=32,
    )
    pools: dict = {}

    # -- headline executors (process = its default: dynamic queue + shm) ---
    rows = {
        executor: _timed(pools, executor, "gcn", graph, N_INGREDIENTS, executor=executor, **kw)
        for executor in EXECUTORS
    }

    # -- process-executor variants: graph transport ------------------------
    # the default combination (dynamic queue + shm) IS the headline
    # "process" row — alias it instead of training the campaign twice
    variant_rows = {
        "dynamic+shm": dict(rows["process"]),
        "dynamic+noshm": _timed(
            pools, "dynamic+noshm", "gcn", graph, N_INGREDIENTS, executor="process", shm=False, **kw,
        ),
    }

    # determinism contract: identical ingredients whatever the
    # executor or graph transport
    reference = pools["serial"]
    for key, pool in pools.items():
        _assert_identical(reference, pool)
    for row in (*rows.values(), *variant_rows.values()):
        row["bit_identical_to_serial"] = True

    serial_wall = rows["serial"]["wall_clock_s"]
    for row in (*rows.values(), *variant_rows.values()):
        row["speedup_vs_serial"] = serial_wall / row["wall_clock_s"]

    # -- straggler-skewed workload ------------------------------------------
    # heterogeneous epoch budgets (the paper's "variability in ingredient
    # complexity") plus one faulted attempt: the work-stealing queue slots
    # the retry in while the long tasks still drain
    straggler_kw = dict(
        train_cfg=TrainConfig(epochs=EPOCHS, lr=0.01),
        base_seed=1,
        num_workers=WORKERS,
        hidden_dim=32,
        epoch_jitter=max(2, EPOCHS // 2),
        fault_plan=FaultPlan(failures={0: 1}),
        max_retries=2,
    )
    straggler = {
        "dynamic": _timed(
            {}, "dynamic", "gcn", graph, N_INGREDIENTS, executor="process", **straggler_kw,
        )
    }

    return {
        "config": {
            "dataset": "ogbn-arxiv",
            "scale": BENCH_SCALE,
            "n_ingredients": N_INGREDIENTS,
            "epochs": EPOCHS,
            "num_workers": WORKERS,
            "cpu_count": os.cpu_count(),
        },
        "executors": rows,
        "process_variants": variant_rows,
        "straggler": straggler,
    }


def test_bench_executor_scaling(benchmark, results_dir):
    """Executor / transport wall-clock on one shared task set."""
    report = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    write_artifact(results_dir, "executor_scaling.json", json.dumps(report, indent=2) + "\n")
    for section in ("executors", "process_variants"):
        for name, row in report[section].items():
            assert row["bit_identical_to_serial"], name
            assert row["wall_clock_s"] > 0, name
    # the process pool must not collapse: even on a 1-core container it
    # stays within a small constant factor of serial (fork + IPC overhead)
    assert report["executors"]["process"]["speedup_vs_serial"] > 0.2
