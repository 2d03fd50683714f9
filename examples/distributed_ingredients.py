#!/usr/bin/env python3
"""Phase 1 in detail: zero-communication distributed ingredient training.

Demonstrates §III-A of the paper:

* a shared initialisation distributed to all workers,
* dynamic task-queue scheduling when N > W (Eq. 1: T ≈ (N/W)·T_single),
* the ideal N <= W regime (Eq. 2: T = max_i T_i),
* a cluster-width sweep showing the embarrassingly-parallel speedup curve,
* determinism: the ingredient set is identical regardless of executor
  (serial vs process) or graph transport (shared memory vs pickled
  payloads).

Run:  python examples/distributed_ingredients.py

Size knobs (the CI install-smoke job shrinks them): ``REPRO_EXAMPLE_SCALE``
(dataset multiplier, default 0.5), ``REPRO_EXAMPLE_INGREDIENTS`` (default
12), ``REPRO_EXAMPLE_EPOCHS`` (default 30).
"""

import os
import tempfile

import numpy as np

from repro import load_dataset
from repro.distributed import WorkerPoolSimulator, eq1_estimate, train_ingredients
from repro.train import TrainConfig

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "0.5"))
N_INGREDIENTS = int(os.environ.get("REPRO_EXAMPLE_INGREDIENTS", "12"))
EPOCHS = int(os.environ.get("REPRO_EXAMPLE_EPOCHS", "30"))


def main() -> None:
    graph = load_dataset("ogbn-arxiv", seed=0, scale=SCALE)
    print(f"dataset: {graph}")

    n_ingredients = N_INGREDIENTS
    pool = train_ingredients(
        "gcn",
        graph,
        n_ingredients=n_ingredients,
        train_cfg=TrainConfig(epochs=EPOCHS, lr=0.01),
        base_seed=0,
        epoch_jitter=max(2, EPOCHS // 3),  # heterogeneous durations -> load imbalance
        num_workers=4,
    )
    durations = np.asarray(pool.train_times)
    print(
        f"\ntrained {n_ingredients} ingredients; per-task seconds: "
        f"min {durations.min():.2f} / mean {durations.mean():.2f} / max {durations.max():.2f}"
    )

    # -- the schedule the 4-worker cluster would execute --------------------
    sched = pool.schedule
    print(f"\ndynamic-queue schedule on W={sched.num_workers} workers:")
    for w in range(sched.num_workers):
        tasks = [i for i in range(n_ingredients) if sched.worker_of_task[i] == w]
        busy = sched.worker_busy[w]
        print(f"  worker {w}: tasks {tasks}  busy {busy:.2f}s")
    eq1 = eq1_estimate(n_ingredients, sched.num_workers, float(durations.mean()))
    print(
        f"  makespan {sched.makespan:.2f}s | Eq.(1) estimate {eq1:.2f}s | "
        f"utilisation {sched.utilization:.0%}"
    )

    # -- Eq. (2): enough workers -> slowest task dominates --------------------
    wide = WorkerPoolSimulator(n_ingredients).schedule(durations)
    print(
        f"\nwith W = N = {n_ingredients} workers: makespan {wide.makespan:.2f}s "
        f"== slowest ingredient {durations.max():.2f}s (Eq. 2)"
    )

    # -- scaling sweep ----------------------------------------------------------
    print(f"\n{'W':>4} {'makespan':>9} {'speedup':>8} {'util':>6}")
    seq = durations.sum()
    for w in (1, 2, 4, 8, 16):
        s = WorkerPoolSimulator(w).schedule(durations)
        print(f"{w:>4} {s.makespan:>9.2f} {seq / s.makespan:>8.2f} {s.utilization:>6.0%}")

    print(
        "\nnote: zero-communication training parallelises embarrassingly until "
        "W exceeds N — beyond that, extra workers idle (no way to split one "
        "ingredient), which is exactly why the paper trains many ingredients."
    )

    # -- real multi-core execution + determinism + fault recovery ------------
    # The determinism contract: the serial and process executors produce
    # bit-identical ingredients for the same base_seed — under either graph
    # transport (one shared-memory segment per pool by default, pickled
    # payloads with shm=False). With a
    # checkpoint directory, a run that dies mid-pool resumes without
    # retraining finished ingredients, and checkpoint_every=N resumes even
    # *interrupted* ingredients from their last epoch snapshot.
    small_kw = dict(
        train_cfg=TrainConfig(epochs=max(4, EPOCHS // 3), lr=0.01), base_seed=0, num_workers=4,
    )
    reference = train_ingredients("gcn", graph, 4, executor="serial", **small_kw)
    payload_pool = train_ingredients(
        "gcn", graph, 4, executor="process", shm=False, **small_kw,
    )
    with tempfile.TemporaryDirectory() as ckpt:
        # worker for task 2 dies once (injected fault); the work-stealing
        # queue slots the retry in while the other workers keep draining
        faulted = train_ingredients(
            "gcn", graph, 4, executor="process",
            checkpoint_dir=ckpt, checkpoint_every=2, fault_plan={2: 1}, **small_kw,
        )
        resumed = train_ingredients(
            "gcn", graph, 4, executor="process",
            checkpoint_dir=ckpt, checkpoint_every=2, resume=True, **small_kw,
        )
    identical = all(
        np.array_equal(a[n], b[n]) and np.array_equal(a[n], c[n]) and np.array_equal(a[n], d[n])
        for a, b, c, d in zip(reference.states, payload_pool.states, faulted.states, resumed.states)
        for n in a
    )
    print(
        f"\nprocess executor (dynamic queue + shared-memory graph) with 1 injected "
        f"fault + checkpoint resume: ingredients bit-identical to serial = {identical}"
    )


if __name__ == "__main__":
    main()
