#!/usr/bin/env python3
"""Phase 2 in detail: the shared candidate-evaluation engine.

Phase 2 (souping) is dominated by repeated validation-set scoring of
candidate state dicts — GIS's exhaustive interpolation-ratio grid is
``(N-1)·g`` full forward passes (§III-E). This example demonstrates the
parallel souping engine introduced on top of the Phase-1 distributed
substrate:

* one :func:`repro.soup.make_evaluator` per (pool, graph) pair, with
  ``serial`` / ``process`` backends behind one API;
* the process backend ships the graph AND the pool's stacked flat states
  through shared memory once, then candidates cross the process boundary
  as tiny ``[N]`` weight vectors and are mixed zero-copy in the workers;
* the determinism contract: every backend returns the bit-identical
  soup — parallelism changes wall-clock, never results;
* LS multi-restart (``SoupConfig(n_restarts=R)``): R independent alpha
  descents whose final soups are scored as one evaluator batch.

Run:  python examples/parallel_souping.py

Size knobs (the CI install-smoke job shrinks them): ``REPRO_EXAMPLE_SCALE``
(dataset multiplier, default 0.5), ``REPRO_EXAMPLE_INGREDIENTS`` (default
8), ``REPRO_EXAMPLE_EPOCHS`` (default 20), ``REPRO_EXAMPLE_GRANULARITY``
(GIS ratios, default 16), ``REPRO_EXAMPLE_SOUP_WORKERS`` (default 4).
"""

import os
import time

import numpy as np

from repro import load_dataset
from repro.distributed import train_ingredients
from repro.soup import SOUP_EXECUTORS, SoupConfig, gis_soup, learned_soup, make_evaluator
from repro.train import TrainConfig

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "0.5"))
N_INGREDIENTS = int(os.environ.get("REPRO_EXAMPLE_INGREDIENTS", "8"))
EPOCHS = int(os.environ.get("REPRO_EXAMPLE_EPOCHS", "20"))
GRANULARITY = int(os.environ.get("REPRO_EXAMPLE_GRANULARITY", "16"))
SOUP_WORKERS = int(os.environ.get("REPRO_EXAMPLE_SOUP_WORKERS", "4"))


def main() -> None:
    graph = load_dataset("flickr", seed=0, scale=SCALE)
    print(f"dataset: {graph}")

    pool = train_ingredients(
        "gcn",
        graph,
        n_ingredients=N_INGREDIENTS,
        train_cfg=TrainConfig(epochs=EPOCHS, lr=0.01),
        base_seed=0,
        num_workers=SOUP_WORKERS,
    )
    print(f"pool: {N_INGREDIENTS} ingredients, mean val acc {np.mean(pool.val_accs):.4f}")

    # -- the GIS ratio grid through each backend ----------------------------
    print(f"\nGIS line search: {(N_INGREDIENTS - 1) * GRANULARITY} candidate evaluations")
    reference = None
    for backend in SOUP_EXECUTORS:
        with make_evaluator(pool, graph, backend=backend, num_workers=SOUP_WORKERS) as ev:
            # warm the backend (process: worker spawn + shm packing) so the
            # measured time is the steady-state sweep
            ev.accuracy_of(weights=np.full(N_INGREDIENTS, 1.0 / N_INGREDIENTS))
            start = time.perf_counter()
            result = gis_soup(pool, graph, granularity=GRANULARITY, evaluator=ev)
            wall = time.perf_counter() - start
        if reference is None:
            reference = result
        identical = all(
            np.array_equal(reference.state_dict[name], result.state_dict[name])
            for name in reference.state_dict
        )
        print(
            f"  {backend:<8} {wall:7.3f}s   val {result.val_acc:.4f}  "
            f"test {result.test_acc:.4f}  bit-identical to serial: {identical}"
        )
        assert identical, "the determinism contract is broken"

    # -- LS multi-restart on the shared engine ------------------------------
    restarts = max(2, SOUP_WORKERS)
    cfg = SoupConfig(epochs=max(4, EPOCHS // 4), lr=0.5, n_restarts=restarts)
    with make_evaluator(pool, graph, backend="process", num_workers=SOUP_WORKERS) as ev:
        ls = learned_soup(pool, graph, cfg, evaluator=ev)
    print(
        f"\nLS x{restarts} restarts: val accs "
        + ", ".join(f"{a:.4f}" for a in ls.extras["restart_val_accs"])
        + f" -> restart {ls.extras['best_restart']} wins (test {ls.test_acc:.4f})"
    )


if __name__ == "__main__":
    main()
