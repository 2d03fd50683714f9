"""Cluster-runtime transport scaling: pipe vs tcp, Phase 1.

The unified cluster runtime (:mod:`repro.distributed.cluster`) runs the
same claim/done worker service behind two transports: the same-host
``pipe`` (shared task queue + shm attach) and the multi-host ``tcp``
(length-prefixed socket frames; loopback workers here). This bench
measures what the socket hop costs on one ingredient-training fan-out
per transport (the serialized graph crosses the wire at most once per
worker, tasks are tiny specs, results are full state dicts). Phase 2
runs in the driver, so it has no transport to measure.

Determinism is asserted along the way: every transport must return the
bit-identical pool. The JSON artifact is gated against
``benchmarks/baselines/cluster_transport.json`` by
``compare_baseline.py`` (>2x wall-clock regression fails CI).

Reduced-size mode: ``REPRO_BENCH_SCALE`` shrinks the dataset and
``REPRO_BENCH_CLUSTER_INGREDIENTS`` / ``REPRO_BENCH_CLUSTER_EPOCHS``
bound the workload.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.distributed import train_ingredients
from repro.graph import load_dataset
from repro.telemetry import build_report, metrics, write_metrics
from repro.train import TrainConfig

from conftest import BENCH_SCALE, write_artifact

N_INGREDIENTS = int(os.environ.get("REPRO_BENCH_CLUSTER_INGREDIENTS", "6"))
EPOCHS = int(os.environ.get("REPRO_BENCH_CLUSTER_EPOCHS", "10"))
WORKERS = max(2, min(4, os.cpu_count() or 1))


def _assert_pools_identical(reference, pool):
    for s1, s2 in zip(reference.states, pool.states):
        for name in s1:
            np.testing.assert_array_equal(s1[name], s2[name])
    assert reference.val_accs == pool.val_accs


def _sweep() -> dict:
    # telemetry on for the whole sweep: the companion metrics artifact
    # records what each transport actually moved (frames/bytes, claim
    # latency, queue wait, shm attaches), and the identity assert below
    # doubles as an enabled-mode determinism check
    metrics.reset()
    metrics.set_enabled(True)
    graph = load_dataset("flickr", seed=0, scale=BENCH_SCALE)
    train_kw = dict(
        train_cfg=TrainConfig(epochs=EPOCHS, lr=0.01),
        base_seed=0, num_workers=WORKERS, hidden_dim=32,
    )

    # -- Phase 1: the same fan-out through each transport -------------------
    phase1: dict[str, dict] = {}
    pools: dict[str, object] = {}
    for name, kwargs in (
        ("serial", dict(executor="serial")),
        ("pipe", dict(executor="process", transport="pipe")),
        ("tcp", dict(executor="process", transport="tcp")),
    ):
        start = time.perf_counter()
        pools[name] = train_ingredients("gcn", graph, N_INGREDIENTS, **train_kw, **kwargs)
        phase1[name] = {"wall_clock_s": time.perf_counter() - start}
    for name, pool in pools.items():
        _assert_pools_identical(pools["serial"], pool)
        phase1[name]["bit_identical_to_serial"] = True
    anchor = phase1["serial"]["wall_clock_s"]
    for row in phase1.values():
        row["speedup_vs_serial"] = anchor / row["wall_clock_s"]

    return {
        "config": {
            "dataset": "flickr",
            "scale": BENCH_SCALE,
            "n_ingredients": N_INGREDIENTS,
            "ingredient_epochs": EPOCHS,
            "num_workers": WORKERS,
            "cpu_count": os.cpu_count(),
        },
        "phase1_transports": phase1,
    }


def test_bench_cluster_transport(benchmark, results_dir):
    """Pipe-vs-tcp wall clock for Phase-1 training."""
    report = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    write_artifact(results_dir, "cluster_transport.json", json.dumps(report, indent=2) + "\n")
    # companion metrics artifact (driver + per-worker counters/histograms)
    write_metrics(build_report(bench="cluster_transport"), results_dir / "cluster_transport_metrics.json")
    metrics.set_enabled(False)
    for name, row in report["phase1_transports"].items():
        assert row["bit_identical_to_serial"], name
        assert row["wall_clock_s"] > 0, name
