"""Serving latency/throughput: the soup behind concurrent traffic.

Puts a souped GCN behind the :class:`~repro.serve.server.PredictionServer`
frontend and drives it with the load generator
(:func:`repro.serve.loadgen.run_load`) in three configurations:

* ``serial_nocache`` — in-process scoring, LRU disabled: every flush
  pays a forward over its rows' field (layered blocks, or the full pass
  once the field is wide); the floor the cache is measured against;
* ``serial_cached`` — the LRU prediction cache in front of the same
  backend under hot-set traffic: most requests never reach the model;
* ``pipe_workers`` — two process workers behind the cluster stream,
  pipelined flushes (full coalescing is optimal per flush — the rows of
  one flush share most of their field, so splitting a batch repeats
  that work — and parallelism comes from concurrent in-flight batches).

Every configuration asserts the load generator's replay check: replies
under concurrency are **bit-identical** to a serial replay of the same
requests — the serving determinism contract under measurement load.

Rows report p50/p99 latency and request/node throughput;
``wall_clock_s`` (the fixed-size load run's wall time) is gated against
``benchmarks/baselines/serving.json`` by ``compare_baseline.py`` (>2x
regression fails CI).

Reduced-size mode: ``REPRO_BENCH_SCALE`` shrinks the dataset;
``REPRO_BENCH_SERVE_REQUESTS`` / ``REPRO_BENCH_SERVE_CLIENTS`` /
``REPRO_BENCH_SERVE_NODES`` / ``REPRO_BENCH_SERVE_WORKERS`` bound the
traffic and worker pool.
"""

from __future__ import annotations

import json
import os

from repro.distributed import train_ingredients
from repro.graph import load_dataset
from repro.serve import PredictionServer, ServeConfig
from repro.serve.loadgen import run_load
from repro.soup import soup
from repro.telemetry import build_report, metrics, write_metrics
from repro.train import TrainConfig

from conftest import BENCH_SCALE, write_artifact

N_INGREDIENTS = int(os.environ.get("REPRO_BENCH_SERVE_INGREDIENTS", "4"))
EPOCHS = int(os.environ.get("REPRO_BENCH_SERVE_EPOCHS", "8"))
REQUESTS = int(os.environ.get("REPRO_BENCH_SERVE_REQUESTS", "1000"))
CLIENTS = int(os.environ.get("REPRO_BENCH_SERVE_CLIENTS", "3"))
NODES_PER_REQUEST = int(os.environ.get("REPRO_BENCH_SERVE_NODES", "8"))
NUM_WORKERS = int(os.environ.get("REPRO_BENCH_SERVE_WORKERS", "2"))

SCENARIOS = {
    "serial_nocache": ServeConfig(backend="serial", cache_nodes=0, max_wait_s=0.001),
    "serial_cached": ServeConfig(backend="serial", cache_nodes=65536, max_wait_s=0.001),
    "pipe_workers": ServeConfig(
        backend="pipe", num_workers=NUM_WORKERS, cache_nodes=0, max_wait_s=0.001
    ),
}


def _row(server: PredictionServer, load: dict) -> dict:
    lat, stats = load["latency_s"], load["server_stats"]
    return {
        "wall_clock_s": load["wall_s"],
        "p50_latency_s": lat["p50"],
        "p99_latency_s": lat["p99"],
        "max_latency_s": lat["max"],
        "throughput_rps": load["throughput_rps"],
        "node_throughput_nps": load["node_throughput_nps"],
        "flushes": stats["flushes"],
        "batched_nodes": stats["batched_nodes"],
        "cache_hits": stats["cache"]["hits"],
        "cache_misses": stats["cache"]["misses"],
        "replay_bit_identical": bool(load["verified"]),
        "backend": server.config.backend,
    }


def _sweep() -> dict:
    graph = load_dataset("flickr", seed=0, scale=BENCH_SCALE)
    pool = train_ingredients(
        "gcn", graph, N_INGREDIENTS,
        train_cfg=TrainConfig(epochs=EPOCHS, lr=0.01),
        base_seed=0, hidden_dim=32,
    )
    state = soup("us", pool, graph).state_dict

    sections: dict[str, dict] = {}
    for name, config in SCENARIOS.items():
        with PredictionServer(pool.model_config, graph, [state], config=config) as server:
            server.start()
            host, port = server.address
            run_load(  # warm-up: connects, first forwards, worker init
                host, port, requests=max(CLIENTS * 2, 4), clients=CLIENTS,
                pipeline=2, nodes_per_request=NODES_PER_REQUEST, seed=7, verify=False,
            )
            load = run_load(
                host, port, requests=REQUESTS, clients=CLIENTS, pipeline=4,
                nodes_per_request=NODES_PER_REQUEST, hot_fraction=0.8, seed=1,
            )
            sections[name] = _row(server, load)
            assert sections[name]["replay_bit_identical"], name

    return {
        "config": {
            "dataset": "flickr",
            "scale": BENCH_SCALE,
            "n_ingredients": N_INGREDIENTS,
            "ingredient_epochs": EPOCHS,
            "requests": REQUESTS,
            "clients": CLIENTS,
            "nodes_per_request": NODES_PER_REQUEST,
            "num_workers": NUM_WORKERS,
            "cpu_count": os.cpu_count(),
        },
        "serving": sections,
    }


def test_bench_serving(benchmark, results_dir):
    """Load-generated p50/p99 + throughput per serving configuration."""
    metrics.reset()
    metrics.set_enabled(True)  # exercise the instrumented path end to end
    try:
        report = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    finally:
        metrics.set_enabled(False)
    write_artifact(results_dir, "serving.json", json.dumps(report, indent=2) + "\n")
    write_metrics(build_report(bench="serving"), results_dir / "serving_metrics.json")
    rows = report["serving"]
    assert set(rows) == set(SCENARIOS)
    for name, row in rows.items():
        assert row["replay_bit_identical"], name
        assert row["wall_clock_s"] > 0 and row["p99_latency_s"] >= row["p50_latency_s"] > 0, name
    # the cache must actually absorb traffic in the cached scenario
    assert rows["serial_cached"]["cache_hits"] > rows["serial_cached"]["cache_misses"]
