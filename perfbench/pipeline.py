"""The workloads and the train -> soup -> serve pipeline the benchmark times.

Every workload runs the whole pipeline, so every end-to-end metric is
measured on every workload; the workloads differ in which phase carries
the weight:

* ``soup-products-sage`` — the paper's PLS headline cell (products/SAGE,
  K=32, R=8): a serial full-batch SAGE pool, then most of the run in
  GIS, LS and PLS. ``soup/``, ``graph/partition`` and the SAGE kernels
  do the work.
* ``train-arxiv-gat-cluster`` — GAT ingredients trained on sampled
  minibatches through the prefetch pipeline, on the dynamic
  ``ClusterService`` queue with two process workers. ``train/pipeline``,
  ``graph/sampling``, the GAT kernels, ``optim/`` and ``distributed/``
  do the work.

On both, the LS soup is served from its own process to a closed loop of
two clients, with the cache off (``cold``: every flush is a forward pass)
and on (``hot``: ``serve/cache`` answers).

A Phase-2 round calls GIS, LS and PLS once each. Rounds repeat until the
workload's share of ``--seconds`` is spent, and the end-to-end soup times
are medians over rounds, because a single call varies by 10-20 % from one
call to the next on a small shared machine. For the same reason the load
comes in blocks between rounds rather than in one window of the run.
"""

from __future__ import annotations

import hashlib
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from repro import load_dataset
from repro.distributed import train_ingredients
from repro.experiments.config import make_spec
from repro.graph import partition_graph
from repro.serve import ServeClient, ServeError, run_load
from repro.soup import SoupConfig, eval_state, gis_soup, learned_soup, make_evaluator, partition_learned_soup
from repro.train import evaluate_logits

from serving import ServerProcess
from tracing import BACKWARD, EVALUATE, MIX, OPTIM_STEP, Capture, Tracer

#: The datasets are fixed, like the OGB graphs the paper uses, and so is
#: the seed of their PLS partition (preprocessing of the dataset, paper
#: Fig. 2): --seed picks the ingredient and soup seeds and the traffic.
DATASET_SEED = 0

#: Phase-1 process workers; fixed so the workload is the same on any host.
WORKERS = 2

#: Set-up (graph generation + Phase-1 warm-up) repeats; setup_s takes the median.
SETUP_REPEATS = 3

#: Closed-loop load: two clients, one outstanding request each.
CLIENTS = 2
NODES_PER_REQUEST = 8
HOT_SET = 64
WARM_COLD = 50
WARM_HOT = 100  # covers the 64-node hot set with high probability
HOT_CHUNK = 1000
COLD_REQUESTS = 1000  # in total, so p99 has 10 samples above it

#: Phase-2 rounds: serving starts after round 1, loads after rounds 2 and
#: 3, and closes during rounds 4 and 5 (a close can take 10 s).
MIN_ROUNDS = 5
SERVE_BLOCKS = 2

#: Node rows compared between the server and an offline forward pass.
CHECKED_ROWS = 64


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a paper cell plus how the run is split."""

    dataset: str
    arch: str
    scale: float  # dataset node-count multiplier
    n_ingredients: int
    ingredient_epochs: int
    executor: str  # Phase-1 executor
    minibatch: bool
    gis_granularity: int
    soup_epochs: int  # LS and PLS alpha epochs
    soup_share: float  # share of --seconds spent in Phase-2 rounds (at least MIN_ROUNDS)
    hot_share: float  # share of --seconds of hot-set load


WORKLOADS = {
    "soup-products-sage": Workload(
        dataset="ogbn-products", arch="sage", scale=0.5, n_ingredients=4, ingredient_epochs=20,
        executor="serial", minibatch=False, gis_granularity=20, soup_epochs=40,
        soup_share=0.8, hot_share=0.1,
    ),
    "train-arxiv-gat-cluster": Workload(
        dataset="ogbn-arxiv", arch="gat", scale=0.6, n_ingredients=6, ingredient_epochs=12,
        executor="process", minibatch=True, gis_granularity=10, soup_epochs=20,
        soup_share=0.6, hot_share=0.1,
    ),
}

SOUPS = ("gis", "ls", "pls")


@dataclass
class Outcome:
    """What a run measured and whether its outputs were right."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


@dataclass
class Call:
    """One souping call, timed the way its caller waits for it."""

    wall_s: float
    minflt: int
    sys_s: float
    result: object
    extra: dict = field(default_factory=dict)


def _timed_call(fn) -> Call:
    ru0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    result, extra = fn()
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    return Call(wall, ru1.ru_minflt - ru0.ru_minflt, ru1.ru_stime - ru0.ru_stime, result, extra)


def _log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def _median(values) -> float:
    return float(statistics.median(values))


def _calls(rounds, method: str, untraced: bool = False) -> list[Call]:
    """Every successful call of ``method``, optionally from untraced rounds only."""
    return [calls[method] for traced, calls, _ in rounds if method in calls and not (untraced and traced)]


def _partition_digest(labels: np.ndarray) -> int:
    return int.from_bytes(hashlib.blake2b(np.ascontiguousarray(labels, dtype=np.int64).tobytes(), digest_size=6).digest(), "big")


class Serving:
    """The serving phase: the LS soup behind a server process of its own,
    loaded in blocks between Phase-2 rounds so that the samples spread
    over the run instead of one window of it."""

    def __init__(self, run: "Run", pool, graph, state: dict) -> None:
        self.run = run
        self.pool, self.graph, self.state = pool, graph, state
        self.cold_latencies: list[float] = []
        self.cold_wall = 0.0
        self.hot_requests = 0
        self.hot_wall = 0.0
        self.cold_reports: list[dict | None] = []
        self.hot_reports: list[dict | None] = []
        self.blocks = 0
        self.stopped = False
        t0 = time.perf_counter()
        self.server = ServerProcess(run.wl.dataset, run.wl.scale, DATASET_SEED, pool.model_config, state, run.tracer.enabled)
        try:
            self.cold_addr, self.hot_addr = self.server.addresses["cold"], self.server.addresses["hot"]
            # warm-up: the cold server's first forwards, and every hot-set row into the cache
            self._replay_load(self.cold_addr, WARM_COLD, hot=False)
            self._replay_load(self.hot_addr, WARM_HOT, hot=True)
            self.server.report()
        except BaseException:
            self.server.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _replay_load(self, address, requests: int, hot: bool) -> dict:
        """One ``run_load`` call, whose replay must come back bit-identical."""
        out = self.run.out
        out.attempted += requests
        try:
            result = run_load(
                *address, requests=requests, clients=CLIENTS, pipeline=1,
                nodes_per_request=NODES_PER_REQUEST, hot_fraction=1.0 if hot else 0.0,
                hot_set=HOT_SET, seed=self.run.seed, verify=True,
            )
        except Exception:
            out.failed += requests
            raise
        out.check(result["verified"] is True, f"loadgen replay on the {'hot' if hot else 'cold'} server is not bit-identical")
        return result

    def _cold_block(self, requests: int) -> None:
        """Closed loop on the cold server, keeping every latency (``run_load``
        reports only its own percentiles, and these span all blocks)."""
        per_client = max(1, requests // CLIENTS)
        latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
        errors: list[Exception] = []

        def client(index: int) -> None:
            rng = np.random.default_rng([self.run.seed, self.blocks, index])
            try:
                with ServeClient(*self.cold_addr) as conn:
                    for _ in range(per_client):
                        ids = rng.integers(0, self.graph.num_nodes, size=NODES_PER_REQUEST)
                        t0 = time.perf_counter()
                        conn.predict(ids)
                        latencies[index].append(time.perf_counter() - t0)
            except (ServeError, OSError) as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.cold_wall += time.perf_counter() - t0
        done = sum(len(lat) for lat in latencies)
        self.run.out.attempted += per_client * CLIENTS
        self.run.out.failed += per_client * CLIENTS - done
        if errors:
            raise errors[0]
        for lat in latencies:
            self.cold_latencies.extend(lat)

    def block(self, cold_requests: int, hot_seconds: float) -> None:
        """One block of cold requests, then hot-set load for ``hot_seconds``."""
        self._cold_block(cold_requests)
        self.cold_reports.append(self.server.report())
        spent = 0.0
        while spent < hot_seconds:
            result = self._replay_load(self.hot_addr, HOT_CHUNK, hot=True)
            self.hot_requests += result["requests"]
            spent += result["wall_s"]
        self.hot_wall += spent
        self.hot_reports.append(self.server.report())
        self.blocks += 1

    def stop(self) -> None:
        """Check served rows against an offline forward pass, then let the
        server process close in the background."""
        try:
            ids = np.random.default_rng(self.run.seed).choice(self.graph.num_nodes, size=CHECKED_ROWS, replace=False)
            with ServeClient(*self.cold_addr) as conn:
                served = np.asarray(conn.predict(ids))
            model = self.pool.make_model()
            model.load_state_dict(self.state)
            offline = evaluate_logits(model, self.graph)[ids]
            self.run.out.check(np.array_equal(served, offline), "served rows differ from offline evaluate_logits")
            self.server.stop()
        except BaseException:
            self.server.kill()
            raise
        self.stopped = True

    def close(self) -> None:
        """Wait for the server process to finish closing, or kill it when
        the run failed before :meth:`stop`."""
        if self.stopped:
            self.server.join()
        else:
            self.server.kill()


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool) -> None:
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer(trace)
        self.out = Outcome()
        self.spec = make_spec(
            self.wl.dataset, self.wl.arch,
            n_ingredients=self.wl.n_ingredients, ingredient_epochs=self.wl.ingredient_epochs,
            # no epoch jitter: the epoch count is exact for train_epochs_per_s
            epoch_jitter=0, minibatch=self.wl.minibatch,
            prefetch_depth=2 if self.wl.minibatch else 0, sample_workers=1,
            gis_granularity=self.wl.gis_granularity,
            ls_epochs=self.wl.soup_epochs, pls_epochs=self.wl.soup_epochs,
            base_seed=seed,
        )

    # -- phases ----------------------------------------------------------

    def _train(self, graph, n: int, epochs: int):
        spec = replace(self.spec, n_ingredients=n, ingredient_epochs=epochs)
        kwargs = spec.ingredient_kwargs()
        kwargs["num_workers"] = WORKERS
        # shm=False keeps the graph on the pipes instead of /dev/shm
        return train_ingredients(self.wl.arch, graph, n, executor=self.wl.executor, queue="dynamic", shm=False, **kwargs)

    def _soup_round(self, pool, graph, seed: int) -> dict[str, Call]:
        """One GIS, one LS and one PLS call; ``seed`` is the LS/PLS seed."""
        spec = self.spec

        def gis():
            evaluator = make_evaluator(pool, graph)
            self.tracer.wrap_evaluator(evaluator)
            with evaluator:
                result = gis_soup(pool, graph, granularity=spec.gis_granularity, evaluator=evaluator)
            return result, {"backend_evals": evaluator.backend_evals, "cache_hits": evaluator.cache_hits}

        def ls():
            return learned_soup(pool, graph, spec.ls_config(seed=seed)), {}

        def pls():
            cfg = replace(spec.pls_config(seed=seed), partition_seed=DATASET_SEED)
            t0 = time.perf_counter()
            partition = partition_graph(
                graph, cfg.num_partitions, method=cfg.partition_method, node_weights="val", seed=cfg.partition_seed
            )
            partition_s = time.perf_counter() - t0
            result = partition_learned_soup(pool, graph, cfg, partition=partition)
            return result, {
                "partition_s": partition_s,
                "digest": _partition_digest(partition.labels),
                "cut_edges": partition.cut_edges,
            }

        calls = {}
        for method, fn in (("gis", gis), ("ls", ls), ("pls", pls)):
            self.out.attempted += 1
            try:
                calls[method] = _timed_call(fn)
            except Exception:  # a failed call is counted, the run goes on
                self.out.failed += 1
                traceback.print_exc()
        return calls

    def _check_soups(self, pool, graph, calls: dict[str, Call]) -> None:
        model = pool.make_model()
        for method, call in calls.items():
            result = call.result
            again = eval_state(model, result.state_dict, graph, "test")
            self.out.check(again == result.test_acc, f"{method} test accuracy {result.test_acc} != eval_state {again}")

    # -- the run ----------------------------------------------------------

    def run(self) -> Outcome:
        wl, out, tracer = self.wl, self.out, self.tracer

        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            graph = load_dataset(wl.dataset, seed=DATASET_SEED, scale=wl.scale)
            self._train(graph, WORKERS, 1)
            setup_times.append(time.perf_counter() - t0)
        setup_s = _median(setup_times)
        _log(f"set-up {setup_times[0]:.2f} / {setup_s:.2f} s (first / median of {SETUP_REPEATS})")

        with tracer.traced() as phase1:
            t0 = time.perf_counter()
            pool = self._train(graph, wl.n_ingredients, wl.ingredient_epochs)
            train_s = time.perf_counter() - t0
        out.attempted += wl.n_ingredients
        _log(f"phase 1: {wl.n_ingredients} x {wl.ingredient_epochs} epochs in {train_s:.2f} s")
        out.check(len(pool) == wl.n_ingredients, f"pool has {len(pool)} ingredients, expected {wl.n_ingredients}")

        t0 = time.perf_counter()
        learned_soup(pool, graph, SoupConfig(epochs=2, seed=self.seed))
        setup_s += time.perf_counter() - t0

        # Phase 2. Serving starts after the first round and runs one block
        # after each of the next SERVE_BLOCKS rounds; the server process
        # then closes while the last rounds run. Each round soups with its
        # own LS/PLS seed, so accuracies and peaks are medians over several
        # soups, as the paper averages over soups. In a traced run, odd
        # rounds are traced and even ones are not: the tracing overhead.
        rounds: list[tuple[bool, dict[str, Call], object]] = []
        serving: Serving | None = None
        spent = 0.0
        try:
            while len(rounds) < MIN_ROUNDS or spent < wl.soup_share * self.seconds:
                traced = tracer.enabled and len(rounds) % 2 == 1
                with tracer.traced(traced) as capture:
                    calls = self._soup_round(pool, graph, self.seed * 1000 + len(rounds))
                spent += sum(call.wall_s for call in calls.values())
                rounds.append((traced, calls, capture))
                _log(f"round {len(rounds)}: " + ", ".join(f"{m} {c.wall_s:.2f} s" for m, c in calls.items()))
                self._check_soups(pool, graph, calls)
                if serving is None:
                    if "ls" not in calls:
                        raise RuntimeError("the first LS soup failed; nothing to serve")
                    serving = Serving(self, pool, graph, calls["ls"].result.state_dict)
                    setup_s += serving.setup_s
                elif serving.blocks < SERVE_BLOCKS:
                    serving.block(COLD_REQUESTS // SERVE_BLOCKS, wl.hot_share * self.seconds / SERVE_BLOCKS)
                    _log(f"serving block {serving.blocks}: {len(serving.cold_latencies)} cold requests "
                         f"in {serving.cold_wall:.2f} s, {serving.hot_requests} hot in {serving.hot_wall:.2f} s")
                    if serving.blocks == SERVE_BLOCKS:
                        serving.stop()
        finally:
            if serving is not None:
                serving.close()
        if serving is None or serving.blocks < SERVE_BLOCKS:
            raise RuntimeError("the run ended before serving finished")

        for method in SOUPS:
            if not _calls(rounds, method, untraced=True):
                raise RuntimeError(f"every untraced {method} soup failed")

        # wall times from untraced rounds only (all rounds of an untraced run)
        soup_s = {m: _median([c.wall_s for c in _calls(rounds, m, untraced=True)]) for m in SOUPS}
        peak_mb = {m: _median([c.result.peak_memory / 1e6 for c in _calls(rounds, m)]) for m in SOUPS}
        cold_ms = np.asarray(serving.cold_latencies) * 1e3
        out.metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
            "train_epochs_per_s": (wl.n_ingredients * wl.ingredient_epochs / train_s, "1/s"),
            "train_test_acc": (float(np.mean(pool.test_accs)), "ratio"),
            **{f"soup_s.{m}": (soup_s[m], "s") for m in SOUPS},
            **{f"soup_peak_mb.{m}": (peak_mb[m], "MB") for m in ("ls", "pls")},
            **{f"soup_test_acc.{m}": (_median([c.result.test_acc for c in _calls(rounds, m)]), "ratio") for m in SOUPS},
            "serve_rps.cold": (len(cold_ms) / serving.cold_wall, "1/s"),
            "serve_rps.hot": (serving.hot_requests / serving.hot_wall, "1/s"),
            "serve_p50_ms.cold": (float(np.percentile(cold_ms, 50)), "ms"),
            "serve_p90_ms.cold": (float(np.percentile(cold_ms, 90)), "ms"),
        }
        self._per_layer(pool, graph, rounds, phase1, train_s, soup_s, peak_mb, serving, cold_ms)
        return out

    def _per_layer(self, pool, graph, rounds, phase1, train_s, soup_s, peak_mb, serving, cold_ms) -> None:
        traced_rounds = [(calls, cap) for traced, calls, cap in rounds if traced]
        plain_rounds = [calls for traced, calls, _ in rounds if not traced]
        pls_extra = [c.extra for c in _calls(rounds, "pls")]
        gis_extra = [c.extra for c in _calls(rounds, "gis")]

        def round_wall(calls) -> float:
            return sum(call.wall_s for call in calls.values())

        def traced_median(hist: str) -> float:
            return _median([cap.hist_sum(hist) for _, cap in traced_rounds]) if traced_rounds else 0.0

        model = pool.make_model()
        model.load_state_dict(rounds[0][1]["ls"].result.state_dict)
        forward = []
        for _ in range(7):
            t0 = time.perf_counter()
            evaluate_logits(model, graph)
            forward.append(time.perf_counter() - t0)

        width = WORKERS if self.wl.executor == "process" else 1
        cold_report = Capture.from_dicts(serving.cold_reports)
        hot_report = Capture.from_dicts(serving.hot_reports)
        hits, misses = hot_report.counter("serve.cache_hits"), hot_report.counter("serve.cache_misses")
        digests = [extra["digest"] for extra in pls_extra]
        self.out.per_layer = {
            "graph.partition_s": (_median([e["partition_s"] for e in pls_extra]), "s"),
            "graph.partition_digest": (digests[0], "id"),
            "graph.partition_variants": (len(set(digests)), "count"),
            "graph.cut_edges": (_median([e["cut_edges"] for e in pls_extra]), "count"),
            "soup.evaluate_s": (traced_median(EVALUATE), "s"),
            "soup.backend_evals": (_median([e["backend_evals"] for e in gis_extra]), "count"),
            "soup.cache_hits": (_median([e["cache_hits"] for e in gis_extra]), "count"),
            "soup.mix_s": (traced_median(MIX), "s"),
            **{f"soup.minflt.{m}": (_median([c.minflt for c in _calls(rounds, m)]), "count") for m in SOUPS},
            **{f"soup.sys_s.{m}": (_median([c.sys_s for c in _calls(rounds, m)]), "s") for m in SOUPS},
            "soup_peak_mb.gis": (peak_mb["gis"], "MB"),
            "models.forward_ms": (_median(forward) * 1e3, "ms"),
            "tensor.backward_s": (traced_median(BACKWARD), "s"),
            "optim.step_s": (phase1.hist_sum(OPTIM_STEP), "s"),
            "pipeline.sample_s": (phase1.hist_sum("pipeline.sample_s"), "s"),
            "pipeline.consumer_stall_s": (phase1.hist_sum("pipeline.consumer_stall_s"), "s"),
            "cluster.queue_wait_s": (phase1.hist_sum("cluster.queue_wait_s"), "s"),
            "transport.bytes_sent": (phase1.counter("transport.bytes_sent"), "bytes"),
            "worker.init_s": (phase1.worker_span_mean("worker.init"), "s"),
            "cluster.parallel_eff": (sum(pool.train_times) / (width * train_s), "ratio"),
            "serve.flush_batch": (cold_report.hist_mean("serve.batch_size"), "nodes"),
            "serve.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "serve.queue_wait_ms": (cold_report.hist_mean("serve.queue_wait_s") * 1e3, "ms"),
            # too noisy on a small shared host to gate (see README)
            "serve.p99_ms": (float(np.percentile(cold_ms, 99)), "ms"),
            "serve.close_s": (serving.server.close_s, "s"),
            "paper.ls_vs_gis_speedup": (soup_s["gis"] / soup_s["ls"], "x"),
            # the paper times PLS without its partitioning (preprocessing)
            "paper.pls_vs_ls_speedup": (
                soup_s["ls"] / _median([c.wall_s - c.extra["partition_s"] for c in _calls(rounds, "pls", untraced=True)]),
                "x",
            ),
            "paper.pls_vs_ls_mem": (1.0 - peak_mb["pls"] / peak_mb["ls"], "ratio"),
            "trace.overhead": (
                _median([round_wall(calls) for calls, _ in traced_rounds])
                / _median([round_wall(calls) for calls in plain_rounds])
                if traced_rounds else 1.0,
                "x",
            ),
            "host.nproc": (len(os.sched_getaffinity(0)), "count"),
        }
