"""Top-level command-line interface (``python -m repro``).

Day-to-day entry points for a user of the library — the experiment
harness regenerating the paper's tables keeps its own CLI at
``python -m repro.experiments``.

Subcommands::

    python -m repro datasets                     # Table-I style statistics
    python -m repro methods                      # registered souping methods
    python -m repro train gcn flickr -n 8        # train (and cache) a pool
    python -m repro train gcn flickr --executor process --workers 4 \
        --checkpoint-dir ckpt/ --checkpoint-every 10 --resume
        # multi-core (work-stealing queue + shared-memory graph), resumable
        # mid-ingredient; add --no-shm to ship pickled graph payloads
    python -m repro soup ls gcn flickr           # soup a cached pool
    python -m repro partition reddit -k 32       # run the METIS-style partitioner
    python -m repro simulate -n 16 -w 4 --fail-at 2.0   # Phase-1 schedule
    python -m repro cluster start-worker --port 9301    # serve a remote worker
    python -m repro train gcn flickr --executor process \
        --nodes host1:9301,host2:9301            # multi-node Phase-1 training
    python -m repro serve us gcn flickr --port 7341   # put the soup behind traffic
    python -m repro serve ensemble-logit gcn flickr \
        --serve-backend tcp --serve-workers 4    # serve the N-pass ensemble

``train``/``soup``/``serve`` share the ingredient cache with the
benchmarks (``.cache/ingredients`` or ``$REPRO_CACHE_DIR``), so souping
or serving after training is instant.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .distributed import (
    EXECUTORS,
    TRANSPORTS,
    ResilientPoolSimulator,
    WorkerSpec,
    eq1_estimate,
)
from .experiments.cache import get_or_train_pool
from .experiments.config import EXPERIMENT_GRID, ExperimentSpec
from .graph import GraphStore, dataset_names, load_dataset, partition_graph
from .serve.server import BACKENDS as SERVE_BACKENDS
from .soup import PLSConfig, SOUP_METHODS, SoupConfig, make_evaluator, soup
from .telemetry import build_report, load_report, metrics, summarize, write_metrics, write_trace

__all__ = ["main"]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _spec_for(arch: str, dataset: str, args: argparse.Namespace) -> ExperimentSpec:
    """Grid spec when the cell exists (the paper's 12), fresh spec otherwise
    (e.g. ``gin``/``mlp`` pools, which the grid does not tune)."""
    base = EXPERIMENT_GRID.get((arch, dataset), ExperimentSpec(dataset=dataset, arch=arch))
    overrides = {}
    if args.n_ingredients is not None:
        overrides["n_ingredients"] = args.n_ingredients
    if getattr(args, "workers", None) is not None:
        overrides["num_workers"] = args.workers
    if getattr(args, "epochs", None) is not None and hasattr(base, "ingredient_epochs"):
        pass  # 'epochs' belongs to souping; ingredient epochs use the spec
    if getattr(args, "minibatch", False):
        overrides["minibatch"] = True
    if getattr(args, "batch_size", None) is not None:
        overrides["batch_size"] = args.batch_size
    if getattr(args, "fanout", None) is not None:
        # 0 = full neighbourhood expansion (fanout=None)
        overrides["fanout"] = args.fanout if args.fanout > 0 else None
    return replace(base, **overrides) if overrides else base


def _maybe_enable_telemetry(args: argparse.Namespace) -> bool:
    """Turn on metrics collection when any telemetry flag was given."""
    on = bool(
        getattr(args, "telemetry", False)
        or getattr(args, "metrics_out", None)
        or getattr(args, "trace", None)
    )
    if on:
        metrics.reset()
        metrics.set_enabled(True)
    return on


def _emit_telemetry(args: argparse.Namespace, command: str) -> None:
    """Write the run's aggregated report / trace to the requested paths."""
    report = build_report(command=command)
    try:
        if getattr(args, "metrics_out", None):
            write_metrics(report, args.metrics_out)
            print(f"metrics     : wrote {args.metrics_out} "
                  f"(inspect with `python -m repro telemetry summarize {args.metrics_out}`)")
        if getattr(args, "trace", None):
            write_trace(report, args.trace)
            print(f"trace       : wrote {args.trace} (open in Perfetto or chrome://tracing)")
    except OSError as exc:
        raise SystemExit(f"error: cannot write telemetry output: {exc}")


def _get_pool(arch: str, dataset: str, args: argparse.Namespace):
    if getattr(args, "resume", False) and getattr(args, "checkpoint_dir", None) is None:
        raise SystemExit("error: --resume requires --checkpoint-dir")
    if getattr(args, "checkpoint_every", 0) and getattr(args, "checkpoint_dir", None) is None:
        raise SystemExit("error: --checkpoint-every requires --checkpoint-dir")
    graph = load_dataset(dataset, seed=args.seed, scale=args.scale)
    store_dir = getattr(args, "graph_store", None)
    budget = getattr(args, "memory_budget", None)
    if budget is not None and store_dir is None:
        raise SystemExit("error: --memory-budget requires --graph-store")
    if store_dir is not None:
        from pathlib import Path

        store_path = Path(store_dir)
        if (store_path / "meta.json").exists():
            store = GraphStore(store_path, memory_budget=budget)
        else:
            store = graph.to_store(store_path, memory_budget=budget)
        graph = store.graph()
    spec = _spec_for(arch, dataset, args)
    transport = getattr(args, "transport", "pipe")
    nodes = getattr(args, "nodes", None)
    if nodes and transport == "pipe":
        transport = "tcp"  # a node list implies the socket transport
    pool = get_or_train_pool(
        spec,
        graph,
        graph_seed=args.seed,
        executor=getattr(args, "executor", "serial"),
        shm=getattr(args, "shm", True),
        transport=transport,
        nodes=nodes,
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        checkpoint_every=getattr(args, "checkpoint_every", 0),
        checkpoint_keep=getattr(args, "checkpoint_keep", 1),
        resume=getattr(args, "resume", False),
        prefetch_depth=getattr(args, "prefetch_depth", None),
        sample_workers=getattr(args, "sample_workers", None),
    )
    return spec, graph, pool


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_datasets(args: argparse.Namespace) -> int:
    """Print Table-I style statistics for every registered dataset."""
    print(f"{'dataset':<15} {'nodes':>8} {'edges':>9} {'classes':>8} {'train/val/test':>20}")
    for name in dataset_names():
        g = load_dataset(name, seed=args.seed, scale=args.scale)
        split = f"{len(g.train_idx)}/{len(g.val_idx)}/{len(g.test_idx)}"
        print(f"{name:<15} {g.num_nodes:>8} {g.num_edges:>9} {g.num_classes:>8} {split:>20}")
    return 0


def cmd_methods(_args: argparse.Namespace) -> int:
    """List every registered souping method with its one-line summary."""
    for name, fn in SOUP_METHODS.items():
        summary = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"{name:<16} {summary}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    """Train (or load from cache) an ingredient pool and report it."""
    telemetry = _maybe_enable_telemetry(args)
    spec, graph, pool = _get_pool(args.arch, args.dataset, args)
    accs = np.asarray(pool.val_accs)
    print(f"pool: {len(pool)} x {args.arch} on {graph}")
    print(f"val acc: min {accs.min():.4f} / mean {accs.mean():.4f} / max {accs.max():.4f}")
    if pool.schedule is not None:
        s = pool.schedule
        est = eq1_estimate(len(pool), s.num_workers, float(np.mean(pool.train_times)))
        print(
            f"schedule (W={s.num_workers}): makespan {s.makespan:.2f}s, "
            f"Eq.(1) estimate {est:.2f}s, utilisation {s.utilization:.0%}"
        )
    if telemetry:
        _emit_telemetry(args, "train")
    return 0


def cmd_soup(args: argparse.Namespace) -> int:
    """Soup a (cached) pool with the chosen method and print the scores."""
    if args.method not in SOUP_METHODS:
        print(f"unknown method {args.method!r}; run `python -m repro methods`", file=sys.stderr)
        return 2
    telemetry = _maybe_enable_telemetry(args)
    spec, graph, pool = _get_pool(args.arch, args.dataset, args)
    alpha_init = "uniform" if args.normalize in ("sparsemax", "none") else "xavier_normal"
    kwargs: dict = {}
    if args.method == "gis":
        kwargs["granularity"] = args.granularity
    elif args.method == "ls":
        kwargs["cfg"] = SoupConfig(
            epochs=args.epochs, lr=args.lr, normalize=args.normalize,
            alpha_init=alpha_init, seed=args.seed,
        )
    elif args.method == "pls":
        kwargs["cfg"] = PLSConfig(
            epochs=args.epochs, lr=args.lr, normalize=args.normalize,
            alpha_init=alpha_init, seed=args.seed,
            num_partitions=args.partitions, partition_budget=args.budget,
        )
    elif args.method == "radin":
        kwargs["eval_budget"] = args.eval_budget
    elif args.method == "sparse":
        kwargs["sparsity"] = args.sparsity
    with make_evaluator(pool, graph, cache_path=args.soup_cache_path) as ev:
        result = soup(args.method, pool, graph, evaluator=ev, **kwargs)
        cache = ev.cache_info()
    print(f"method      : {result.method}")
    print(f"val acc     : {result.val_acc:.4f}")
    print(f"test acc    : {result.test_acc:.4f}  (best ingredient {max(pool.test_accs):.4f})")
    print(f"soup time   : {result.soup_time:.3f}s")
    print(f"peak memory : {result.peak_memory / 1e6:.2f} MB")
    lookups = cache["hits"] + cache["misses"]
    rate = cache["hits"] / lookups if lookups else 0.0
    print(
        f"score cache : {cache['hits']} hits / {cache['misses']} misses "
        f"({rate:.0%} hit rate), {cache['size']}/{cache['capacity']} entries"
    )
    if telemetry:
        _emit_telemetry(args, "soup")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    """Partition a dataset and report balance and edge-cut statistics."""
    graph = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    part = partition_graph(graph, args.k, method=args.method, node_weights="val", seed=args.seed)
    sizes = np.bincount(part.labels, minlength=args.k)
    print(f"{args.method} partition of {graph.name}: K={args.k}")
    print(f"part sizes  : min {sizes.min()} / mean {sizes.mean():.1f} / max {sizes.max()}")
    print(f"cut edges   : {part.cut_edges} of {graph.num_edges} ({part.cut_edges / graph.num_edges:.1%})")
    print(f"imbalance   : {part.imbalance:.3f}")
    return 0


def cmd_cluster_start_worker(args: argparse.Namespace) -> int:
    """Serve cluster work sessions until interrupted (Ctrl-C to stop).

    A worker is role-agnostic: the driver ships the role name at
    handshake, so one ``start-worker`` can train ingredients for a
    ``--nodes`` run and serve predictions for a ``serve --serve-nodes``
    run back to back without restarting.
    """
    from .distributed.cluster import run_worker

    return run_worker(
        host=args.host, port=args.port, once=args.once, port_file=args.port_file
    )


def cmd_telemetry_summarize(args: argparse.Namespace) -> int:
    """Render a ``--metrics-out`` report as a terminal summary."""
    try:
        report = load_report(args.report)
    except OSError as exc:
        raise SystemExit(f"error: cannot read telemetry report: {exc}")
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"error: {args.report} is not a telemetry report JSON ({exc})")
    print(summarize(report))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Soup a (cached) pool and serve it behind live prediction traffic.

    Runs until a client sends ``shutdown`` (``python -m repro.serve.loadgen
    ... --shutdown``) or the process is interrupted. Like ``cluster
    start-worker``, the wire protocol is unauthenticated pickle — the
    default bind is loopback; expose it to trusted networks only.
    """
    from .serve import PredictionServer, ServeConfig

    if args.method == "ensemble-vote":
        raise SystemExit(
            "error: ensemble-vote serves discrete votes, not score rows; "
            "serve ensemble-logit instead"
        )
    if args.method not in SOUP_METHODS and args.method != "best":
        print(f"unknown method {args.method!r}; run `python -m repro methods`", file=sys.stderr)
        return 2
    telemetry = _maybe_enable_telemetry(args)
    spec, graph, pool = _get_pool(args.arch, args.dataset, args)
    ensemble = args.method == "ensemble-logit"
    if ensemble:
        # serve every ingredient; scoring averages softmax probabilities
        # (bit-identical to `repro soup ensemble-logit`), N passes per batch
        states = [dict(state) for state in pool.states]
        print(f"serving     : ensemble-logit over {len(pool)} ingredients")
    elif args.method == "best":
        states = [dict(pool.states[pool.best_index()])]
        print(f"serving     : best single ingredient (val acc {max(pool.val_accs):.4f})")
    else:
        result = soup(args.method, pool, graph)
        states = [result.state_dict]
        print(f"serving     : {result.method} soup "
              f"(val acc {result.val_acc:.4f}, test acc {result.test_acc:.4f})")
    backend = args.serve_backend
    if args.serve_nodes and backend != "tcp":
        backend = "tcp"  # a node list implies the socket backend
    config = ServeConfig(
        backend=backend,
        num_workers=args.serve_workers,
        nodes=args.serve_nodes,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1000.0,
        adaptive=not args.no_adaptive,
        cache_nodes=args.cache_nodes,
        shm=getattr(args, "shm", True),
    )
    server = PredictionServer(pool.model_config, graph, states, ensemble=ensemble, config=config)
    try:
        server.start()
        host, port = server.address
        if args.serve_port_file:
            try:
                with open(args.serve_port_file, "w") as fh:
                    fh.write(f"{host} {port}\n")
            except OSError as exc:
                raise SystemExit(f"error: cannot write --serve-port-file: {exc}")
        print(f"model digest: {server.digest}")
        print(f"listening   : {host}:{port}  ({backend} backend, "
              f"cache {config.cache_nodes} nodes, max-batch {config.max_batch}"
              f"{' adaptive' if config.adaptive else ''})")
        print(f"drive it    : python -m repro.serve.loadgen {host}:{port}")
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    stats = server.stats()
    cache = stats["cache"]
    print(f"served      : {stats['replies']} replies / {stats['requests']} requests "
          f"({stats['errors']} errors) in {stats['flushes']} flushes")
    print(f"cache       : {cache['hits']} hits / {cache['misses']} misses, "
          f"{cache['size']}/{cache['capacity']} nodes resident")
    if telemetry:
        _emit_telemetry(args, "serve")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Simulate a Phase-1 schedule, optionally with a straggler or failure."""
    rng = np.random.default_rng(args.seed)
    durations = rng.lognormal(0.0, 0.25, size=args.n_tasks)
    workers = [WorkerSpec() for _ in range(args.workers)]
    if args.straggler is not None:
        workers[0] = replace(workers[0], speed=args.straggler)
    if args.fail_at is not None:
        workers[0] = replace(workers[0], fail_at=args.fail_at)
    sched = ResilientPoolSimulator(workers).schedule(durations)
    est = eq1_estimate(args.n_tasks, args.workers, float(durations.mean()))
    print(f"N={args.n_tasks} tasks on W={args.workers} workers")
    print(f"makespan    : {sched.makespan:.2f}s   (Eq.(1) estimate {est:.2f}s)")
    print(f"utilisation : {sched.utilization:.0%}")
    print(f"wasted work : {sched.wasted_work:.2f}s over {sched.total_retries} retries")
    if sched.dead_workers:
        print(f"dead workers: {list(sched.dead_workers)}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _common_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", type=float, default=0.5, help="dataset size multiplier")
    p.add_argument("--seed", type=int, default=0, help="graph / souping seed")


def _telemetry_args(p: argparse.ArgumentParser) -> None:
    """Observability flags shared by train/soup (off by default)."""
    p.add_argument(
        "--telemetry",
        action="store_true",
        help="collect cluster-wide metrics and spans (implied by --metrics-out/--trace)",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the aggregated telemetry RunReport JSON here",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event file here (one track per worker/node; "
        "open in Perfetto or chrome://tracing)",
    )


def _executor_args(p: argparse.ArgumentParser) -> None:
    """Phase-1 execution flags shared by pool-training subcommands."""
    p.add_argument(
        "--executor",
        default="serial",
        choices=list(EXECUTORS),
        help="how to run Phase-1 ingredient training (same pool either way)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="cluster width W (process pool size and Eq.(1)/(2) simulation)",
    )
    p.add_argument(
        "--no-shm",
        dest="shm",
        action="store_false",
        help="ship the graph to process workers as pickled payloads instead of shared memory",
    )
    p.add_argument(
        "--transport",
        default="pipe",
        choices=list(TRANSPORTS),
        help="cluster transport for process workers: same-host pipe or multi-host tcp",
    )
    p.add_argument(
        "--nodes",
        default=None,
        metavar="HOST:PORT,...",
        help="remote `cluster start-worker` addresses (implies --transport tcp)",
    )
    p.add_argument(
        "--checkpoint-dir",
        default=None,
        help="persist each finished ingredient here (atomic per-task .npz)",
    )
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="also snapshot in-flight ingredients every N epochs (0 disables)",
    )
    p.add_argument(
        "--checkpoint-keep",
        type=int,
        default=1,
        metavar="K",
        help="epoch snapshots kept per ingredient (history beyond K is GC'd on store open)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="skip finished ingredients in --checkpoint-dir and continue interrupted ones",
    )


def _minibatch_args(p: argparse.ArgumentParser) -> None:
    """Sampled-minibatch pipeline and out-of-core store flags."""
    p.add_argument(
        "--minibatch",
        action="store_true",
        help="train ingredients on sampled seed-node minibatches instead of full-batch",
    )
    p.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="B",
        help="seed nodes per sampled minibatch (default: spec's, 512)",
    )
    p.add_argument(
        "--fanout",
        type=int,
        default=None,
        metavar="F",
        help="per-hop neighbour cap when minibatching (0 = full expansion; default: spec's, 10)",
    )
    p.add_argument(
        "--prefetch-depth",
        type=int,
        default=None,
        metavar="D",
        help="sampled-but-unconsumed batch cap for background prefetching "
        "(0 = inline sampling; results are bit-identical at any depth)",
    )
    p.add_argument(
        "--sample-workers",
        type=int,
        default=None,
        metavar="N",
        help="background sampler threads when prefetching (results are bit-identical at any count)",
    )
    p.add_argument(
        "--graph-store",
        default=None,
        metavar="DIR",
        help="train against an mmap-backed graph store at DIR (created from the dataset if absent)",
    )
    p.add_argument(
        "--memory-budget",
        default=None,
        metavar="SIZE",
        help="enforce an out-of-core memory budget on the store (bytes, or e.g. '64M'); "
        "requires --graph-store and --minibatch ($REPRO_MEMORY_BUDGET also applies)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="list datasets with Table-I statistics")
    _common_data_args(p)
    p.set_defaults(fn=cmd_datasets)

    p = sub.add_parser("methods", help="list registered souping methods")
    p.set_defaults(fn=cmd_methods)

    p = sub.add_parser("train", help="train (and cache) an ingredient pool")
    p.add_argument("arch", help="gcn | sage | gat | gin | mlp")
    p.add_argument("dataset", choices=dataset_names())
    p.add_argument("-n", "--n-ingredients", type=int, default=None)
    _common_data_args(p)
    _executor_args(p)
    _minibatch_args(p)
    _telemetry_args(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("soup", help="soup a cached pool with one method")
    p.add_argument("method", help="see `python -m repro methods`")
    p.add_argument("arch")
    p.add_argument("dataset", choices=dataset_names())
    p.add_argument("-n", "--n-ingredients", type=int, default=None)
    p.add_argument("--epochs", type=int, default=40, help="LS/PLS alpha epochs")
    p.add_argument("--lr", type=float, default=1.0, help="LS/PLS alpha learning rate")
    p.add_argument("--normalize", default="softmax", choices=["softmax", "sparsemax", "none"])
    p.add_argument("--granularity", type=int, default=20, help="GIS ratio count")
    p.add_argument("--partitions", type=int, default=32, help="PLS K")
    p.add_argument("--budget", type=int, default=8, help="PLS R")
    p.add_argument("--eval-budget", type=int, default=0, help="RADIN true-eval budget")
    p.add_argument("--sparsity", type=float, default=0.5, help="sparse-soup target sparsity")
    p.add_argument(
        "--soup-cache-path",
        default=None,
        metavar="PATH",
        help="persist the candidate-score cache here (loaded on start, saved on "
        "close; repeat runs turn repeat evaluations into lookups)",
    )
    _minibatch_args(p)  # reconstructs the cache key of a minibatch-trained pool
    _common_data_args(p)
    _executor_args(p)
    _telemetry_args(p)
    p.set_defaults(fn=cmd_soup)

    p = sub.add_parser("partition", help="partition a dataset and report balance/cut")
    p.add_argument("dataset", choices=dataset_names())
    p.add_argument("-k", type=int, default=32)
    p.add_argument("--method", default="metis", choices=["metis", "random", "bfs"])
    _common_data_args(p)
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("cluster", help="multi-node cluster utilities")
    csub = p.add_subparsers(dest="cluster_command", required=True)
    w = csub.add_parser(
        "start-worker",
        help="run a worker other machines' drivers can dispatch to (--nodes/--serve-nodes); "
        "the protocol is unauthenticated pickle — trusted networks only",
    )
    w.add_argument("--host", default="0.0.0.0", help="interface to bind")
    w.add_argument("--port", type=int, default=0, help="port to bind (0 = OS-assigned)")
    w.add_argument(
        "--port-file",
        default=None,
        metavar="PATH",
        help="write `host port` here once bound (for orchestration scripts)",
    )
    w.add_argument("--once", action="store_true", help="exit after serving one driver session")
    w.set_defaults(fn=cmd_cluster_start_worker)

    p = sub.add_parser(
        "serve",
        help="soup a cached pool and serve node predictions over a socket "
        "(unauthenticated pickle protocol — loopback/trusted networks only)",
    )
    p.add_argument("method", help="souping method to serve, `best`, or ensemble-logit")
    p.add_argument("arch")
    p.add_argument("dataset", choices=dataset_names())
    p.add_argument("-n", "--n-ingredients", type=int, default=None)
    p.add_argument("--host", default="127.0.0.1", help="interface to bind (default loopback)")
    p.add_argument("--port", type=int, default=0, help="port to bind (0 = OS-assigned)")
    p.add_argument(
        "--serve-port-file",
        default=None,
        metavar="PATH",
        help="write `host port` here once bound (for orchestration scripts)",
    )
    p.add_argument(
        "--serve-backend",
        default="serial",
        choices=list(SERVE_BACKENDS),
        help="scoring backend: in-process, pipe workers, or tcp workers (bit-identical)",
    )
    p.add_argument(
        "--serve-workers", type=int, default=2, help="scoring workers for pipe/tcp backends"
    )
    p.add_argument(
        "--serve-nodes",
        default=None,
        metavar="HOST:PORT,...",
        help="remote `cluster start-worker` addresses to score on (implies --serve-backend tcp)",
    )
    p.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="base coalescing batch size (grows adaptively under load)",
    )
    p.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="longest a request waits to be coalesced, in milliseconds",
    )
    p.add_argument(
        "--no-adaptive", action="store_true", help="pin max-batch instead of adapting it"
    )
    p.add_argument(
        "--cache-nodes",
        type=int,
        default=4096,
        help="LRU prediction-cache capacity in nodes (0 disables)",
    )
    _common_data_args(p)
    _executor_args(p)
    _telemetry_args(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("telemetry", help="telemetry report utilities")
    tsub = p.add_subparsers(dest="telemetry_command", required=True)
    t = tsub.add_parser("summarize", help="print a terminal summary of a --metrics-out report")
    t.add_argument("report", help="path to a report JSON written by --metrics-out")
    t.set_defaults(fn=cmd_telemetry_summarize)

    p = sub.add_parser("simulate", help="simulate a Phase-1 schedule (with faults)")
    p.add_argument("-n", "--n-tasks", type=int, default=16)
    p.add_argument("-w", "--workers", type=int, default=4)
    p.add_argument("--straggler", type=float, default=None, help="speed of worker 0 (e.g. 0.25)")
    p.add_argument("--fail-at", type=float, default=None, help="worker 0 dies at this time")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv if argv is not None else sys.argv[1:])
    return args.fn(args)
