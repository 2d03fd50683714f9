"""Command-line experiment runner.

Regenerate any table or figure without pytest::

    python -m repro.experiments table1
    python -m repro.experiments table2 --cells gcn-flickr,sage-reddit
    python -m repro.experiments all --scale 0.5 --soups 2 --out results/

Trained ingredient pools are cached under ``.cache/ingredients`` (or
``$REPRO_CACHE_DIR``), so repeated invocations only pay for souping.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..distributed import EXECUTORS, TRANSPORTS
from ..graph import dataset_names, load_dataset
from .cache import get_or_train_pool
from .config import PAPER_ARCHS, make_spec
from .figures import render_fig3, render_fig4a, render_fig4b
from .runner import run_cell
from .tables import render_table1, render_table2, render_table3, results_to_csv

ARTEFACTS = ("table1", "table2", "table3", "fig3", "fig4a", "fig4b", "all")


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("artefact", choices=ARTEFACTS, help="what to regenerate")
    parser.add_argument(
        "--cells",
        default="",
        help="comma list of arch-dataset cells (default: the full 12-cell grid)",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="dataset size multiplier")
    parser.add_argument("--soups", type=int, default=None, help="soup repetitions per cell")
    parser.add_argument("--seed", type=int, default=0, help="graph seed")
    parser.add_argument("--out", type=Path, default=None, help="directory for artefact files")
    parser.add_argument(
        "--executor",
        default="serial",
        choices=list(EXECUTORS),
        help="Phase-1 executor for uncached pools (serial/process)",
    )
    parser.add_argument(
        "--no-shm",
        dest="shm",
        action="store_false",
        help="disable shared-memory graph transport for process workers",
    )
    parser.add_argument(
        "--transport",
        default="pipe",
        choices=list(TRANSPORTS),
        help="cluster transport for Phase-1 process workers (tcp reaches other hosts)",
    )
    parser.add_argument(
        "--nodes",
        default=None,
        metavar="HOST:PORT,...",
        help="remote `cluster start-worker` addresses for Phase-1 tcp training",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="per-ingredient checkpoint directory for uncached pools",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="also snapshot in-flight ingredients every N epochs (0 disables)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip finished ingredients in --checkpoint-dir and continue interrupted ones",
    )
    args = parser.parse_args(argv)
    if args.nodes and args.transport == "pipe":
        args.transport = "tcp"  # a node list implies the socket transport
    return args


def _selected_cells(spec_filter: str) -> list[tuple[str, str]]:
    cells = [(arch, ds) for arch in PAPER_ARCHS for ds in dataset_names()]
    if spec_filter:
        wanted = {c.strip() for c in spec_filter.split(",") if c.strip()}
        cells = [c for c in cells if f"{c[0]}-{c[1]}" in wanted]
        if not cells:
            raise SystemExit(f"no cells match {spec_filter!r}")
    return cells


def _run_grid(args: argparse.Namespace):
    results = []
    graphs: dict[str, object] = {}
    for arch, dataset in _selected_cells(args.cells):
        print(f"[cell] {arch}-{dataset}", flush=True)
        if dataset not in graphs:
            graphs[dataset] = load_dataset(dataset, seed=args.seed, scale=args.scale)
        graph = graphs[dataset]
        spec = make_spec(dataset, arch)
        pool = get_or_train_pool(
            spec,
            graph,
            graph_seed=args.seed,
            executor=args.executor,
            shm=args.shm,
            transport=args.transport,
            nodes=args.nodes,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
        )
        cell = run_cell(spec, graph=graph, pool=pool, n_soups=args.soups)
        if cell.cache_info:
            c = cell.cache_info
            lookups = c["hits"] + c["misses"]
            rate = c["hits"] / lookups if lookups else 0.0
            print(
                f"[cell] {arch}-{dataset} score cache: {c['hits']} hits / "
                f"{c['misses']} misses ({rate:.0%}), {c['size']}/{c['capacity']} entries",
                flush=True,
            )
        results.append(cell)
    return results


def _emit(args: argparse.Namespace, name: str, text: str) -> None:
    print(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / name).write_text(text)
        print(f"[written] {args.out / name}")


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.experiments``."""
    args = _parse_args(argv if argv is not None else sys.argv[1:])

    if args.artefact == "table1":
        _emit(args, "table1_datasets.txt", render_table1(graph_seed=args.seed))
        return 0

    results = _run_grid(args)
    renders = {
        "table2": ("table2_accuracy.txt", render_table2),
        "table3": ("table3_time.txt", render_table3),
        "fig3": ("fig3_strategies.txt", render_fig3),
        "fig4a": ("fig4a_speedup.txt", render_fig4a),
        "fig4b": ("fig4b_memory.txt", render_fig4b),
    }
    if args.artefact == "all":
        _emit(args, "table1_datasets.txt", render_table1(graph_seed=args.seed))
        for name, (fname, renderer) in renders.items():
            _emit(args, fname, renderer(results))
        _emit(args, "results_all.csv", results_to_csv(results))
    else:
        fname, renderer = renders[args.artefact]
        _emit(args, fname, renderer(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
