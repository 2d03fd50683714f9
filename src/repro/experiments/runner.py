"""Per-cell experiment execution: the engine behind every table and figure.

One *cell* is an (architecture, dataset) pair. Running a cell means:

1. load the dataset and the cached ingredient pool (Phase 1),
2. repeat ``n_soups`` times (paper: "the average of 4 soups"): rotate one
   ingredient out of the pool (leave-one-out, seeded) so even the
   deterministic methods (US/GIS) exhibit honest run-to-run variance, then
   run every requested souping method on the remaining ingredients,
3. aggregate mean ± std of test accuracy (Table II), souping seconds
   (Table III) and peak bytes (Fig. 4b), plus the ingredient statistics
   (Fig. 3 scatter).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..distributed.ingredients import IngredientPool
from ..graph import load_dataset
from ..graph.graph import Graph
from ..graph.partition import partition_graph
from ..soup import SoupResult, gis_soup, learned_soup, make_evaluator, partition_learned_soup, uniform_soup
from ..soup.api import SOUP_METHODS
from .cache import get_or_train_pool
from .config import ExperimentSpec

__all__ = ["MethodStats", "CellResult", "run_cell", "run_grid", "PAPER_METHODS"]

PAPER_METHODS = ("us", "gis", "ls", "pls")


@dataclass
class MethodStats:
    """Aggregate of one souping method over the soup repetitions."""

    method: str
    test_accs: list[float] = field(default_factory=list)
    val_accs: list[float] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    peaks: list[int] = field(default_factory=list)

    def add(self, result: SoupResult) -> None:
        """Fold one soup repetition into the running statistics."""
        self.test_accs.append(result.test_acc)
        self.val_accs.append(result.val_acc)
        self.times.append(result.soup_time)
        self.peaks.append(result.peak_memory)

    @property
    def acc_mean(self) -> float:
        """Mean test accuracy over soup repetitions."""
        return float(np.mean(self.test_accs))

    @property
    def acc_std(self) -> float:
        """Standard deviation of test accuracy over soup repetitions."""
        return float(np.std(self.test_accs))

    @property
    def time_mean(self) -> float:
        """Mean souping wall-time in seconds."""
        return float(np.mean(self.times))

    @property
    def time_std(self) -> float:
        """Standard deviation of souping wall-time in seconds."""
        return float(np.std(self.times))

    @property
    def peak_mean(self) -> float:
        """Mean peak souping memory in bytes."""
        return float(np.mean(self.peaks))


@dataclass
class CellResult:
    """Everything measured for one (arch, dataset) cell."""

    spec: ExperimentSpec
    ingredient_test_accs: list[float]
    ingredient_val_accs: list[float]
    stats: dict[str, MethodStats]
    # candidate-score cache statistics of the cell's shared evaluator
    # (hits/misses/size/capacity), recorded after all method × rotation
    # jobs have drained through it
    cache_info: dict = field(default_factory=dict)

    @property
    def ingredients_mean(self) -> float:
        """Mean test accuracy of the cell's raw ingredients."""
        return float(np.mean(self.ingredient_test_accs))

    @property
    def ingredients_std(self) -> float:
        """Standard deviation of the ingredients' test accuracy."""
        return float(np.std(self.ingredient_test_accs))

    def speedup_vs_gis(self, method: str) -> float:
        """Fig 4a quantity: t_GIS / t_method."""
        gis_time = self.stats["gis"].time_mean
        other = self.stats[method].time_mean
        return gis_time / other if other > 0 else float("inf")

    def memory_vs_gis(self, method: str) -> float:
        """Fig 4b quantity: peak_method / peak_GIS."""
        gis_peak = self.stats["gis"].peak_mean
        return self.stats[method].peak_mean / gis_peak if gis_peak > 0 else float("inf")


def _rotation_indices(pool: IngredientPool, soup_index: int) -> list[int] | None:
    """Leave-one-out rotation: soup ``s`` drops ingredient ``s mod N``.

    Soup 0 uses the full pool (``None``); later repetitions drop one
    ingredient each, giving every method (including deterministic US/GIS)
    a distribution of outcomes without retraining anything.
    """
    if soup_index == 0 or len(pool) <= 2:
        return None
    drop = (soup_index - 1) % len(pool)
    return [i for i in range(len(pool)) if i != drop]


def _rotated(pool: IngredientPool, soup_index: int) -> IngredientPool:
    """The rotated sub-pool itself (see :func:`_rotation_indices`)."""
    keep = _rotation_indices(pool, soup_index)
    return pool if keep is None else pool.subset(keep)


def run_cell(
    spec: ExperimentSpec,
    methods: tuple[str, ...] = PAPER_METHODS,
    graph: Graph | None = None,
    pool: IngredientPool | None = None,
    graph_seed: int = 0,
    n_soups: int | None = None,
    executor: str = "serial",
    shm: bool = True,
    transport: str = "pipe",
    nodes=None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
    prefetch_depth: int | None = None,
    sample_workers: int | None = None,
    soup_cache_path=None,
) -> CellResult:
    """Execute one cell; ``graph``/``pool`` injectable for tests and benches.

    ``executor``/``shm``/``transport``/``nodes``/
    ``checkpoint_dir``/``checkpoint_every``/``resume`` govern Phase-1
    training on a pool-cache miss; ``prefetch_depth``/``sample_workers``
    override the spec's sampling-pipeline knobs for minibatch cells
    (determinism-neutral — results are bit-identical at any setting; see
    :func:`repro.experiments.cache.get_or_train_pool`); ``transport`` /
    ``nodes`` reach the shared cluster runtime, so a cell's ingredients
    can train on remote ``cluster start-worker`` nodes.

    In Phase 2 one shared candidate evaluator (see
    :func:`repro.soup.make_evaluator`) serves every method ×
    soup-rotation of the cell: rotations attach as sub-pool views, so
    they share its model and score cache, which ``soup_cache_path``
    persists across runs. Jobs run one after another, in
    (rotation, method) order.
    """
    graph = graph if graph is not None else load_dataset(spec.dataset, seed=graph_seed)
    pool = (
        pool
        if pool is not None
        else get_or_train_pool(
            spec,
            graph,
            graph_seed,
            executor=executor,
            shm=shm,
            transport=transport,
            nodes=nodes,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            resume=resume,
            prefetch_depth=prefetch_depth,
            sample_workers=sample_workers,
        )
    )
    n_soups = n_soups if n_soups is not None else spec.n_soups
    unknown = [m for m in methods if m not in SOUP_METHODS]
    if unknown:
        raise KeyError(f"unknown souping methods: {unknown}")

    # partition once per cell (PLS preprocessing; shared across soup seeds)
    partition = None
    if "pls" in methods:
        partition = partition_graph(
            graph,
            spec.pls_partitions,
            method="metis",
            node_weights="val",
            seed=spec.base_seed,
        )

    with make_evaluator(pool, graph, cache_path=soup_cache_path) as shared_ev:
        # per-rotation evaluator views (sub-pool weights zero-expand onto
        # the shared evaluator); built once, reused by every method
        rotations = []
        for s in range(n_soups):
            keep = _rotation_indices(pool, s)
            subpool = pool if keep is None else pool.subset(keep)
            ev = shared_ev if keep is None else shared_ev.subset(keep)
            rotations.append((subpool, ev))

        def run_one(s: int, method: str) -> SoupResult:
            subpool, ev = rotations[s]
            if method == "us":
                return uniform_soup(subpool, graph, evaluator=ev)
            if method == "gis":
                return gis_soup(subpool, graph, granularity=spec.gis_granularity, evaluator=ev)
            if method == "ls":
                return learned_soup(
                    subpool, graph, spec.ls_config(seed=spec.base_seed + s), evaluator=ev
                )
            if method == "pls":
                return partition_learned_soup(
                    subpool,
                    graph,
                    spec.pls_config(seed=spec.base_seed + s),
                    partition=partition,
                    evaluator=ev,
                )
            return SOUP_METHODS[method](subpool, graph, evaluator=ev)

        jobs = [(s, method) for s in range(n_soups) for method in methods]
        results = [run_one(s, method) for s, method in jobs]
        cache_info = shared_ev.cache_info()

    stats = {m: MethodStats(m) for m in methods}
    for (s, method), result in zip(jobs, results):
        stats[method].add(result)

    return CellResult(
        spec=spec,
        ingredient_test_accs=list(pool.test_accs),
        ingredient_val_accs=list(pool.val_accs),
        stats=stats,
        cache_info=cache_info,
    )


def run_grid(
    specs: list[ExperimentSpec],
    methods: tuple[str, ...] = PAPER_METHODS,
    graph_seed: int = 0,
    n_soups: int | None = None,
    verbose: bool = False,
    executor: str = "serial",
    shm: bool = True,
    transport: str = "pipe",
    nodes=None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
) -> list[CellResult]:
    """Run many cells (the full paper grid is 12)."""
    results = []
    for spec in specs:
        if verbose:
            print(f"[runner] {spec.cell_id} ...", flush=True)
        results.append(
            run_cell(
                spec,
                methods=methods,
                graph_seed=graph_seed,
                n_soups=n_soups,
                executor=executor,
                shm=shm,
                transport=transport,
                nodes=nodes,
                checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every,
                resume=resume,
            )
        )
    return results
