"""Partition Learned Souping (PLS) — Algorithm 4, the paper's second contribution.

LS must hold the whole graph (plus forward/backward activations) on the
device; PLS bounds that footprint. As preprocessing, the graph is split
into K partitions with a METIS-style partitioner **balancing validation
nodes** (§III-C). Then each alpha-descent epoch:

1. draw R of the K partitions at random (Eq. 5),
2. assemble their union into one subgraph — node-induced, so every edge
   between two selected partitions (an edge the partitioner cut) is
   preserved, retaining structural integrity;
3. run the LS step (build soup via Eq. 3, validation loss on the
   subgraph's validation nodes, backprop into the alphas — Eq. 6).

That step is LS's own loop (:func:`repro.soup.learned.descend_and_select`);
this module supplies the epoch field it reads (:func:`partition_field`).

The step runs on the layered blocks of the subgraph's validation rows
(:mod:`repro.graph.blocks`): each layer computes only the rows those
logits depend on, within the subgraph. Memory then scales with roughly
R/K of the graph (§VI-B), activations with the blocks only, while the
subgraph lottery acts like minibatching and regularises the alphas — the
mechanism the paper credits for PLS beating LS on several cells of
Table II. With R = 1 no cut edge can appear and only K distinct subgraphs
exist (``C(K,1)``), the degradation corner §VI-B quantifies at 2–3%.

The partitioning itself is preprocessing (paper Fig. 2 step 1) and is
therefore *excluded* from the souping wall-time, but reported in extras.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distributed.ingredients import IngredientPool
from ..graph import blocks as graph_blocks
from ..graph.graph import Graph
from ..graph.partition import PartitionResult, partition_graph
from ..graph.sampling import num_possible_subgraphs, partition_union_subgraph, select_partitions
from ..profiling import Timer
from .base import SoupResult
from .engine import Evaluator
from .learned import EpochField, FieldSource, SoupConfig, descend_and_select

__all__ = ["PLSConfig", "partition_learned_soup"]


@dataclass(frozen=True)
class PLSConfig(SoupConfig):
    """LS hyperparameters plus the partition budget.

    The paper's practical recommendation is ``(K, R) = (32, 8)`` — over
    ten million possible subgraphs, so a few hundred epochs never repeat
    one — with memory scaling ≈ R/K.
    """

    num_partitions: int = 32  # K
    partition_budget: int = 8  # R
    partition_method: str = "metis"
    partition_seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 1 <= self.partition_budget <= self.num_partitions:
            raise ValueError(
                f"need 1 <= R <= K, got R={self.partition_budget}, K={self.num_partitions}"
            )

    @property
    def partition_ratio(self) -> float:
        """R/K — the §VI-B memory/diversity control knob."""
        return self.partition_budget / self.num_partitions

    @property
    def subgraph_diversity(self) -> int:
        """C(K, R) — how many distinct epoch subgraphs exist."""
        return num_possible_subgraphs(self.num_partitions, self.partition_budget)


def partition_field(graph: Graph, partition: PartitionResult, cfg: PLSConfig) -> FieldSource:
    """PLS's field: each epoch draws R of the K partitions (Eq. 5) and
    reads their union's validation rows (Eq. 6)."""

    def source(train_idx: np.ndarray, holdout_idx: np.ndarray, hops: int):
        train_mask = np.zeros(graph.num_nodes, dtype=bool)
        train_mask[train_idx] = True
        holdout_mask = np.zeros(graph.num_nodes, dtype=bool)
        holdout_mask[holdout_idx] = True

        def draw(rng: np.random.Generator) -> EpochField | None:
            selected = select_partitions(cfg.num_partitions, cfg.partition_budget, rng)
            sub, nodes = partition_union_subgraph(graph, partition.labels, selected)
            sub_train = np.flatnonzero(train_mask[nodes])
            if len(sub_train) == 0:
                return None
            # built uncached: the subgraph is dropped after this epoch
            blocks = graph_blocks.build_blocks(sub, sub.val_idx, hops)
            return EpochField(blocks, sub.labels, sub_train, np.flatnonzero(holdout_mask[nodes]), sub.nbytes)

        return draw

    return source


def partition_learned_soup(
    pool: IngredientPool,
    graph: Graph,
    cfg: PLSConfig | None = None,
    partition: PartitionResult | None = None,
    evaluator: Evaluator | None = None,
) -> SoupResult:
    """Algorithm 4: gradient-descent souping on random partition unions.

    Restarts (``cfg.n_restarts``, each with a fresh subgraph lottery) and
    the winner's selection are LS's (:func:`descend_and_select`).

    Parameters
    ----------
    partition:
        A precomputed :class:`PartitionResult` (e.g. shared across souping
        seeds); computed here — outside the timed mixing region — if absent.
    """
    cfg = cfg or PLSConfig()
    # --- preprocessing: partition with validation balancing (untimed) ---
    with Timer("partition") as part_timer:
        if partition is None:
            partition = partition_graph(
                graph,
                cfg.num_partitions,
                method=cfg.partition_method,
                node_weights="val",
                seed=cfg.partition_seed,
            )
    if partition.k != cfg.num_partitions:
        raise ValueError(f"partition has K={partition.k}, config wants {cfg.num_partitions}")

    # the full graph payload is NOT resident: each epoch counts its subgraph
    result = descend_and_select("pls", pool, graph, cfg, partition_field(graph, partition, cfg), evaluator)
    result.extras.update(
        partition_time=part_timer.elapsed,
        partition_cut_edges=partition.cut_edges,
        partition_imbalance=partition.imbalance,
        partition_ratio=cfg.partition_ratio,
        subgraph_diversity=cfg.subgraph_diversity,
    )
    return result
