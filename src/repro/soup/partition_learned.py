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
from ..nn import cross_entropy, functional_params
from ..optim import SGD, ConstantLR, CosineAnnealingLR
from ..profiling import Timer
from ..tensor import Tensor
from ..train import accuracy
from .base import SoupResult, instrumented
from .engine import Candidate, Evaluator, evaluation
from .learned import (
    SoupConfig,
    alpha_weights,
    build_alpha,
    combine_with_alphas,
    entropy_penalty,
    split_validation,
)
from .state import layer_groups

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


def _pls_descent(
    model,
    graph: Graph,
    partition: PartitionResult,
    stacks: dict,
    group_of: dict[str, int],
    n_groups: int,
    n_ingredients: int,
    cfg: PLSConfig,
    seed: int,
    probe,
) -> tuple[np.ndarray, list[tuple[int, float, float]], int]:
    """One PLS restart: Eq. (6) descent over random partition unions from
    ``seed``; returns the selected alphas, history and skipped epochs."""
    rng = np.random.default_rng(seed)
    # the alpha-train/holdout split is defined on *global* node ids so the
    # objective is consistent across epoch subgraphs
    alpha_train_idx, holdout_idx = split_validation(graph, cfg.holdout_fraction, rng)
    alpha_train_mask = np.zeros(graph.num_nodes, dtype=bool)
    alpha_train_mask[alpha_train_idx] = True
    holdout_mask = np.zeros(graph.num_nodes, dtype=bool)
    holdout_mask[holdout_idx] = True

    history: list[tuple[int, float, float]] = []
    skipped_epochs = 0
    alphas = build_alpha(n_ingredients, n_groups, cfg, rng)
    optimizer = SGD([alphas], lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    scheduler = CosineAnnealingLR(optimizer, t_max=cfg.epochs) if cfg.cosine else ConstantLR(optimizer)

    best_holdout, best_alpha = -1.0, alphas.data.copy()
    patience_left = cfg.early_stopping if cfg.early_stopping else None
    for epoch in range(1, cfg.epochs + 1):
        selected = select_partitions(cfg.num_partitions, cfg.partition_budget, rng)
        sub, nodes = partition_union_subgraph(graph, partition.labels, selected)
        sub_train = np.flatnonzero(alpha_train_mask[nodes])
        sub_holdout = np.flatnonzero(holdout_mask[nodes])
        if len(sub_train) == 0:
            skipped_epochs += 1
            scheduler.step()
            continue
        if 0 < cfg.val_batch_size < len(sub_train):
            # composes with partition sampling: cap the per-epoch alpha
            # objective at val_batch_size nodes (§VI-A minibatching)
            sub_train = rng.choice(sub_train, size=cfg.val_batch_size, replace=False)
        # the loss and the holdout read the subgraph's validation rows only;
        # built uncached: the subgraph is dropped after this epoch
        blocks = graph_blocks.build_blocks(sub, sub.val_idx, model.num_hops)
        with probe.meter.transient(sub.nbytes):
            weights = alpha_weights(alphas, cfg)
            soup_params = combine_with_alphas(weights, stacks, group_of)
            with functional_params(model, soup_params):
                logits = model(blocks, Tensor(blocks.features))
            loss = cross_entropy(logits[blocks.positions(sub_train)], sub.labels[sub_train])
            if cfg.alpha_entropy_coef:
                loss = loss + entropy_penalty(weights) * cfg.alpha_entropy_coef
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            scheduler.step()
            holdout_acc = (
                accuracy(logits.data[blocks.positions(sub_holdout)], sub.labels[sub_holdout])
                if len(sub_holdout)
                else -1.0
            )
        history.append((epoch, float(loss.data), holdout_acc))
        if cfg.select_best and holdout_acc > best_holdout:
            best_holdout, best_alpha = holdout_acc, alphas.data.copy()
            if patience_left is not None:
                patience_left = cfg.early_stopping
        elif patience_left is not None and holdout_acc >= 0:
            patience_left -= 1
            if patience_left <= 0:
                break
        # free the epoch subgraph before the next draw
        del logits, loss, soup_params, sub, blocks
    if not cfg.select_best or best_holdout < 0:
        best_alpha = alphas.data.copy()
    return best_alpha, history, skipped_epochs


def partition_learned_soup(
    pool: IngredientPool,
    graph: Graph,
    cfg: PLSConfig | None = None,
    partition: PartitionResult | None = None,
    evaluator: Evaluator | None = None,
) -> SoupResult:
    """Algorithm 4: gradient-descent souping on random partition unions.

    With ``cfg.n_restarts > 1`` the descent repeats from seeds
    ``cfg.seed .. cfg.seed + R - 1`` (fresh holdout split, alpha init and
    subgraph lottery each time) and the restart soups are scored on the
    validation split as one evaluator batch; the best restart wins.

    Parameters
    ----------
    partition:
        A precomputed :class:`PartitionResult` (e.g. shared across souping
        seeds); computed here — outside the timed mixing region — if absent.
    """
    cfg = cfg or PLSConfig()
    model = pool.make_model()
    model.eval()
    names = pool.param_names()
    group_ids, group_names = layer_groups(names, cfg.granularity)
    group_of = {name: int(g) for name, g in zip(names, group_ids)}
    group_vec = np.asarray(group_ids, dtype=np.int64)

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

    with evaluation(evaluator, pool, graph) as ev:
        with instrumented("pls", pool) as probe:  # note: full graph payload NOT resident
            stacks = pool.stacked_params()
            for stack in stacks.values():
                probe.track_array(stack)
            restart_alphas: list[np.ndarray] = []
            restart_histories: list[list[tuple[int, float, float]]] = []
            skipped_epochs = 0
            for r in range(cfg.n_restarts):
                best_alpha, history, skipped = _pls_descent(
                    model, graph, partition, stacks, group_of,
                    len(group_names), len(pool), cfg, cfg.seed + r, probe,
                )
                restart_alphas.append(best_alpha)
                restart_histories.append(history)
                skipped_epochs += skipped
            restart_weights = [alpha_weights(Tensor(a), cfg).data for a in restart_alphas]
            restart_val_accs = ev.evaluate(
                [Candidate(weights=w, groups=group_vec, split="val") for w in restart_weights]
            )
            winner = int(np.argmax(restart_val_accs))
            best_alpha = restart_alphas[winner]
            final_weights = restart_weights[winner]
            soup_state = ev.mix(final_weights, groups=group_vec)
            probe.track_state_dict(soup_state)
        test_acc = ev.accuracy_of(weights=final_weights, groups=group_vec, split="test")

    return SoupResult(
        method="pls",
        state_dict=soup_state,
        val_acc=restart_val_accs[winner],
        test_acc=test_acc,
        soup_time=probe.elapsed,
        peak_memory=probe.peak,
        extras={
            "alphas": best_alpha,
            "weights": final_weights,
            "group_names": group_names,
            "history": restart_histories[winner],
            "n_ingredients": len(pool),
            "config": cfg,
            "partition_time": part_timer.elapsed,
            "partition_cut_edges": partition.cut_edges,
            "partition_imbalance": partition.imbalance,
            "partition_ratio": cfg.partition_ratio,
            "subgraph_diversity": cfg.subgraph_diversity,
            "skipped_epochs": skipped_epochs,
            "n_restarts": cfg.n_restarts,
            "restart_val_accs": [float(a) for a in restart_val_accs],
            "best_restart": winner,
        },
    )
