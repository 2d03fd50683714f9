"""Reference copies of the two alpha descents LS and PLS ran before they
shared one loop.

``_alpha_descent``/``learned_soup`` (Algorithm 3) and
``_pls_descent``/``partition_learned_soup`` (Algorithm 4), kept verbatim
as an exactness oracle: :func:`repro.soup.learned_soup` and
:func:`repro.soup.partition_learned_soup` must return bit-identical
states, alphas, histories and accuracies, and never a higher peak memory.
Tests only.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.ingredients import IngredientPool
from repro.graph import blocks as graph_blocks
from repro.graph.graph import Graph
from repro.graph.partition import PartitionResult, partition_graph
from repro.graph.sampling import partition_union_subgraph, select_partitions
from repro.nn import cross_entropy, functional_params
from repro.optim import SGD, ConstantLR, CosineAnnealingLR
from repro.profiling import Timer
from repro.soup.base import SoupResult, instrumented
from repro.soup.engine import Candidate, Evaluator, evaluation
from repro.soup.learned import (
    SoupConfig,
    alpha_weights,
    build_alpha,
    combine_with_alphas,
    entropy_penalty,
    split_validation,
)
from repro.soup.partition_learned import PLSConfig
from repro.soup.state import layer_groups
from repro.tensor import Tensor
from repro.train import accuracy


def _alpha_descent(
    model,
    graph: Graph,
    stacks: dict,
    group_of: dict[str, int],
    n_groups: int,
    n_ingredients: int,
    cfg: SoupConfig,
    seed: int,
) -> tuple[np.ndarray, list[tuple[int, float, float]]]:
    """One LS restart: Eq. (4) descent from ``seed``; returns the selected
    alphas and the ``(epoch, loss, holdout_acc)`` history."""
    rng = np.random.default_rng(seed)
    alpha_train_idx, holdout_idx = split_validation(graph, cfg.holdout_fraction, rng)
    train_labels = graph.labels[alpha_train_idx]
    holdout_labels = graph.labels[holdout_idx]
    # the loss and the holdout read validation rows only: run the descent
    # on their layered blocks (§III-E's O(e (F_v + B_v)) epoch)
    blocks = graph.blocks(graph.val_idx, model.num_hops)
    train_pos = blocks.positions(alpha_train_idx)
    holdout_pos = blocks.positions(holdout_idx)

    history: list[tuple[int, float, float]] = []
    alphas = build_alpha(n_ingredients, n_groups, cfg, rng)
    optimizer = SGD([alphas], lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    scheduler = CosineAnnealingLR(optimizer, t_max=cfg.epochs) if cfg.cosine else ConstantLR(optimizer)
    features = Tensor(blocks.features)

    best_holdout, best_alpha = -1.0, alphas.data.copy()
    patience_left = cfg.early_stopping if cfg.early_stopping else None
    batched = 0 < cfg.val_batch_size < len(alpha_train_idx)
    for epoch in range(1, cfg.epochs + 1):
        weights = alpha_weights(alphas, cfg)
        soup_params = combine_with_alphas(weights, stacks, group_of)
        with functional_params(model, soup_params):
            logits = model(blocks, features)
        if batched:
            # §VI-A: "techniques like minibatching to stabilize training" —
            # each alpha step scores a fresh random subset of the
            # validation nodes, trading gradient noise for robustness to
            # the hyperparameter sensitivity the paper reports.
            batch = rng.choice(alpha_train_idx, size=cfg.val_batch_size, replace=False)
            loss = cross_entropy(logits[blocks.positions(batch)], graph.labels[batch])
        else:
            loss = cross_entropy(logits[train_pos], train_labels)
        if cfg.alpha_entropy_coef:
            loss = loss + entropy_penalty(weights) * cfg.alpha_entropy_coef
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        scheduler.step()
        holdout_acc = accuracy(logits.data[holdout_pos], holdout_labels)
        history.append((epoch, float(loss.data), holdout_acc))
        if cfg.select_best and holdout_acc > best_holdout:
            best_holdout, best_alpha = holdout_acc, alphas.data.copy()
            if patience_left is not None:
                patience_left = cfg.early_stopping
        elif patience_left is not None:
            patience_left -= 1
            if patience_left <= 0:
                break
    if not cfg.select_best:
        best_alpha = alphas.data.copy()
    return best_alpha, history


def learned_soup(
    pool: IngredientPool,
    graph: Graph,
    cfg: SoupConfig | None = None,
    evaluator: Evaluator | None = None,
) -> SoupResult:
    """Algorithm 3: gradient-descent souping on the full validation graph.

    With ``cfg.n_restarts > 1`` the alpha descent is repeated from seeds
    ``cfg.seed .. cfg.seed + R - 1`` (fresh Xavier init *and* fresh
    holdout split each time — LS is sensitive to both, §VI-A) and the
    restart soups are scored on the validation split as **one evaluator
    batch**; the best restart wins (ties: lowest seed).
    """
    cfg = cfg or SoupConfig()
    model = pool.make_model()
    model.eval()  # deterministic forward; dropout off for the alpha objective
    names = pool.param_names()
    group_ids, group_names = layer_groups(names, cfg.granularity)
    group_of = {name: int(g) for name, g in zip(names, group_ids)}
    group_vec = np.asarray(group_ids, dtype=np.int64)

    with evaluation(evaluator, pool, graph) as ev:
        with instrumented("ls", pool, graph) as probe:
            stacks = pool.stacked_params()
            for stack in stacks.values():
                probe.track_array(stack)
            restart_alphas: list[np.ndarray] = []
            restart_histories: list[list[tuple[int, float, float]]] = []
            for r in range(cfg.n_restarts):
                best_alpha, history = _alpha_descent(
                    model, graph, stacks, group_of, len(group_names), len(pool), cfg, cfg.seed + r
                )
                restart_alphas.append(best_alpha)
                restart_histories.append(history)
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
        method="ls",
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
            "n_restarts": cfg.n_restarts,
            "restart_val_accs": [float(a) for a in restart_val_accs],
            "best_restart": winner,
        },
    )


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
