"""Future-work extensions the paper sketches in §VIII, implemented.

Three directions the paper explicitly calls out:

1. *"methods could be used to more easily drop-out poor performing
   ingredients"* → :func:`ingredient_dropout_soup` — LS with per-epoch
   random ingredient masking plus a final hard-pruning step that zeroes
   alpha mass below a threshold (circumventing the softmax floor of §V-A);
2. *"the notion of diversity … could be useful for the preparation of
   soups"* → :func:`diversity_weighted_soup` — a closed-form soup whose
   weights blend validation accuracy with parameter-space diversity;
3. the §V-A pathology itself → :func:`prune_soup_state`, a post-hoc alpha
   sparsifier applicable to any learned result.

These are *extensions*: they are exercised by the bad-ingredient ablation
bench rather than the paper's main tables.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..distributed.ingredients import IngredientPool
from ..graph.graph import Graph
from ..nn import cross_entropy, functional_params
from ..optim import SGD, ConstantLR, CosineAnnealingLR
from ..tensor import Tensor
from .base import SoupResult, instrumented
from .engine import Candidate, Evaluator, evaluation
from .learned import (
    SoupConfig,
    alpha_weights,
    build_alpha,
    combine_with_alphas,
    split_validation,
)
from .learned import learned_soup as learned_soup_fn
from .state import layer_groups

__all__ = [
    "DropoutSoupConfig",
    "ingredient_dropout_soup",
    "diversity_weighted_soup",
    "prune_soup_state",
    "finetuned_soup",
]


@dataclass(frozen=True)
class DropoutSoupConfig(SoupConfig):
    """LS config plus ingredient-dropout and pruning knobs."""

    ingredient_dropout: float = 0.25  # chance an ingredient sits out an epoch
    prune_threshold: float = 0.02  # final weights below this are zeroed

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.ingredient_dropout < 1.0:
            raise ValueError("ingredient_dropout must be in [0, 1)")
        if not 0.0 <= self.prune_threshold < 1.0:
            raise ValueError("prune_threshold must be in [0, 1)")


def _prune_weights(weights: np.ndarray, threshold: float) -> np.ndarray:
    """Zero sub-threshold weights and renormalise each group column.

    If a column would lose all mass, its single largest weight is kept —
    the GIS-like 'discard all but the best' behaviour §V-A describes.
    """
    pruned = np.where(weights < threshold, 0.0, weights)
    for g in range(pruned.shape[1]):
        col = pruned[:, g]
        if col.sum() == 0.0:
            col[np.argmax(weights[:, g])] = 1.0
        pruned[:, g] = col / col.sum()
    return pruned


def ingredient_dropout_soup(
    pool: IngredientPool,
    graph: Graph,
    cfg: DropoutSoupConfig | None = None,
    evaluator: Evaluator | None = None,
) -> SoupResult:
    """LS with per-epoch ingredient masking and final alpha pruning.

    Each epoch a random subset of ingredients is masked out of the softmax
    (their alpha column treated as -inf), forcing the survivors to carry
    the soup — the learned analogue of dropout, aimed at the paper's
    small-graph failure mode where bad ingredients cannot be zeroed.

    The per-epoch holdout scores never feed back into the descent (they
    only select the best epoch), so every epoch's *unmasked* deployment
    mixture is recorded during the loop and scored afterwards as **one
    evaluator batch**; the selection is the same as scoring inside the
    loop (first strict maximum wins either way).
    """
    cfg = cfg or DropoutSoupConfig()
    rng = np.random.default_rng(cfg.seed)
    model = pool.make_model()
    model.eval()
    names = pool.param_names()
    group_ids, group_names = layer_groups(names, cfg.granularity)
    group_of = {name: int(g) for name, g in zip(names, group_ids)}
    group_vec = np.asarray(group_ids, dtype=np.int64)
    alpha_train_idx, holdout_idx = split_validation(graph, cfg.holdout_fraction, rng)
    n = len(pool)

    with evaluation(evaluator, pool, graph) as ev:
        with instrumented("ls-dropout", pool, graph) as probe:
            stacks = pool.stacked_params()
            for stack in stacks.values():
                probe.track_array(stack)
            alphas = build_alpha(n, len(group_names), cfg, rng)
            optimizer = SGD([alphas], lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
            scheduler = CosineAnnealingLR(optimizer, t_max=cfg.epochs) if cfg.cosine else ConstantLR(optimizer)
            # the loss reads the alpha-train rows only: run on their blocks
            blocks = graph.blocks(alpha_train_idx, model.num_hops)
            train_pos = blocks.positions(alpha_train_idx)
            features = Tensor(blocks.features)

            epoch_alphas: list[np.ndarray] = []
            for _epoch in range(cfg.epochs):
                keep = rng.random(n) >= cfg.ingredient_dropout
                if not keep.any():
                    keep[rng.integers(n)] = True
                # masked softmax: dropped ingredients get a -1e9 logit offset
                if cfg.normalize == "none":
                    # unconstrained alphas: mask multiplicatively (an additive
                    # -inf offset only makes sense pre-normalisation)
                    weights = alphas * Tensor(keep.astype(np.float64)[:, None])
                else:
                    # masked normalisation: dropped ingredients get a -1e9
                    # logit, which softmax sends to ~0 and sparsemax to exactly 0
                    masked = alphas + Tensor(np.where(keep, 0.0, -1e9)[:, None])
                    weights = alpha_weights(masked, cfg)
                soup_params = combine_with_alphas(weights, stacks, group_of)
                with functional_params(model, soup_params):
                    logits = model(blocks, features)
                loss = cross_entropy(logits[train_pos], graph.labels[alpha_train_idx])
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                scheduler.step()
                epoch_alphas.append(alphas.data.copy())
                # free the epoch's tape before the next forward
                del logits, loss, soup_params

            if cfg.select_best:
                # holdout uses the *unmasked* mixture (the deployment soup)
                epoch_weights = [alpha_weights(Tensor(a), cfg).data for a in epoch_alphas]
                holdout_accs = ev.evaluate(
                    [
                        Candidate(weights=w, groups=group_vec, indices=holdout_idx)
                        for w in epoch_weights
                    ]
                )
                best_alpha = epoch_alphas[int(np.argmax(holdout_accs))]
            else:
                best_alpha = epoch_alphas[-1]

            final_weights = alpha_weights(Tensor(best_alpha), cfg).data
            if cfg.prune_threshold > 0.0:
                final_weights = _prune_weights(final_weights, cfg.prune_threshold)
            soup_state = ev.mix(final_weights, groups=group_vec)
            probe.track_state_dict(soup_state)
        val_acc, test_acc = ev.final_scores(weights=final_weights, groups=group_vec)

    return SoupResult(
        method="ls-dropout",
        state_dict=soup_state,
        val_acc=val_acc,
        test_acc=test_acc,
        soup_time=probe.elapsed,
        peak_memory=probe.peak,
        extras={
            "weights": final_weights,
            "group_names": group_names,
            "zeroed_fraction": float(np.mean(final_weights == 0.0)),
            "n_ingredients": n,
            "config": cfg,
        },
    )


def diversity_weighted_soup(
    pool: IngredientPool,
    graph: Graph,
    diversity_coef: float = 0.5,
    temperature: float = 0.05,
    evaluator: Evaluator | None = None,
) -> SoupResult:
    """Closed-form soup: weights from val accuracy *and* parameter diversity.

    §VIII: "the notion of diversity which is known so well in the field of
    model ensembles could be useful for the preparation of soups". Weight
    of ingredient i is ``softmax((acc_i + c * div_i) / T)`` where ``div_i``
    is its normalised L2 distance from the ingredient centroid — accurate
    *and* complementary ingredients get the most mass. One forward pass
    per split to evaluate; no gradient descent. The evaluator's flat-state
    stack doubles as the diversity workspace.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    with evaluation(evaluator, pool, graph) as ev:
        with instrumented("diversity", pool, graph) as probe:
            accs = np.asarray(pool.val_accs)
            flats = ev.flats
            centroid = flats.mean(axis=0)
            dists = np.linalg.norm(flats - centroid, axis=1)
            div = dists / dists.max() if dists.max() > 0 else np.zeros_like(dists)
            scores = accs + diversity_coef * div
            logits = (scores - scores.max()) / temperature
            weights = np.exp(logits)
            weights /= weights.sum()
            soup_state = ev.mix(weights)
            probe.track_state_dict(soup_state)
        val_acc, test_acc = ev.final_scores(weights=weights)
    return SoupResult(
        method="diversity",
        state_dict=soup_state,
        val_acc=val_acc,
        test_acc=test_acc,
        soup_time=probe.elapsed,
        peak_memory=probe.peak,
        extras={"weights": weights, "diversity": div, "n_ingredients": len(pool)},
    )


def prune_soup_state(
    pool: IngredientPool, weights: np.ndarray, group_of: dict[str, int], threshold: float
) -> "OrderedDict[str, np.ndarray]":
    """Re-materialise a learned soup with sub-threshold alphas removed."""
    pruned = _prune_weights(np.asarray(weights, dtype=np.float64), threshold)
    stacks = pool.stacked_params()
    return OrderedDict(
        (name, np.tensordot(pruned[:, group_of[name]], stacks[name], axes=(0, 0)))
        for name in pool.param_names()
    )


def finetuned_soup(
    pool: IngredientPool,
    graph: Graph,
    cfg: SoupConfig | None = None,
    finetune_epochs: int = 10,
    finetune_lr: float = 0.005,
    finetune_seed: int = 0,
    evaluator: Evaluator | None = None,
) -> SoupResult:
    """LS followed by ordinary gradient descent on the *training* split.

    §VIII asks for "a better understanding of the relation between learned
    souping and traditional gradient descent approaches"; the most direct
    probe is to compose them: the learned soup is a point in weight space
    chosen by validation-loss descent over the ingredient simplex — can
    plain train-split SGD from that point still improve it, or has souping
    already extracted what fine-tuning would find? This runs LS, then
    ``finetune_epochs`` of standard training from the souped weights (the
    same recipe ingredients were trained with, at a gentler lr), and
    reports both scores in ``extras`` so the comparison is explicit.
    """
    from ..train import TrainConfig, train_model  # local import avoids cycle at module load

    if finetune_epochs < 0:
        raise ValueError("finetune_epochs cannot be negative")
    with evaluation(evaluator, pool, graph) as ev:
        ls_result = learned_soup_fn(pool, graph, cfg, evaluator=ev)
        model = pool.make_model()
        model.load_state_dict(ls_result.state_dict)
        with instrumented("ls-finetune", pool, graph) as probe:
            if finetune_epochs:
                ft = train_model(
                    model,
                    graph,
                    TrainConfig(epochs=finetune_epochs, lr=finetune_lr),
                    seed=finetune_seed,
                )
                soup_state = ft.state_dict
            else:
                soup_state = ls_result.state_dict
            probe.track_state_dict(soup_state)
        # the fine-tuned state is no longer a linear mix of the pool —
        # it crosses to the evaluator as an explicit state candidate
        val_acc, test_acc = ev.final_scores(state=soup_state)
    return SoupResult(
        method="ls-finetune",
        state_dict=soup_state,
        val_acc=val_acc,
        test_acc=test_acc,
        soup_time=ls_result.soup_time + probe.elapsed,
        peak_memory=max(ls_result.peak_memory, probe.peak),
        extras={
            "ls_val_acc": ls_result.val_acc,
            "ls_test_acc": ls_result.test_acc,
            "finetune_epochs": finetune_epochs,
            "n_ingredients": len(pool),
        },
    )
