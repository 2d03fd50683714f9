"""Learned Souping (LS) — Algorithm 3, the paper's first contribution.

Instead of GIS's exhaustive per-ingredient ratio search, LS makes the
mixture itself trainable. With N ingredients and layer groups
``l = 1..L``, a matrix of interpolation parameters ``alpha[i, l]`` builds
the soup

    W_soup^l = sum_i softmax_i(alpha[:, l]) * W_i^l          (Eq. 3)

and the *validation* loss of the resulting model is minimised by gradient
descent on the alphas (Eq. 4). Paper recipe, followed exactly:

* alphas initialised with **Xavier/Glorot normal** (§III-B),
* normalised across ingredients with **softmax** (the paper discusses the
  softmax floor preventing exact zeroing of bad ingredients — §V-A; the
  ``normalize="none"`` ablation removes it),
* optimised with **SGD + cosine annealing** rather than AdamW (§III-B),
* hyperparameters tuned "by randomly splitting the validation set for
  training and validating the soup" (§IV-C): a ``holdout_fraction`` of the
  validation nodes is excluded from the alpha objective and used to pick
  the best epoch.

Cost per epoch: one forward + one backward on the validation slice —
``O(e (F_v + B_v))`` (§III-E) versus GIS's ``O(N g F_v)``. The descent
runs on the validation rows' layered blocks (:meth:`Graph.blocks`), so
each layer computes only the rows the validation logits depend on; the
logits are the full pass's bits, the alpha gradients match it to float
rounding (the weight-gradient GEMMs sum over fewer all-zero rows).

PLS (Algorithm 4) runs the same descent: :func:`descend_and_select`
takes an epoch-field source, and LS is the source that returns the
validation blocks every epoch (:func:`validation_field`), PLS the one that
draws a partition union (:mod:`repro.soup.partition_learned`).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..distributed.ingredients import IngredientPool
from ..graph.blocks import Blocks
from ..graph.graph import Graph
from ..nn import cross_entropy, functional_params
from ..optim import SGD, ConstantLR, CosineAnnealingLR
from ..tensor import Tensor, init as tensor_init, sparsemax, weighted_combine
from ..train import accuracy
from .base import SoupResult, instrumented
from .engine import Candidate, Evaluator, evaluation
from .state import layer_groups

__all__ = [
    "SoupConfig",
    "learned_soup",
    "build_alpha",
    "combine_with_alphas",
    "alpha_weights",
    "entropy_penalty",
]


@dataclass(frozen=True)
class SoupConfig:
    """Hyperparameters shared by LS and PLS.

    The defaults are the cross-validated settings our EXPERIMENTS.md runs
    use; the paper notes LS is sensitive to these (§VI-A) and that
    "relatively large base learning rates often yielded the best results".
    """

    epochs: int = 60
    lr: float = 1.0
    momentum: float = 0.9
    weight_decay: float = 0.0
    cosine: bool = True
    granularity: str = "layer"  # model | layer | module | tensor
    normalize: str = "softmax"  # softmax | sparsemax | none
    alpha_init: str = "xavier_normal"  # xavier_normal | uniform
    holdout_fraction: float = 0.3
    select_best: bool = True
    early_stopping: int = 0  # holdout patience in epochs; 0 disables (§VI-A suggestion)
    val_batch_size: int = 0  # nodes per alpha step; 0 = full validation slice (§VI-A)
    alpha_entropy_coef: float = 0.0  # penalise uniform mixtures; 0 disables (§VIII)
    n_restarts: int = 1  # independent alpha-descent restarts (seeds seed..seed+R-1)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in [0, 1)")
        if self.normalize not in ("softmax", "sparsemax", "none"):
            raise ValueError(f"unknown normalize {self.normalize!r}")
        if self.alpha_init not in ("xavier_normal", "uniform"):
            raise ValueError(f"unknown alpha_init {self.alpha_init!r}")
        if self.early_stopping < 0:
            raise ValueError("early_stopping patience cannot be negative")
        if self.early_stopping and not self.select_best:
            raise ValueError("early_stopping requires select_best (it tracks holdout accuracy)")
        if self.val_batch_size < 0:
            raise ValueError("val_batch_size cannot be negative (0 = full batch)")
        if self.alpha_entropy_coef < 0:
            raise ValueError("alpha_entropy_coef cannot be negative")
        if self.alpha_entropy_coef and self.normalize == "none":
            raise ValueError("alpha entropy regularisation needs simplex weights (softmax/sparsemax)")


def build_alpha(n_ingredients: int, n_groups: int, cfg: SoupConfig, rng: np.random.Generator) -> Tensor:
    """The learnable interpolation matrix ``alpha`` of shape ``[N, G]``.

    ``uniform`` init means "start from the exact equal mixture": all-zero
    logits under softmax/sparsemax (both map 0 to 1/N), but the literal
    ``1/N`` weights when no normaliser will follow (all-zero raw alphas
    would build the zero model).
    """
    if cfg.alpha_init == "xavier_normal":
        data = tensor_init.xavier_normal((n_ingredients, n_groups), rng)
    elif cfg.normalize == "none":
        data = np.full((n_ingredients, n_groups), 1.0 / n_ingredients)
    else:
        data = np.zeros((n_ingredients, n_groups))
    return Tensor(data, requires_grad=True, name="alpha")


def alpha_weights(alphas: Tensor, cfg: SoupConfig) -> Tensor:
    """Normalised mixing weights over the ingredient axis.

    ``softmax`` is the paper's choice (strictly positive — the §V-A
    "softmax floor"); ``sparsemax`` projects onto the simplex with exact
    zeros, directly addressing the §VIII wish to "more easily drop-out
    poor performing ingredients" (pair it with ``alpha_init="uniform"`` so
    no ingredient starts outside the support, where its gradient is zero);
    ``none`` leaves the alphas unconstrained.
    """
    if cfg.normalize == "softmax":
        return alphas.softmax(axis=0)
    if cfg.normalize == "sparsemax":
        return sparsemax(alphas, axis=0)
    return alphas


def combine_with_alphas(
    weights: Tensor,
    stacks: dict[str, np.ndarray],
    group_of: dict[str, int],
) -> "OrderedDict[str, Tensor]":
    """Differentiable soup parameters: Eq. (3) applied per layer group."""
    soup_params: OrderedDict[str, Tensor] = OrderedDict()
    for name, stack in stacks.items():
        w_col = weights[(slice(None), group_of[name])]
        soup_params[name] = weighted_combine(w_col, stack)
    return soup_params


def entropy_penalty(weights: Tensor) -> Tensor:
    """Mean per-group Shannon entropy of the mixing weights (§VIII knob).

    Added to the alpha objective with ``alpha_entropy_coef``, this *rewards*
    concentrating mass on few ingredients — a soft analogue of dropping the
    poor performers the softmax floor otherwise protects (§V-A). Safe for
    sparsemax's exact zeros: ``0·log(0+eps) = 0`` and sparsemax passes no
    gradient to off-support entries.
    """
    n_groups = weights.shape[1] if weights.ndim > 1 else 1
    logw = (weights + 1e-12).log()
    return -(weights * logw).sum() * (1.0 / n_groups)


def split_validation(
    graph: Graph, holdout_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Split the validation nodes into (alpha-train, holdout) index arrays."""
    val_idx = graph.val_idx
    if holdout_fraction == 0.0 or len(val_idx) < 2:
        return val_idx, val_idx
    perm = rng.permutation(len(val_idx))
    n_holdout = max(1, int(round(holdout_fraction * len(val_idx))))
    return val_idx[perm[n_holdout:]], val_idx[perm[:n_holdout]]


class EpochField(NamedTuple):
    """What one alpha epoch reads: ``blocks`` over a graph, that graph's
    ``labels``, and the alpha-train and holdout ids in it. ``nbytes`` is
    counted as resident while the epoch runs (a drawn subgraph's payload;
    0 for the resident validation field)."""

    blocks: Blocks
    labels: np.ndarray
    train_ids: np.ndarray
    holdout_ids: np.ndarray
    nbytes: int


# ``source(alpha_train_idx, holdout_idx, hops)`` is called once per restart
# and returns that restart's ``draw(rng)``: the next epoch's field, or
# ``None`` when the epoch holds no alpha-train row (it is skipped)
FieldSource = Callable[[np.ndarray, np.ndarray, int], Callable[[np.random.Generator], "EpochField | None"]]


def validation_field(graph: Graph) -> FieldSource:
    """LS's field: every epoch reads the validation rows' cached layered
    blocks (§III-E's ``O(e (F_v + B_v))`` epoch)."""

    def source(train_idx: np.ndarray, holdout_idx: np.ndarray, hops: int):
        field = EpochField(graph.blocks(graph.val_idx, hops), graph.labels, train_idx, holdout_idx, 0)
        return lambda rng: field

    return source


def _descend(
    model, graph: Graph, stacks: dict, group_of: dict[str, int], alpha_shape: tuple[int, int],
    cfg: SoupConfig, seed: int, field_source: FieldSource, meter,
) -> tuple[np.ndarray, list[tuple[int, float, float]], int]:
    """One restart: Eq. (4)/(6) descent from ``seed`` over the epoch fields
    ``field_source`` draws; returns the selected ``[N, G]`` alphas, the
    ``(epoch, loss, holdout_acc)`` history and the number of skipped epochs."""
    rng = np.random.default_rng(seed)
    # the alpha-train/holdout split is defined on *global* node ids so the
    # objective is the same whichever subgraph an epoch reads
    draw = field_source(*split_validation(graph, cfg.holdout_fraction, rng), model.num_hops)

    history: list[tuple[int, float, float]] = []
    skipped_epochs = 0
    alphas = build_alpha(*alpha_shape, cfg, rng)
    optimizer = SGD([alphas], lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)
    scheduler = CosineAnnealingLR(optimizer, t_max=cfg.epochs) if cfg.cosine else ConstantLR(optimizer)

    best_holdout, best_alpha = -1.0, alphas.data.copy()
    patience_left = cfg.early_stopping if cfg.early_stopping else None
    for epoch in range(1, cfg.epochs + 1):
        field = draw(rng)
        if field is None:
            skipped_epochs += 1
            scheduler.step()
            continue
        train_ids, holdout_ids, blocks = field.train_ids, field.holdout_ids, field.blocks
        if 0 < cfg.val_batch_size < len(train_ids):
            # §VI-A: "techniques like minibatching to stabilize training" —
            # each alpha step scores a fresh random subset of the epoch's rows
            train_ids = rng.choice(train_ids, size=cfg.val_batch_size, replace=False)
        with meter.transient(field.nbytes):
            weights = alpha_weights(alphas, cfg)
            soup_params = combine_with_alphas(weights, stacks, group_of)
            with functional_params(model, soup_params):
                logits = model(blocks, Tensor(blocks.features))
            loss = cross_entropy(logits[blocks.positions(train_ids)], field.labels[train_ids])
            if cfg.alpha_entropy_coef:
                loss = loss + entropy_penalty(weights) * cfg.alpha_entropy_coef
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            scheduler.step()
            holdout = logits.data[blocks.positions(holdout_ids)]
            holdout_acc = accuracy(holdout, field.labels[holdout_ids]) if len(holdout_ids) else -1.0
        history.append((epoch, float(loss.data), holdout_acc))
        # free the epoch's tape and field before the next draw
        del logits, loss, soup_params, field, blocks
        if cfg.select_best and holdout_acc > best_holdout:
            best_holdout, best_alpha = holdout_acc, alphas.data.copy()
            if patience_left is not None:
                patience_left = cfg.early_stopping
        elif patience_left is not None and holdout_acc >= 0:
            patience_left -= 1
            if patience_left <= 0:
                break
    if not cfg.select_best or best_holdout < 0:
        best_alpha = alphas.data.copy()
    return best_alpha, history, skipped_epochs


def descend_and_select(
    method: str,
    pool: IngredientPool,
    graph: Graph,
    cfg: SoupConfig,
    field_source: FieldSource,
    evaluator: Evaluator | None = None,
    resident: Graph | None = None,
) -> SoupResult:
    """Run ``cfg.n_restarts`` alpha descents over ``field_source`` and
    return the winning soup.

    Restart ``r`` descends from seed ``cfg.seed + r`` (fresh holdout split,
    alpha init and field draws); the restart soups are scored on the
    validation split as **one evaluator batch** and the best wins (ties:
    lowest seed). ``resident`` is the graph held in memory throughout
    (LS's; ``None`` for PLS, whose epochs count their own subgraph).
    """
    model = pool.make_model()
    model.eval()  # deterministic forward; dropout off for the alpha objective
    names = pool.param_names()
    group_ids, group_names = layer_groups(names, cfg.granularity)
    group_of = {name: int(g) for name, g in zip(names, group_ids)}
    group_vec = np.asarray(group_ids, dtype=np.int64)

    with evaluation(evaluator, pool, graph) as ev:
        with instrumented(method, pool, resident) as probe:
            stacks = pool.stacked_params()
            for stack in stacks.values():
                probe.track_array(stack)
            restarts = [
                _descend(model, graph, stacks, group_of, (len(pool), len(group_names)),
                         cfg, cfg.seed + r, field_source, probe.meter)
                for r in range(cfg.n_restarts)
            ]
            restart_weights = [alpha_weights(Tensor(alpha), cfg).data for alpha, _, _ in restarts]
            restart_val_accs = ev.evaluate(
                [Candidate(weights=w, groups=group_vec, split="val") for w in restart_weights]
            )
            winner = int(np.argmax(restart_val_accs))
            best_alpha, history, _ = restarts[winner]
            final_weights = restart_weights[winner]
            soup_state = ev.mix(final_weights, groups=group_vec)
            probe.track_state_dict(soup_state)
        test_acc = ev.accuracy_of(weights=final_weights, groups=group_vec, split="test")

    return SoupResult(
        method=method,
        state_dict=soup_state,
        val_acc=restart_val_accs[winner],
        test_acc=test_acc,
        soup_time=probe.elapsed,
        peak_memory=probe.peak,
        extras={
            "alphas": best_alpha,
            "weights": final_weights,
            "group_names": group_names,
            "history": history,
            "n_ingredients": len(pool),
            "config": cfg,
            "skipped_epochs": sum(skipped for _, _, skipped in restarts),
            "n_restarts": cfg.n_restarts,
            "restart_val_accs": [float(a) for a in restart_val_accs],
            "best_restart": winner,
        },
    )


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
    best restart on the validation split wins (:func:`descend_and_select`).
    """
    return descend_and_select(
        "ls", pool, graph, cfg or SoupConfig(), validation_field(graph), evaluator, resident=graph
    )
