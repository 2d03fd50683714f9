"""Single-model training loops (the per-worker workload of Phase 1).

``train_model`` trains one ingredient: full-batch or neighbour-sampled
minibatch, Adam/AdamW/SGD, optional early stopping, best-validation-epoch
checkpointing. The returned :class:`TrainResult` carries the trained state
dict plus val/test accuracy — the inputs the souping algorithms consume.

Every step and evaluation pass runs on the layered blocks of the rows its
loss or accuracy reads (:func:`~repro.graph.blocks.forward_field`): the
train split's cached blocks for a full-batch step, each sampled
subgraph's seed blocks for a minibatch step, the validation and test
splits' cached blocks for evaluation. Logits and dropout masks at those
rows are the full pass's bits; parameters match a full-graph run to
float rounding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..graph.blocks import forward_field
from ..graph.graph import Graph
from ..graph.sampling import NeighborSampler, khop_subgraph
from ..nn import Module, cross_entropy
from ..optim import Adam, AdamW, SGD, ConstantLR, CosineAnnealingLR
from ..telemetry import metrics
from ..tensor import Tensor, no_grad
from .metrics import accuracy
from .pipeline import PrefetchPipeline

__all__ = [
    "EpochTrainState",
    "TrainConfig",
    "TrainResult",
    "train_model",
    "evaluate",
    "evaluate_blocked",
    "evaluate_logits",
]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one ingredient-training run."""

    epochs: int = 100
    lr: float = 0.01
    weight_decay: float = 5e-4
    optimizer: str = "adam"  # adam | adamw | sgd
    momentum: float = 0.9  # sgd only
    cosine_schedule: bool = False
    early_stopping: int = 0  # patience in epochs; 0 disables
    minibatch: bool = False
    batch_size: int = 512
    fanout: int | None = 10  # per-hop neighbour cap when minibatching
    eval_every: int = 1
    prefetch_depth: int = 0  # sampled-but-unconsumed batch cap; 0 = inline sampling
    sample_workers: int = 1  # background sampler threads when prefetching

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.optimizer not in ("adam", "adamw", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.fanout is not None and self.fanout < 1:
            raise ValueError("fanout must be None (full expansion) or >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        if self.sample_workers < 1:
            raise ValueError("sample_workers must be >= 1")


@dataclass
class TrainResult:
    """Outcome of one training run (one soup ingredient)."""

    state_dict: dict
    val_acc: float
    test_acc: float
    train_time: float
    epochs_run: int
    history: list = field(default_factory=list, repr=False)  # (epoch, loss, val_acc)


@dataclass
class EpochTrainState:
    """Everything needed to continue a run bit-identically mid-training.

    Snapshotted at an epoch boundary by ``train_model``'s ``on_epoch_end``
    hook and fed back through its ``epoch_state`` parameter: current
    parameters, optimizer buffers (Adam moments / SGD velocity, step
    count, lr), the scheduler cursor, the *exact* RNG state (dropout
    continues where it stopped; shuffling and sampling are pure functions
    of ``(seed, epoch, batch)`` and need no state), and the
    best-validation bookkeeping. A resumed run produces the same final
    :class:`TrainResult` state dict as an uninterrupted one.
    """

    epoch: int  # last completed epoch
    model_state: dict
    optimizer_state: dict
    scheduler_last_epoch: int
    rng_state: dict
    best_val: float
    best_state: dict
    best_epoch: int
    patience_left: int | None
    history: list
    elapsed: float  # training seconds accumulated before the snapshot


def _make_optimizer(model: Module, cfg: TrainConfig):
    params = model.parameters()
    if cfg.optimizer == "adam":
        return Adam(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    if cfg.optimizer == "adamw":
        return AdamW(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    return SGD(params, lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)


def evaluate_logits(model: Module, graph: Graph) -> np.ndarray:
    """Inference-mode full-graph logits as a raw ndarray."""
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            logits = model(graph, Tensor(graph.features))
    finally:
        model.train(was_training)
    return logits.data


def evaluate_rows(model: Module, graph: Graph, rows: np.ndarray) -> np.ndarray:
    """Inference-mode logits at ``rows`` (in the given order).

    Runs the model on :func:`~repro.graph.blocks.forward_field`: the
    graph's cached layered blocks for ``rows`` (``model.num_hops`` layers
    deep), so only the rows the logits depend on are computed (a
    memory-budgeted store graph runs whole). Bit-identical to
    ``evaluate_logits(model, graph)[rows]``.
    """
    field = forward_field(graph, rows, model.num_hops)
    return evaluate_logits(model, field)[field.positions(rows)]


def evaluate(model: Module, graph: Graph, idx: np.ndarray) -> float:
    """Accuracy of the model on the given node indices (:func:`evaluate_rows`)."""
    return accuracy(evaluate_rows(model, graph, idx), graph.labels[idx])


def evaluate_blocked(model: Module, graph: Graph, idx: np.ndarray, batch_size: int = 512) -> float:
    """Accuracy over k-hop blocks — no full-graph materialisation.

    Each batch of ``idx`` is evaluated on its full L-hop induced
    neighbourhood (``fanout=None``), so only one block's features and
    operator are resident at a time. This is the evaluation path for
    budgeted store-backed graphs, where the full-graph forward is
    forbidden. Destination-degree aggregators (SAGE's mean) see complete
    1-hop neighbourhoods and match the full-graph pass exactly;
    aggregators that also read *source*-node degrees (GCN's symmetric
    norm) can differ marginally on the outermost hop ring, where induced
    degrees are truncated.
    """
    hops = getattr(model, "num_layers", 2)
    correct = total = 0
    for start in range(0, len(idx), batch_size):
        batch = idx[start : start + batch_size]
        nodes = khop_subgraph(graph.csr, batch, hops=hops, fanout=None)
        sub = graph.subgraph(nodes)
        positions = np.searchsorted(nodes, batch)
        logits = evaluate_logits(model, sub)
        correct += int((logits[positions].argmax(axis=1) == graph.labels[batch]).sum())
        total += len(batch)
    return correct / total if total else 0.0


def train_model(
    model: Module,
    graph: Graph,
    cfg: TrainConfig,
    seed: int = 0,
    epoch_state: EpochTrainState | None = None,
    on_epoch_end: Callable[[int, Callable[[], EpochTrainState]], None] | None = None,
) -> TrainResult:
    """Train ``model`` on ``graph`` per ``cfg``; restores the best-val epoch.

    ``seed`` drives dropout masks, shuffling and sampling — with a shared
    initial state dict, distinct seeds produce the paper's "ingredients":
    same architecture and starting point, different SGD trajectories.

    ``epoch_state`` resumes a previously snapshotted run mid-training;
    ``on_epoch_end(epoch, snapshot)`` fires after every completed epoch
    with a zero-arg ``snapshot`` closure that materialises the
    :class:`EpochTrainState` only when the caller decides to persist it
    (building one copies every parameter and optimizer buffer).
    """
    rng = np.random.default_rng(seed)
    optimizer = _make_optimizer(model, cfg)
    scheduler = CosineAnnealingLR(optimizer, t_max=cfg.epochs) if cfg.cosine_schedule else ConstantLR(optimizer)
    train_idx, val_idx = graph.train_idx, graph.val_idx

    budgeted_store = graph.is_store_backed and graph.store.memory_budget is not None
    if budgeted_store and not cfg.minibatch:
        raise ValueError(
            "full-batch training on a memory-budgeted store-backed graph would "
            "materialise the full feature matrix; set minibatch=True"
        )
    hops = model.num_hops
    if not cfg.minibatch:
        # the train split's field, cached on the graph for every ingredient
        train_field = forward_field(graph, train_idx, hops)
        features = Tensor(train_field.features)
        train_at = train_field.positions(train_idx)

    def run_eval(idx: np.ndarray) -> float:
        t0 = time.perf_counter() if metrics.enabled else 0.0
        if budgeted_store:
            acc = evaluate_blocked(model, graph, idx, batch_size=cfg.batch_size)
        else:
            acc = evaluate(model, graph, idx)
        if metrics.enabled:
            metrics.observe("train.eval_s", time.perf_counter() - t0)
        return acc

    pipeline: PrefetchPipeline | None = None
    if cfg.minibatch:
        # sampling is a pure function of (seed, epoch, batch): the sampler is
        # built once, and prefetch depth / worker count cannot change results
        sampler = NeighborSampler(
            graph,
            train_idx,
            cfg.batch_size,
            hops=getattr(model, "num_layers", 2),
            fanout=cfg.fanout,
            seed=seed,
        )
        pipeline = PrefetchPipeline(sampler, prefetch_depth=cfg.prefetch_depth, num_workers=cfg.sample_workers)

    best_val, best_state, best_epoch = -1.0, model.state_dict(), 0
    history: list[tuple[int, float, float]] = []
    patience_left = cfg.early_stopping if cfg.early_stopping > 0 else None
    start_epoch, epochs_run, prior_elapsed = 1, 0, 0.0
    if epoch_state is not None:
        model.load_state_dict(epoch_state.model_state)
        optimizer.load_state_dict(epoch_state.optimizer_state)
        scheduler.last_epoch = int(epoch_state.scheduler_last_epoch)
        rng.bit_generator.state = epoch_state.rng_state
        best_val = epoch_state.best_val
        best_state = {k: np.array(v, copy=True) for k, v in epoch_state.best_state.items()}
        best_epoch = epoch_state.best_epoch
        patience_left = epoch_state.patience_left
        history = [tuple(entry) for entry in epoch_state.history]
        start_epoch = int(epoch_state.epoch) + 1
        epochs_run = int(epoch_state.epoch)
        prior_elapsed = float(epoch_state.elapsed)
    start = time.perf_counter()

    def snapshot() -> EpochTrainState:
        return EpochTrainState(
            epoch=epochs_run,
            model_state=model.state_dict(),
            optimizer_state=optimizer.state_dict(),
            scheduler_last_epoch=int(scheduler.last_epoch),
            rng_state=rng.bit_generator.state,
            best_val=best_val,
            best_state={k: v.copy() for k, v in best_state.items()},
            best_epoch=best_epoch,
            patience_left=patience_left,
            history=list(history),
            elapsed=prior_elapsed + (time.perf_counter() - start),
        )

    # a snapshot taken on the early-stopping epoch resumes straight to the end
    stop = patience_left is not None and patience_left <= 0
    try:
        for epoch in range(start_epoch, cfg.epochs + 1):
            if stop:
                break
            epoch_t0 = time.perf_counter() if metrics.enabled else 0.0
            epochs_run = epoch
            model.train()
            if cfg.minibatch:
                epoch_loss, n_batches = 0.0, 0
                for batch_index, (sub, seed_pos) in enumerate(pipeline.epoch(epoch)):
                    with metrics.span("pipeline.compute", epoch=epoch, batch=batch_index):
                        field = forward_field(sub, seed_pos, hops, backward=True, cached=False)
                        logits = model(field, Tensor(field.features), rng)
                        loss = cross_entropy(logits[field.positions(seed_pos)], sub.labels[seed_pos])
                        optimizer.zero_grad()
                        loss.backward()
                        optimizer.step()
                    epoch_loss += float(loss.data)
                    n_batches += 1
                mean_loss = epoch_loss / max(n_batches, 1)
            else:
                logits = model(train_field, features, rng)
                loss = cross_entropy(logits[train_at], graph.labels[train_idx])
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                mean_loss = float(loss.data)
            scheduler.step()
            if metrics.enabled:
                # optimisation step only — the periodic val pass is excluded
                metrics.observe("train.epoch_step_s", time.perf_counter() - epoch_t0)

            if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
                val_acc = run_eval(val_idx)
                history.append((epoch, mean_loss, val_acc))
                if val_acc > best_val:
                    best_val, best_state, best_epoch = val_acc, model.state_dict(), epoch
                    if patience_left is not None:
                        patience_left = cfg.early_stopping
                elif patience_left is not None:
                    patience_left -= cfg.eval_every
                    stop = patience_left <= 0
            if on_epoch_end is not None:
                on_epoch_end(epoch, snapshot)
    finally:
        if pipeline is not None:
            pipeline.close()

    elapsed = prior_elapsed + (time.perf_counter() - start)
    model.load_state_dict(best_state)
    test_acc = run_eval(graph.test_idx)
    return TrainResult(
        state_dict=best_state,
        val_acc=best_val,
        test_acc=test_acc,
        train_time=elapsed,
        epochs_run=epochs_run,
        history=history,
    )
