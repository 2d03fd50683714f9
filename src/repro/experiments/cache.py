"""On-disk ingredient cache.

Phase 1 (training N ingredients per cell) dominates wall time, and every
table/figure bench consumes the *same* trained ingredients — exactly like
the paper, where one 2400-model training campaign feeds all evaluations.
Pools are persisted as ``.npz`` archives keyed by the experiment spec, so
``pytest benchmarks/`` retrains nothing that already exists.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from ..distributed.ingredients import IngredientPool
from ..graph.graph import Graph
from ..distributed import train_ingredients
from .config import ExperimentSpec

__all__ = ["cache_dir", "pool_cache_key", "save_pool", "load_pool", "get_or_train_pool"]


def cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``<repo>/.cache/ingredients``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        path = Path(env)
    else:
        path = Path(__file__).resolve().parents[3] / ".cache" / "ingredients"
    path.mkdir(parents=True, exist_ok=True)
    return path


def pool_cache_key(spec: ExperimentSpec, graph_seed: int, graph_nodes: int | None = None) -> str:
    """Deterministic filename for a spec's ingredient pool.

    ``graph_nodes`` disambiguates scaled variants of the same dataset
    (benchmarks run with ``REPRO_BENCH_SCALE`` applied).
    """
    payload = {
        "dataset": spec.dataset,
        "arch": spec.arch,
        "hidden_dim": spec.hidden_dim,
        "num_layers": spec.num_layers,
        "num_heads": spec.num_heads,
        "dropout": spec.dropout,
        "n_ingredients": spec.n_ingredients,
        "ingredient_epochs": spec.ingredient_epochs,
        "ingredient_lr": spec.ingredient_lr,
        "ingredient_weight_decay": spec.ingredient_weight_decay,
        "epoch_jitter": spec.epoch_jitter,
        "base_seed": spec.base_seed,
        "graph_seed": graph_seed,
        "graph_nodes": graph_nodes,
    }
    # sampled-minibatch settings change the trained weights, so they key
    # the cache; prefetch_depth/sample_workers deliberately do not (the
    # determinism contract makes results identical at any pipeline shape)
    if spec.minibatch:
        payload["minibatch"] = True
        payload["batch_size"] = spec.batch_size
        payload["fanout"] = spec.fanout
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
    return f"{spec.arch}-{spec.dataset}-n{spec.n_ingredients}-{digest}"


def save_pool(pool: IngredientPool, path: Path) -> None:
    """Serialise a pool to ``.npz`` (states + metrics + model config)."""
    arrays: dict[str, np.ndarray] = {}
    for i, state in enumerate(pool.states):
        for name, value in state.items():
            arrays[f"state{i}::{name}"] = value
    arrays["val_accs"] = np.asarray(pool.val_accs)
    arrays["test_accs"] = np.asarray(pool.test_accs)
    arrays["train_times"] = np.asarray(pool.train_times)
    meta = json.dumps({"model_config": pool.model_config, "graph_name": pool.graph_name, "n": len(pool)})
    arrays["meta"] = np.frombuffer(meta.encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)


def load_pool(path: Path) -> IngredientPool:
    """Inverse of :func:`save_pool`."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        n = meta["n"]
        states: list[dict] = []
        for i in range(n):
            prefix = f"state{i}::"
            state = {
                key[len(prefix):]: data[key] for key in data.files if key.startswith(prefix)
            }
            states.append(state)
        return IngredientPool(
            model_config=meta["model_config"],
            states=states,
            val_accs=[float(v) for v in data["val_accs"]],
            test_accs=[float(v) for v in data["test_accs"]],
            train_times=[float(v) for v in data["train_times"]],
            graph_name=meta["graph_name"],
        )


def get_or_train_pool(
    spec: ExperimentSpec,
    graph: Graph,
    graph_seed: int = 0,
    executor: str = "serial",
    shm: bool = True,
    transport: str = "pipe",
    nodes=None,
    checkpoint_dir: str | os.PathLike | None = None,
    checkpoint_every: int = 0,
    checkpoint_keep: int = 1,
    resume: bool = False,
    prefetch_depth: int | None = None,
    sample_workers: int | None = None,
) -> IngredientPool:
    """Load the spec's pool from cache, training and persisting on a miss.

    ``executor``/``shm``/``transport``/``nodes``/``checkpoint_dir``/
    ``checkpoint_every``/``checkpoint_keep``/``resume`` pass through to
    :func:`repro.distributed.train_ingredients` on a miss; none of them
    enter the cache key because the determinism contract makes the pool
    identical across executors and transports (including remote tcp
    workers, which receive the whole graph like local ones).
    ``prefetch_depth``/``sample_workers`` override the spec's sampling-
    pipeline knobs — also determinism-neutral, also outside the key.
    """
    ingredient_kwargs = spec.ingredient_kwargs()
    if prefetch_depth is not None or sample_workers is not None:
        cfg = ingredient_kwargs["train_cfg"]
        ingredient_kwargs["train_cfg"] = dataclasses.replace(
            cfg,
            **{
                k: v
                for k, v in {
                    "prefetch_depth": prefetch_depth,
                    "sample_workers": sample_workers,
                }.items()
                if v is not None
            },
        )
    path = cache_dir() / (pool_cache_key(spec, graph_seed, graph.num_nodes) + ".npz")
    if path.exists():
        try:
            return load_pool(path)
        except Exception:
            path.unlink()  # corrupt cache entry; retrain
    pool = train_ingredients(
        spec.arch,
        graph,
        n_ingredients=spec.n_ingredients,
        executor=executor,
        shm=shm,
        transport=transport,
        nodes=nodes,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        checkpoint_keep=checkpoint_keep,
        resume=resume,
        **ingredient_kwargs,
    )
    save_pool(pool, path)
    return pool
