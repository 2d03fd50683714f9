"""Online serving: a finished soup behind live prediction traffic.

Everything before this package *produces* a model — Phase 1 trains the
ingredient pool, Phase 2 soups it. This package *serves* one: a
long-lived inference service (``python -m repro serve``) built on the
shared cluster runtime, answering node-prediction requests over the same
length-prefixed frame protocol the cluster transports use.

* :mod:`~repro.serve.model` — the served model (one soup state, or a
  logit ensemble over the whole pool) and the ``"serve"`` worker role;
* :mod:`~repro.serve.cache` — the LRU per-node prediction cache in front
  of the forward pass;
* :mod:`~repro.serve.server` — request frontend, deterministic batch
  coalescing with adaptive max-batch/max-wait, async dispatch across
  pipe/tcp workers through :class:`~repro.distributed.cluster.ClusterService`'s
  ``submit``/``poll``;
* :mod:`~repro.serve.client` — the synchronous/pipelined client;
* :mod:`~repro.serve.loadgen` — the load generator
  (``python -m repro.serve.loadgen``) reporting p50/p99 latency and
  throughput.
"""

from .cache import NodeCache
from .client import ServeClient, ServeError
from .model import SERVE_ROLE, ServedModel, state_digest
from .server import PredictionServer, ServeConfig

__all__ = [
    "NodeCache",
    "PredictionServer",
    "SERVE_ROLE",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServedModel",
    "run_load",
    "state_digest",
]


def __getattr__(name):
    # lazy: importing .loadgen here would shadow `python -m repro.serve.loadgen`
    if name == "run_load":
        from .loadgen import run_load

        return run_load
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
