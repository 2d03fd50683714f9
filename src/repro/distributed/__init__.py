"""Phase-1 substrate: zero-communication ingredient training + scheduling.

Three layers, lowest first:

* :mod:`~repro.distributed.scheduler` — deterministic dynamic-queue list
  scheduler validating the paper's Eq. (1)/(2) makespan model, with
  heterogeneous-speed and failure/requeue variants;
* :mod:`~repro.distributed.cluster` — the shared worker-service core
  (claim/done protocol, work-stealing queue, respawn-on-death, lost-task
  recovery) with pluggable same-host ``pipe`` and multi-host ``tcp``
  transports; Phase-1 training and the serving layer run on it;
* :mod:`~repro.distributed.ingredients` — Phase-1 ingredient production:
  the in-process serial loop, or the cluster runtime's shared dynamic
  task queue over process workers.
"""

from .scheduler import TaskSchedule, WorkerPoolSimulator, eq1_estimate, eq2_min_time
from .faults import (
    FaultPlan,
    ResilientPoolSimulator,
    ResilientSchedule,
    SchedulingError,
    SimulatedWorkerFault,
    WorkerSpec,
)
from .checkpoint import CheckpointStore, run_fingerprint
from .cluster import (
    TRANSPORTS,
    ClusterError,
    ClusterService,
    PipeTransport,
    TcpTransport,
    WorkerLossError,
    WorkerRole,
    parse_nodes,
    register_role,
    resolve_role,
    run_worker,
)
from .ingredients import (
    EXECUTORS,
    QUEUES,
    IngredientPool,
    IngredientTask,
    IngredientTrainingError,
    train_ingredients,
)
from .shm import SharedGraphBuffer, SharedGraphSpec, attach_graph

__all__ = [
    "TaskSchedule",
    "WorkerPoolSimulator",
    "eq1_estimate",
    "eq2_min_time",
    "WorkerSpec",
    "ResilientSchedule",
    "ResilientPoolSimulator",
    "SchedulingError",
    "SimulatedWorkerFault",
    "FaultPlan",
    "CheckpointStore",
    "run_fingerprint",
    "SharedGraphBuffer",
    "SharedGraphSpec",
    "attach_graph",
    "TRANSPORTS",
    "ClusterError",
    "ClusterService",
    "PipeTransport",
    "TcpTransport",
    "WorkerLossError",
    "WorkerRole",
    "parse_nodes",
    "register_role",
    "resolve_role",
    "run_worker",
    "EXECUTORS",
    "QUEUES",
    "IngredientPool",
    "IngredientTask",
    "IngredientTrainingError",
    "train_ingredients",
]
