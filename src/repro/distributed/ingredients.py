"""Phase 1: zero-communication ingredient production.

The paper's workflow (Fig. 1): a **shared model initialisation** is
broadcast to all workers; each worker trains a replica independently (no
gradient or message synchronisation) under its own stochasticity (dropout
masks, data order, sampling); the trained replicas — the *ingredients* —
are then gathered for Phase 2 souping.

``train_ingredients`` reproduces that pipeline. Determinism contract: the
ingredient list is a pure function of ``(arch config, graph, base_seed)``
regardless of executor or graph transport, because each
task's RNG derives from ``base_seed + task index``, not from scheduling
order — the property that makes zero-communication training reproducible
across cluster layouts. Results are always merged in task-index order.

Executors:

* ``"serial"`` — the in-process FIFO loop (single-core default, and the
  reference the determinism tests compare against);
* ``"process"`` — true multi-core fan-out over the paper's shared task
  queue: a persistent worker pool pulls task specs as workers free up,
  so a straggling or retried task never stalls the rest of the pool, and
  a hard-killed worker is replaced while its lost task re-enters the
  queue. Tasks cross the process boundary as picklable
  :class:`IngredientTask` specs (arch config + derived seed); each worker
  rebuilds its model from the shared-init seed and receives the whole
  graph once, at its handshake, through one of three refs: a
  :class:`~repro.distributed.shm.SharedGraphBuffer` segment by default
  (``shm=True``; a few-hundred-byte descriptor per worker instead of a
  per-worker array pickle), the path of a store-backed graph's mmap
  :class:`~repro.graph.store.GraphStore`, or a pickled array payload
  with ``shm=False``. Every task trains on the whole graph, so every
  worker holds all of it. The queue runs on the shared cluster runtime
  (:mod:`~repro.distributed.cluster`), so its workers can live on this
  host (``transport="pipe"``) or on other machines (``transport="tcp"`` +
  ``nodes=["host:port", ...]`` pointing at
  ``python -m repro cluster start-worker`` instances).

Both paths share a retry loop: a faulted attempt (injected via
:class:`~repro.distributed.faults.FaultPlan`, or a worker process dying
under ``"process"``) is retried up to ``max_retries`` times rather than
poisoning the pool. With a ``checkpoint_dir``, every completed ingredient
is persisted immediately, ``checkpoint_every=N`` additionally snapshots
each in-flight ingredient every N epochs, and ``resume=True`` skips
finished tasks and restarts interrupted ones from their last epoch
snapshot (see :mod:`~repro.distributed.checkpoint`).

The measured per-ingredient durations feed the
:class:`~repro.distributed.scheduler.WorkerPoolSimulator`, which reports
the makespan an actual W-worker cluster would achieve (Eq. 1/2).
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..graph.graph import Graph
from ..models import build_model
from ..nn import Module
from ..telemetry import build_report, metrics
from ..train import TrainConfig, TrainResult, train_model
from .checkpoint import CheckpointStore, run_fingerprint
from .cluster import TRANSPORTS, WorkerLossError, WorkerRole, open_service, parse_nodes
from .faults import FaultPlan, SimulatedWorkerFault
from .scheduler import TaskSchedule, WorkerPoolSimulator, _validate_num_workers
from .shm import attach_graph_ref

__all__ = [
    "EXECUTORS",
    "QUEUES",
    "TRANSPORTS",
    "IngredientPool",
    "IngredientTask",
    "IngredientTrainingError",
    "train_ingredients",
]

#: Executor names accepted by :func:`train_ingredients`.
EXECUTORS = ("serial", "process")

#: Queue disciplines accepted by :func:`train_ingredients` (only the
#: paper's shared dynamic queue).
QUEUES = ("dynamic",)


class IngredientTrainingError(RuntimeError):
    """A task kept failing after exhausting its retry budget."""


@dataclass
class IngredientPool:
    """Trained ingredients plus everything souping needs to use them.

    Attributes
    ----------
    model_config:
        Kwargs for :func:`repro.models.build_model`; every souping method
        instantiates its working model from this (all ingredients share
        the architecture, per the soup prerequisite).
    states:
        One state dict per ingredient (best-val epoch of each run).
    """

    model_config: dict
    states: list[dict]
    val_accs: list[float]
    test_accs: list[float]
    train_times: list[float]
    graph_name: str = ""
    schedule: TaskSchedule | None = field(default=None, repr=False)
    # RunReport dict of the producing run when telemetry was enabled;
    # excluded from pool caches (see cli save/load) like the schedule
    telemetry: dict | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        n = len(self.states)
        if not (len(self.val_accs) == len(self.test_accs) == len(self.train_times) == n):
            raise ValueError("per-ingredient lists must have equal length")
        if n == 0:
            raise ValueError("pool must contain at least one ingredient")

    def __len__(self) -> int:
        return len(self.states)

    def make_model(self) -> Module:
        """Fresh model instance with the pool's (shared-init) architecture."""
        return build_model(**self.model_config)

    def order_by_val(self) -> np.ndarray:
        """Ingredient indices sorted by validation accuracy, best first."""
        return np.argsort(-np.asarray(self.val_accs), kind="stable")

    @property
    def best_index(self) -> int:
        """Index of the highest-validation-accuracy ingredient."""
        return int(self.order_by_val()[0])

    def param_names(self) -> list[str]:
        """Parameter names shared by every ingredient state dict."""
        return list(self.states[0].keys())

    def stacked_params(self) -> dict[str, np.ndarray]:
        """``name -> [N, *shape]`` stacks (the LS working representation)."""
        names = self.param_names()
        return {name: np.stack([sd[name] for sd in self.states]) for name in names}

    def state_nbytes(self) -> int:
        """Total bytes of all ingredient state dicts."""
        return sum(v.nbytes for sd in self.states for v in sd.values())

    def subset(self, indices) -> "IngredientPool":
        """A new pool holding only the chosen ingredients (same config)."""
        indices = list(indices)
        return IngredientPool(
            model_config=self.model_config,
            states=[self.states[i] for i in indices],
            val_accs=[self.val_accs[i] for i in indices],
            test_accs=[self.test_accs[i] for i in indices],
            train_times=[self.train_times[i] for i in indices],
            graph_name=self.graph_name,
        )


# ---------------------------------------------------------------------------
# task spec and worker entry points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IngredientTask:
    """Picklable spec of one ingredient-training task.

    Carries only plain data (config dicts, seeds) — the worker rebuilds
    both the shared-init model (``model_config`` embeds the init seed) and
    the graph locally, so nothing live crosses the process boundary.

    ``fail_attempts``/``kill``/``fault_after_epochs`` are the
    fault-injection knobs: the task's first ``fail_attempts`` attempts die
    — by raising :class:`SimulatedWorkerFault`, or by hard-killing the
    worker process when ``kill=True`` and the task runs in a pool worker —
    either at task pickup, or after ``fault_after_epochs`` completed
    epochs when that is positive (a mid-ingredient death).
    """

    index: int
    model_config: dict
    train_cfg: TrainConfig
    seed: int
    fail_attempts: int = 0
    kill: bool = False
    fault_after_epochs: int = 0


def _run_task(
    task: IngredientTask,
    graph: Graph,
    inject: bool,
    store: CheckpointStore | None = None,
    checkpoint_every: int = 0,
    allow_epoch_resume: bool = False,
) -> TrainResult:
    """Execute one attempt of a task: rebuild the shared-init replica from
    the config seed, train it under the task seed.

    Faults fire at task pickup, or — with ``fault_after_epochs`` — at that
    epoch boundary, *after* the boundary's checkpoint write, so a
    mid-ingredient death always leaves its latest snapshot behind. With
    ``allow_epoch_resume`` the attempt continues from the task's stored
    epoch snapshot (fingerprint-guarded) instead of starting at epoch 1.
    """
    # _WORKER_GRAPH is set only by the worker role init (_role_init), so this
    # discriminates "I am a pool worker" (hard-kill is safe) from any
    # other process — including a training driver that itself runs
    # inside a multiprocessing child, which must never be exited
    in_pool_worker = _WORKER_GRAPH is not None
    if inject and task.fault_after_epochs <= 0:
        if task.kill and in_pool_worker:
            os._exit(43)  # fail-stop: no exception, no cleanup — a dead rank
        raise SimulatedWorkerFault(f"task {task.index} attempt killed by fault plan")

    epoch_state = None
    if store is not None and allow_epoch_resume:
        epoch_state = store.load_epoch(task.index)

    on_epoch_end = None
    if (store is not None and checkpoint_every > 0) or (inject and task.fault_after_epochs > 0):

        def on_epoch_end(epoch, snapshot):
            if store is not None and checkpoint_every > 0 and epoch % checkpoint_every == 0:
                store.save_epoch(task.index, snapshot())
            # >= not ==: an attempt resumed from a snapshot taken at or
            # past the fault epoch must still die on its first boundary,
            # or planned faults beyond the first would silently evaporate
            if inject and epoch >= task.fault_after_epochs:
                if task.kill and in_pool_worker:
                    os._exit(43)
                raise SimulatedWorkerFault(
                    f"task {task.index} attempt killed after epoch {epoch} by fault plan"
                )

    model = build_model(**task.model_config)
    return train_model(
        model,
        graph,
        task.train_cfg,
        seed=task.seed,
        epoch_state=epoch_state,
        on_epoch_end=on_epoch_end,
    )


# Worker-process state, populated once per worker by _role_init:
# the graph arrives once per worker through its ref instead of once per
# task (it dominates task payload size), and the checkpoint handle is
# opened without the stale-tmp sweep (the driver swept).
_WORKER_GRAPH: Graph | None = None
_WORKER_SHM = None  # keeps the shared segment mapped for _WORKER_GRAPH's views
_WORKER_STORE: CheckpointStore | None = None
_WORKER_CKPT_EVERY: int = 0


def _role_init(context: dict) -> None:
    """Cluster-role init: populate the per-worker globals from the shipped
    context (the graph through its ref; optional checkpoint handle)."""
    global _WORKER_GRAPH, _WORKER_SHM, _WORKER_STORE, _WORKER_CKPT_EVERY
    _WORKER_GRAPH, _WORKER_SHM = attach_graph_ref(context["graph_ref"])
    store_args = context.get("store_args")
    _WORKER_STORE = (
        CheckpointStore(
            store_args[0], store_args[1], sweep_stale=False, keep_epochs=store_args[2]
        )
        if store_args
        else None
    )
    _WORKER_CKPT_EVERY = int(context.get("checkpoint_every", 0))


def _role_run(_state, payload) -> TrainResult:
    task, inject, allow_epoch_resume = payload
    return _run_task(
        task, _WORKER_GRAPH, inject, _WORKER_STORE, _WORKER_CKPT_EVERY, allow_epoch_resume
    )


#: The Phase-1 worker role on the shared cluster runtime: resolved by
#: name ("ingredients") so tcp workers on other hosts find the same code
#: path; SimulatedWorkerFault reports as a retryable ``fault``.
INGREDIENT_ROLE = WorkerRole(
    name="ingredients",
    init=_role_init,
    run=_role_run,
    fault_types=(SimulatedWorkerFault,),
)


# ---------------------------------------------------------------------------
# the shared dynamic task queue
# ---------------------------------------------------------------------------


def _serial_dynamic(pending, graph, max_retries, attempts, faults_left, on_done, store, checkpoint_every, resume):
    """In-process realisation of the shared queue: one worker, FIFO with
    failed tasks re-entering at the back (matching the simulators)."""
    results, exhausted = {}, []
    queue = deque(pending)
    while queue:
        task = queue.popleft()
        attempts[task.index] += 1
        inject = faults_left[task.index] > 0
        allow = resume or (attempts[task.index] > 1 and checkpoint_every > 0)
        try:
            result = _run_task(task, graph, inject, store, checkpoint_every, allow)
        except SimulatedWorkerFault:
            faults_left[task.index] -= 1
            if attempts[task.index] > max_retries:
                exhausted.append(task.index)
            else:
                queue.append(task)
        else:
            on_done(task, result)
            results[task.index] = result
    return results, sorted(exhausted)


def _process_dynamic(
    pending, graph, num_workers, max_retries, store, attempts, faults_left,
    on_done, shm, checkpoint_every, resume, transport, nodes,
):
    """Work-stealing worker pool on the shared cluster runtime.

    Workers are persistent and receive the graph once, at their handshake
    (:func:`~repro.distributed.cluster.open_service` picks how). Each pulls
    the next spec the moment it finishes the last, so stragglers never
    idle the rest of the pool and a retried task rides along with the
    still-draining queue. A worker that hard-dies (kill fault) costs
    exactly one worker: its claimed task re-enters the queue and — where
    the transport owns its workers — a replacement process is spawned,
    while every other worker keeps its warm graph attachment.

    All protocol mechanics (claim/done bookkeeping, lost-task recovery,
    respawn budget, backlog feeding) live in
    :class:`~repro.distributed.cluster.ClusterService`; this wrapper only
    supplies the Phase-1 semantics: per-attempt inject/resume flags, the
    fault-budget accounting, and checkpoint handles for the workers that
    share the driver's host (a remote worker snapshots nothing; the
    driver still persists every *finished* ingredient it receives back).

    Fault-budget accounting: an exception fault consumes budget when the
    worker reports it; a kill fault's budget is consumed when its claimed
    attempt dies with the worker. A collateral loss of a task with no
    fault armed consumes nothing, so its planned faults still fire on
    later attempts.
    """
    tasks_by_index = {task.index: task for task in pending}
    current_inject: dict[int, bool] = {}

    def payload(index: int, attempt: int):
        task = tasks_by_index[index]
        attempts[index] = max(attempts.get(index, 0), attempt)
        inject = faults_left[index] > 0
        allow = resume or (attempt > 1 and checkpoint_every > 0)
        current_inject[index] = inject
        return (task, inject, allow)

    def service_on_done(index: int, result: TrainResult) -> None:
        on_done(tasks_by_index[index], result)

    def service_on_fault(index: int) -> None:
        faults_left[index] -= 1

    def service_on_lost(index: int) -> None:
        task = tasks_by_index[index]
        if current_inject.get(index) and task.kill:
            faults_left[index] -= 1  # the planned death fired

    store_args = (
        (str(store.directory.parent), store.fingerprint, store.keep_epochs)
        if store is not None
        else None
    )
    service = open_service(
        "ingredients",
        graph,
        {},
        width=min(num_workers, len(pending)),
        transport=transport,
        nodes=nodes,
        shm=shm,
        host_only={"store_args": store_args, "checkpoint_every": checkpoint_every},
    )
    try:
        return service.run(
            [task.index for task in pending],
            payload,
            max_attempts=max_retries + 1,
            on_done=service_on_done,
            on_fault=service_on_fault,
            on_lost=service_on_lost,
            label="task",
        )
    except WorkerLossError as exc:
        raise IngredientTrainingError(str(exc)) from exc
    finally:
        service.close()


def _execute_tasks(
    tasks: list[IngredientTask],
    graph: Graph,
    executor: str,
    num_workers: int,
    max_retries: int,
    store: CheckpointStore | None,
    shm: bool,
    checkpoint_every: int,
    resume: bool,
    transport: str = "pipe",
    nodes: list[tuple[str, int]] | None = None,
) -> dict[int, TrainResult]:
    """Run all tasks to completion with retries; returns results by index.

    Checkpointing happens the moment each task completes — a parent killed
    mid-run loses only in-flight work, never finished ingredients (and
    with ``checkpoint_every`` not even whole in-flight ingredients). The
    retry budget (``attempts``) counts every submitted attempt, including
    ones lost collaterally with a dead worker; the fault-injection budget
    (``faults_left``) counts only faults that actually fired.
    """
    if not tasks:
        return {}
    attempts = {task.index: 0 for task in tasks}
    faults_left = {task.index: task.fail_attempts for task in tasks}

    def on_done(task: IngredientTask, result: TrainResult) -> None:
        if store is not None:
            # persist the finished ingredient *before* dropping its rolling
            # epoch snapshot — clearing first would open a crash window
            # where neither checkpoint exists and resume retrains from
            # epoch 1
            store.save(task.index, result)
            store.clear_epoch(task.index)

    if executor == "serial":
        results, exhausted = _serial_dynamic(
            tasks, graph, max_retries, attempts, faults_left,
            on_done, store, checkpoint_every, resume,
        )
    else:
        results, exhausted = _process_dynamic(
            tasks, graph, num_workers, max_retries, store, attempts, faults_left,
            on_done, shm, checkpoint_every, resume, transport, nodes,
        )
    if exhausted:
        raise IngredientTrainingError(
            f"task(s) {sorted(exhausted)} still failing after {max_retries + 1} attempt(s)"
        )
    return results


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------


def train_ingredients(
    arch: str,
    graph: Graph,
    n_ingredients: int,
    train_cfg: TrainConfig | None = None,
    base_seed: int = 0,
    num_workers: int = 8,
    executor: str = "serial",
    queue: str = "dynamic",
    shm: bool = True,
    transport: str = "pipe",
    nodes=None,
    hidden_dim: int = 64,
    num_layers: int = 2,
    dropout: float = 0.5,
    num_heads: int = 4,
    attn_dropout: float = 0.0,
    epoch_jitter: int = 0,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int = 0,
    checkpoint_keep: int = 1,
    resume: bool = False,
    max_retries: int = 2,
    fault_plan: FaultPlan | dict[int, int] | None = None,
) -> IngredientPool:
    """Train ``n_ingredients`` independent replicas from one shared init.

    Parameters
    ----------
    num_workers:
        Cluster width W used for the makespan simulation (Eq. 1/2) and as
        the pool width for the ``"process"`` executor.
    executor:
        ``"serial"`` | ``"process"`` — identical ingredients for the same
        ``base_seed`` (the determinism contract).
    queue:
        Only ``"dynamic"``: workers pull from one shared task queue, so
        stragglers and retries never stall the pool.
    shm:
        Ship the graph to process workers through one
        ``multiprocessing.shared_memory`` segment (default) instead of a
        per-pool pickled payload; ignored by the serial executor and
        silently downgraded where shared memory is unavailable.
    transport:
        How the dynamic queue reaches its process workers: ``"pipe"``
        (default — workers forked/spawned on this host) or ``"tcp"``
        (socket workers that may live on other hosts). With ``"tcp"``
        and no ``nodes``, loopback workers are spawned locally — the
        single-host proof of the multi-node path. Requires
        ``executor="process"``.
    nodes:
        Remote worker addresses for the tcp transport — a
        ``"host:port,host:port"`` string or a sequence of specs, each a
        ``python -m repro cluster start-worker`` instance. When given,
        the cluster width is ``len(nodes)`` (``num_workers`` still sets
        the makespan-simulation W).
    epoch_jitter:
        Optional ± range on each ingredient's epoch budget (drawn from its
        task seed). The paper notes "variability in ingredient complexity
        may lead to load imbalances"; jitter reproduces that heterogeneity
        and also widens the ingredient-quality spread that informed soups
        exploit.
    checkpoint_dir:
        Directory for checkpoints; every completed ingredient is persisted
        immediately (atomic write).
    checkpoint_every:
        Additionally snapshot every in-flight ingredient's full training
        state every N epochs (0 disables), so an interrupted task resumes
        mid-ingredient instead of retraining from epoch 1. Requires
        ``checkpoint_dir``.
    checkpoint_keep:
        Epoch snapshots retained per ingredient (default 1: only the
        rolling latest). Values > 1 keep an epoch-stamped history as
        insurance against a torn final write; the store GCs any history
        beyond this budget on every open.
    resume:
        Skip tasks already checkpointed under ``checkpoint_dir`` by a run
        with the same fingerprint (config + graph + seeds), and restart
        interrupted tasks from their last epoch snapshot. Requires
        ``checkpoint_dir``.
    max_retries:
        Extra attempts granted per task after a faulted one; exceeding the
        budget raises :class:`IngredientTrainingError`.
    fault_plan:
        :class:`~repro.distributed.faults.FaultPlan` (or a plain
        ``{task_index: n_failing_attempts}`` mapping) injecting
        deterministic worker faults, at task pickup or — via
        ``after_epochs`` — mid-ingredient.
    """
    if n_ingredients < 1:
        raise ValueError("need at least one ingredient")
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; choose from {EXECUTORS}")
    if queue not in QUEUES:
        raise ValueError(f"unknown queue discipline {queue!r}; choose from {QUEUES}")
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}; choose from {TRANSPORTS}")
    nodes = parse_nodes(nodes)
    if nodes and transport != "tcp":
        raise ValueError("worker nodes require transport='tcp'")
    if transport == "tcp" and executor != "process":
        raise ValueError("transport='tcp' requires executor='process'")
    # validate up-front with the scheduler's strict rule — a bad worker
    # count must fail here, not after hours of training at the final
    # makespan simulation
    num_workers = _validate_num_workers(num_workers)
    if max_retries < 0:
        raise ValueError("max_retries cannot be negative")
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every cannot be negative")
    if checkpoint_keep < 1:
        raise ValueError("checkpoint_keep must be >= 1")
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires a checkpoint_dir")
    if checkpoint_every > 0 and checkpoint_dir is None:
        raise ValueError("checkpoint_every requires a checkpoint_dir")
    if fault_plan is None:
        plan = FaultPlan()
    elif isinstance(fault_plan, FaultPlan):
        plan = fault_plan
    else:
        plan = FaultPlan(failures=dict(fault_plan))

    cfg = train_cfg or TrainConfig()
    model_config = dict(
        arch=arch,
        in_dim=graph.feature_dim,
        out_dim=graph.num_classes,
        hidden_dim=hidden_dim,
        num_layers=num_layers,
        dropout=dropout,
        num_heads=num_heads,
        attn_dropout=attn_dropout,
        seed=base_seed,  # the shared initialisation seed
    )

    # task configs are fixed up-front (not scheduling-dependent)
    task_cfgs: list[TrainConfig] = []
    for i in range(n_ingredients):
        task_cfg = cfg
        if epoch_jitter:
            jitter_rng = np.random.default_rng(base_seed * 1_000_003 + i)
            delta = int(jitter_rng.integers(-epoch_jitter, epoch_jitter + 1))
            task_cfg = TrainConfig(**{**cfg.__dict__, "epochs": max(1, cfg.epochs + delta)})
        task_cfgs.append(task_cfg)
    seeds = [base_seed * 7_919 + 1 + i for i in range(n_ingredients)]
    tasks = [
        IngredientTask(
            index=i,
            model_config=model_config,
            train_cfg=task_cfgs[i],
            seed=seeds[i],
            fail_attempts=plan.fail_attempts(i),
            kill=plan.kill,
            fault_after_epochs=int(plan.after_epochs or 0),
        )
        for i in range(n_ingredients)
    ]

    store: CheckpointStore | None = None
    preloaded: dict[int, TrainResult] = {}
    if checkpoint_dir is not None:
        fingerprint = run_fingerprint(model_config, graph, task_cfgs, seeds)
        store = CheckpointStore(checkpoint_dir, fingerprint, keep_epochs=checkpoint_keep)
        if resume:
            preloaded = store.completed(n_ingredients)
            for index in preloaded:
                # a run killed between an ingredient's final save and its
                # snapshot cleanup leaves an orphan epoch file behind
                store.clear_epoch(index)

    todo = [task for task in tasks if task.index not in preloaded]
    trained = _execute_tasks(
        todo, graph, executor, num_workers, max_retries, store,
        shm, checkpoint_every, resume, transport, nodes,
    )
    results = [preloaded[i] if i in preloaded else trained[i] for i in range(n_ingredients)]

    durations = [r.train_time for r in results]
    schedule = WorkerPoolSimulator(num_workers).schedule(durations)
    return IngredientPool(
        model_config=model_config,
        states=[r.state_dict for r in results],
        val_accs=[r.val_acc for r in results],
        test_accs=[r.test_acc for r in results],
        train_times=durations,
        graph_name=graph.name,
        schedule=schedule,
        telemetry=(
            build_report(phase="ingredients", executor=executor, transport=transport).to_dict()
            if metrics.enabled
            else None
        ),
    )
