"""Phase-2 candidate-evaluation service: parallel scoring of soup candidates.

Phase 2 (souping) is dominated by repeated validation-set evaluations of
candidate state dicts — the greedy/GIS membership loops and the LS/PLS
restart selections all reduce to "score this mixed state on a node split".
Those evaluations are embarrassingly parallel (each is one inference pass
of an immutable candidate on an immutable graph), so this module provides
the multiprocess half of the shared evaluator that
:mod:`repro.soup.engine` exposes to every souping method.

Design, on the shared cluster runtime (:mod:`.cluster` — the same
claim/done worker service Phase-1 training runs on):

* **flat-state candidates** — almost every soup candidate is a linear
  combination of the ingredient pool, so a candidate crosses the process
  boundary as a tiny ``[N]`` (or ``[N, G]`` per-group) weight vector. The
  pool itself ships **once**, as a ``[N, D]`` stacked flat-state matrix in
  a :class:`~repro.distributed.shm.SharedPoolBuffer` segment; workers mix
  candidates zero-copy from views into it instead of unpickling N state
  dicts per task. Non-linear candidates (e.g. sparse soups) fall back to
  an explicit pickled state dict.
* **one graph-shipping path** — the evaluation graph reaches workers
  exactly like Phase-1 training graphs
  (:func:`~repro.distributed.cluster.open_service`).
* **pluggable transports** — ``transport="pipe"`` (default) spawns the
  worker pool on this host; ``transport="tcp"`` scores candidates on
  socket workers that may live on other machines (``nodes=["host:port",
  ...]`` pointing at ``python -m repro cluster start-worker`` instances,
  or driver-spawned loopback workers when no nodes are given). A tcp
  worker that cannot attach the driver's shared-memory segments — a
  genuinely remote node — receives the serialized graph + flat-state
  payload once at its handshake and mixes candidates from its own copy.
* **persistent workers, claim/done protocol** — the shared
  :class:`~repro.distributed.cluster.ClusterService` handles dispatch,
  worker-death recovery (evaluations are idempotent, so lost tasks are
  conservatively re-queued) and stale-message tolerance across batches.

Determinism contract: :func:`mix_candidate` is the *single* mixing kernel
used by every backend (serial, thread, process × transport), and
worker-side flat stacks are bit-exact float64 copies of the driver's, so
a candidate's mixed state — and therefore its accuracy — is bit-identical
wherever it is evaluated.
"""

from __future__ import annotations

import struct
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..graph.graph import Graph
from ..models import build_model
from ..telemetry import metrics
from ..train import accuracy, evaluate_logits, evaluate_rows
from .cluster import WorkerLossError, WorkerRole, open_service
from . import wire
from .scheduler import _validate_num_workers
from .shm import attach_graph_ref, attach_pool_ref

__all__ = [
    "EVAL_KINDS",
    "EvalServiceError",
    "EvalTask",
    "EvalService",
    "mix_candidate",
    "score_candidate",
    "stack_flat_states",
]

#: Adaptive-batching bounds: a chunk targets this much estimated worker
#: time (big enough to amortize a dispatch round trip, small enough that
#: lost-task recovery never re-runs more than one chunk) and never exceeds
#: this many candidates.
BATCH_TARGET_SECONDS = 0.05
MAX_EVAL_BATCH = 64

#: Histogram buckets for the ``eval.batch_size`` metric.
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Result kinds a task may request.
EVAL_KINDS = ("acc", "logits")

#: Named node splits a task may score on.
SPLITS = ("train", "val", "test")


class EvalServiceError(RuntimeError):
    """The evaluation service lost workers without making progress."""


@dataclass(frozen=True)
class EvalTask:
    """Picklable spec of one candidate evaluation.

    Exactly one of ``weights`` (a mix over the shipped flat-state stack)
    or ``state`` (an explicit ``(name, array)`` state tuple) is set.
    ``split``/``indices`` select the nodes scored; ``kind`` chooses the
    result: the scalar accuracy, or the logits at those nodes (full-graph
    logits when neither is given).
    """

    req_id: int = 0
    weights: np.ndarray | None = None
    groups: np.ndarray | None = None  # per-parameter group ids for [N, G] weights
    state: tuple | None = None  # ((name, ndarray), ...) explicit candidate
    split: str | None = "val"
    indices: np.ndarray | None = None
    kind: str = "acc"


# ---------------------------------------------------------------------------
# wire codec: weight-vector tasks are the Phase-2 hot messages
# ---------------------------------------------------------------------------

_I64 = struct.Struct(">q")
_U32 = struct.Struct(">I")


def _pack_eval_task(out: bytearray, task: EvalTask) -> bool:
    """Append one weight-vector :class:`EvalTask` (``state`` must be None)."""
    out += _I64.pack(task.req_id)
    if not wire.pack_optional_array(out, task.weights):
        return False
    if not wire.pack_optional_array(out, task.groups):
        return False
    if task.split is None:
        out += b"\x00"
    else:
        out += b"\x01"
        wire.pack_str(out, task.split)
    if not wire.pack_optional_array(out, task.indices):
        return False
    wire.pack_str(out, task.kind)
    return True


def _unpack_eval_task(mv: memoryview, pos: int) -> tuple[EvalTask, int]:
    if pos + 8 > len(mv):
        raise wire.WireFormatError("truncated eval task")
    (req_id,) = _I64.unpack_from(mv, pos)
    pos += 8
    weights, pos = wire.unpack_optional_array(mv, pos)
    groups, pos = wire.unpack_optional_array(mv, pos)
    if pos >= len(mv):
        raise wire.WireFormatError("truncated eval task split")
    flag = mv[pos]
    pos += 1
    if flag == 1:
        split, pos = wire.unpack_str(mv, pos)
    elif flag == 0:
        split = None
    else:
        raise wire.WireFormatError(f"bad split flag {flag}")
    indices, pos = wire.unpack_optional_array(mv, pos)
    kind, pos = wire.unpack_str(mv, pos)
    task = EvalTask(
        req_id=req_id, weights=weights, groups=groups, state=None,
        split=split, indices=indices, kind=kind,
    )
    return task, pos


def _match_eval_task(payload) -> bool:
    return type(payload) is EvalTask and payload.state is None


def _match_eval_batch(payload) -> bool:
    return (
        type(payload) is tuple
        and bool(payload)
        and all(type(t) is EvalTask and t.state is None for t in payload)
    )


def _encode_eval_batch(out: bytearray, payload: tuple) -> bool:
    out += _U32.pack(len(payload))
    for task in payload:
        if not _pack_eval_task(out, task):
            return False
    return True


def _decode_eval_batch(mv: memoryview, pos: int) -> tuple[tuple, int]:
    if pos + 4 > len(mv):
        raise wire.WireFormatError("truncated eval batch")
    (n,) = _U32.unpack_from(mv, pos)
    pos += 4
    tasks = []
    for _ in range(n):
        task, pos = _unpack_eval_task(mv, pos)
        tasks.append(task)
    return tuple(tasks), pos


wire.register_task_payload(b"T", _match_eval_task, _pack_eval_task, _unpack_eval_task)
wire.register_task_payload(b"U", _match_eval_batch, _encode_eval_batch, _decode_eval_batch)


def stack_flat_states(states: list[dict]) -> tuple[np.ndarray, tuple[tuple[str, tuple[int, ...]], ...]]:
    """``([N, D] float64 stack, ((name, shape), ...))`` of a pool's states.

    Row ``i`` is ingredient ``i``'s parameters flattened in state-dict
    order — the working representation both the shared-memory transport
    and :func:`mix_candidate` operate on.
    """
    if not states:
        raise ValueError("cannot stack zero states")
    names = list(states[0].keys())
    params = tuple(
        (str(name), tuple(int(s) for s in np.asarray(states[0][name]).shape)) for name in names
    )
    flats = np.stack(
        [
            np.concatenate(
                [np.ascontiguousarray(sd[name], dtype=np.float64).ravel() for name in names]
            )
            for sd in states
        ]
    )
    return flats, params


def mix_candidate(
    flats: np.ndarray,
    params: tuple[tuple[str, tuple[int, ...]], ...],
    weights: np.ndarray,
    groups: np.ndarray | None = None,
) -> "OrderedDict[str, np.ndarray]":
    """Materialise a candidate state dict from the flat-state stack.

    ``weights`` is either ``[N]`` (one scalar per ingredient — Eq. (3)
    with a single group) or ``[N, G]`` paired with ``groups``, the
    per-parameter group-id vector (``len(params)`` entries), in which case
    each parameter's slice is mixed with its group's weight column.

    This is the one mixing kernel shared by every evaluator backend — the
    determinism contract across serial/thread/process rides on it.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n, total = flats.shape
    if weights.ndim == 1:
        if weights.shape[0] != n:
            raise ValueError(f"weights length {weights.shape[0]} != pool size {n}")
        vec = weights @ flats
    elif weights.ndim == 2:
        if groups is None:
            raise ValueError("[N, G] weights need the per-parameter groups vector")
        groups = np.asarray(groups, dtype=np.int64)
        if weights.shape[0] != n:
            raise ValueError(f"weights rows {weights.shape[0]} != pool size {n}")
        if len(groups) != len(params):
            raise ValueError(f"groups length {len(groups)} != parameter count {len(params)}")
        vec = np.empty(total, dtype=np.float64)
        offset = 0
        for (_name, shape), g in zip(params, groups):
            size = int(np.prod(shape, dtype=np.int64)) if shape else 1
            vec[offset : offset + size] = weights[:, int(g)] @ flats[:, offset : offset + size]
            offset += size
    else:
        raise ValueError(f"weights must be [N] or [N, G], got ndim={weights.ndim}")

    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    offset = 0
    for name, shape in params:
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        out[name] = vec[offset : offset + size].reshape(shape)
        offset += size
    if offset != total:
        raise ValueError(f"parameter spec covers {offset} values, stack rows hold {total}")
    return out


def score_candidate(
    model,
    graph: Graph,
    state: dict,
    split: str | None = "val",
    indices: np.ndarray | None = None,
    kind: str = "acc",
):
    """Load ``state`` into ``model`` and score it on one node selection.

    ``kind="acc"`` returns the accuracy at ``indices`` (or the named
    ``split``); ``kind="logits"`` returns the logits there — the full
    logits matrix when neither is given. A node selection is scored on
    its layered blocks (:func:`~repro.train.evaluate_rows`), which compute
    only the rows the selection depends on and give the full pass's bits.
    The model is owned by the evaluator, so no caller-visible state is
    mutated.
    """
    if kind not in EVAL_KINDS:
        raise ValueError(f"unknown eval kind {kind!r}; choose from {EVAL_KINDS}")
    if indices is not None:
        idx = np.asarray(indices)
    elif split is not None:
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}; choose from {SPLITS}")
        idx = {"train": graph.train_idx, "val": graph.val_idx, "test": graph.test_idx}[split]
    elif kind == "logits":
        model.load_state_dict(state)
        return evaluate_logits(model, graph)
    else:
        raise ValueError("accuracy scoring needs a split or an indices array")
    model.load_state_dict(state)
    logits = evaluate_rows(model, graph, idx)
    if kind == "logits":
        return logits
    return accuracy(logits, graph.labels[idx])


# ---------------------------------------------------------------------------
# worker role
# ---------------------------------------------------------------------------


class _EvalWorkerState:
    """Per-worker state: the attached graph + flat stack and a model.

    Keeps the shared-memory attachment handles alive for as long as the
    worker uses their views (the arrays borrow the segment's buffer).
    """

    __slots__ = ("graph", "flats", "params", "model", "_attachments")

    def __init__(self, graph, flats, params, model, attachments) -> None:
        self.graph = graph
        self.flats = flats
        self.params = params
        self.model = model
        self._attachments = attachments


def _eval_role_init(context: dict) -> _EvalWorkerState:
    """Attach the graph and the flat-state stack through their refs and
    build the working model."""
    graph, graph_handle = attach_graph_ref(context["graph_ref"])
    flats, params, pool_handle = attach_pool_ref(context["pool_ref"])
    model = build_model(**context["model_config"])
    return _EvalWorkerState(graph, flats, params, model, (graph_handle, pool_handle))


def _eval_one(state: _EvalWorkerState, task: EvalTask):
    if task.state is not None:
        candidate = dict(task.state)
    else:
        candidate = mix_candidate(state.flats, state.params, task.weights, task.groups)
    return score_candidate(
        state.model, state.graph, candidate, task.split, task.indices, task.kind
    )


def _eval_role_run(state: _EvalWorkerState, task):
    """Score one :class:`EvalTask` — or a tuple/list of them (a batch).

    Batched payloads come from the driver's adaptive batcher; the reply is
    a list of per-task scores in payload order, which rides the scalar-list
    wire frame instead of N single-scalar round trips.
    """
    if isinstance(task, (tuple, list)):
        return [_eval_one(state, t) for t in task]
    return _eval_one(state, task)


#: The Phase-2 worker role on the shared cluster runtime, resolved by
#: name ("eval") so tcp workers on other hosts find the same code path.
EVAL_ROLE = WorkerRole(name="eval", init=_eval_role_init, run=_eval_role_run)


# ---------------------------------------------------------------------------
# driver-side service
# ---------------------------------------------------------------------------


class _AdaptiveBatcher:
    """Pick an eval-chunk size from an EMA of per-task wall time.

    Timing only chooses how many *contiguous* tasks share a wire frame; it
    never reorders tasks, feeds any RNG, or changes what a worker computes,
    so results stay bit-identical for every chunk size (see
    ``tests/test_eval_service.py``). The first round after construction is
    a probe (size 1) to seed the estimate.
    """

    def __init__(self, width: int) -> None:
        self._width = max(1, int(width))
        self._ema: float | None = None

    def chunk_size(self, n_tasks: int) -> int:
        """Chunk size for a batch of ``n_tasks`` pending evaluations."""
        if n_tasks <= self._width or self._ema is None:
            return 1  # enough parallelism already, or still probing
        size = int(round(BATCH_TARGET_SECONDS / max(self._ema, 1e-9)))
        ceiling = min(MAX_EVAL_BATCH, -(-n_tasks // self._width))
        return max(1, min(size, ceiling))

    def observe(self, n_tasks: int, elapsed: float) -> None:
        """Fold one dispatch round's wall time into the per-task estimate."""
        if n_tasks <= 0 or elapsed <= 0.0:
            return
        # The round runs ~width chunks concurrently, so per-task time is
        # elapsed scaled by the achieved parallelism, not raw elapsed / n.
        per = elapsed * min(self._width, n_tasks) / n_tasks
        self._ema = per if self._ema is None else 0.5 * self._ema + 0.5 * per


class EvalService:
    """Persistent pool of candidate-evaluation workers.

    One service is created per (pool, graph) pair and reused across every
    batch — and, via the shared evaluator, across every souping method of
    an experiment cell. ``run`` dispatches one batch of tasks and returns
    results in request order. All worker-protocol mechanics (claim/done
    bookkeeping, death detection, lost-task recovery, respawn budgets,
    stale-message tolerance across batches) are the shared
    :class:`~repro.distributed.cluster.ClusterService`'s, and the graph
    and pool ship through :func:`~repro.distributed.cluster.open_service`;
    this wrapper owns only the Phase-2 payloads and their batching.
    """

    def __init__(
        self,
        model_config: dict,
        graph: Graph,
        flats: np.ndarray,
        params: tuple[tuple[str, tuple[int, ...]], ...],
        num_workers: int = 4,
        shm: bool = True,
        transport: str = "pipe",
        nodes=None,
        eval_batch="adaptive",
    ) -> None:
        num_workers = _validate_num_workers(num_workers)
        if eval_batch != "adaptive":
            if not isinstance(eval_batch, int) or isinstance(eval_batch, bool) or eval_batch < 1:
                raise ValueError(
                    f"eval_batch must be 'adaptive' or an int >= 1, got {eval_batch!r}"
                )
        self._eval_batch = eval_batch
        self._service = open_service(
            "eval",
            graph,
            {"model_config": dict(model_config)},
            width=num_workers,
            transport=transport,
            nodes=nodes,
            shm=shm,
            pool=(flats, params),
        )
        self.num_workers = self._service.width
        self._batcher = _AdaptiveBatcher(self.num_workers)
        self._closed = False
        self._service.start()

    # -- batch dispatch ------------------------------------------------------

    def run(self, tasks: list[EvalTask]) -> list:
        """Evaluate one batch; results come back in request order.

        Evaluations are idempotent and results are keyed by
        service-unique request ids, so the cluster core's lost-task
        recovery (re-queue everything a dead worker may have swallowed)
        wastes at most a forward pass, never correctness — and messages
        left over from an earlier aborted batch are recognised as stale
        and dropped instead of being mis-recorded as this batch's
        results.
        """
        if self._closed:
            raise RuntimeError("evaluation service is closed")
        tasks = list(tasks)
        if not tasks:
            return []
        if self._eval_batch == "adaptive":
            size = self._batcher.chunk_size(len(tasks))
        else:
            size = self._eval_batch
        chunks: list[tuple[EvalTask, ...]] = [
            tuple(tasks[i : i + size]) for i in range(0, len(tasks), size)
        ]
        metrics.observe("eval.batch_size", float(size), buckets=_BATCH_BUCKETS)
        start = time.perf_counter()
        try:
            results, _exhausted = self._service.run(
                list(range(len(chunks))),
                lambda key, _attempt: chunks[key] if len(chunks[key]) > 1 else chunks[key][0],
                max_attempts=None,  # only worker death re-queues; never exhausts
                label="evaluation task",
            )
        except WorkerLossError as exc:
            raise EvalServiceError(str(exc)) from exc
        if self._eval_batch == "adaptive":
            self._batcher.observe(len(tasks), time.perf_counter() - start)
        flat: list = []
        for i, chunk in enumerate(chunks):
            res = results[i]
            flat.extend(res if len(chunk) > 1 else [res])
        return flat

    # -- shutdown ------------------------------------------------------------

    def close(self) -> None:
        """Stop the workers and release the shared segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._service.close()

    def __enter__(self) -> "EvalService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
