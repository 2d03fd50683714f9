"""Zero-communication worker-pool scheduling (Phase 1 of the paper).

§III-A: N ingredients are trained on W workers with **no inter-worker
communication**; when ``N > W`` a dynamic shared task queue keeps workers
busy, and the paper approximates the makespan as

    T_total ≈ (N / W) · T_single                      (Eq. 1)

with the ideal ``N ≤ W`` case

    T_min = max_i T_single_i                          (Eq. 2)

The paper's testbed realises this on 8 A100 GPUs; this module realises the
identical scheduling semantics as a deterministic **list scheduler** (jobs
pulled from the queue by the earliest-free worker), so the schedule,
makespan, idle time and both equations are measurable exactly. The actual
training computation runs through :mod:`repro.distributed.ingredients`,
serially or on a process pool.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

__all__ = ["TaskSchedule", "WorkerPoolSimulator", "eq1_estimate", "eq2_min_time"]


def _validate_num_workers(num_workers) -> int:
    """A worker count must be an integral value >= 1 (a ``2.5``-worker
    cluster or a boolean would silently misbehave downstream)."""
    if isinstance(num_workers, bool) or not isinstance(num_workers, (int, np.integer)):
        raise ValueError(f"num_workers must be an integer, got {num_workers!r}")
    if num_workers < 1:
        raise ValueError("need at least one worker")
    return int(num_workers)


def _validate_durations(durations) -> np.ndarray:
    """Durations must be a non-empty 1-D sequence of finite values >= 0.

    NaN would otherwise propagate through the heap comparisons and produce
    a garbage (not an error) schedule; an empty input would previously hit
    numpy identities like ``max([]) -> error`` far from the caller.
    """
    durations = np.asarray(durations, dtype=np.float64)
    if durations.ndim != 1 or len(durations) == 0:
        raise ValueError("durations must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(durations)):
        raise ValueError("durations must be finite (no NaN/inf)")
    if np.any(durations < 0):
        raise ValueError("durations must be non-negative")
    return durations


@dataclass(frozen=True)
class TaskSchedule:
    """Result of list-scheduling N task durations onto W workers."""

    num_workers: int
    durations: np.ndarray  # [N] seconds
    worker_of_task: np.ndarray  # [N] worker index
    start_times: np.ndarray  # [N]
    end_times: np.ndarray  # [N]
    makespan: float
    worker_busy: np.ndarray = field(repr=False, default=None)  # [W] busy seconds

    @property
    def total_work(self) -> float:
        """Sum of all task durations (useful worker-seconds)."""
        return float(self.durations.sum())

    @property
    def utilization(self) -> float:
        """Fraction of worker-seconds spent busy (1.0 == perfect packing)."""
        denom = self.makespan * self.num_workers
        return self.total_work / denom if denom > 0 else 1.0

    @property
    def idle_time(self) -> float:
        """Worker-seconds spent idle before the makespan."""
        return self.makespan * self.num_workers - self.total_work


class WorkerPoolSimulator:
    """Deterministic dynamic-queue list scheduler.

    Tasks are dequeued in submission order; each goes to the worker that
    frees up first (ties broken by worker id) — the behaviour of the
    paper's "shared task queue" with workers immediately pulling the next
    available ingredient.
    """

    def __init__(self, num_workers: int) -> None:
        self.num_workers = _validate_num_workers(num_workers)

    def schedule(self, durations) -> TaskSchedule:
        """List-schedule ``durations`` onto the pool; returns the full
        :class:`TaskSchedule` (assignment, start/end times, makespan)."""
        durations = _validate_durations(durations)
        n = len(durations)
        heap: list[tuple[float, int]] = [(0.0, w) for w in range(self.num_workers)]
        heapq.heapify(heap)
        worker_of_task = np.empty(n, dtype=np.int64)
        start = np.empty(n)
        end = np.empty(n)
        busy = np.zeros(self.num_workers)
        for i, dur in enumerate(durations):
            free_at, worker = heapq.heappop(heap)
            worker_of_task[i] = worker
            start[i] = free_at
            end[i] = free_at + dur
            busy[worker] += dur
            heapq.heappush(heap, (end[i], worker))
        return TaskSchedule(
            num_workers=self.num_workers,
            durations=durations,
            worker_of_task=worker_of_task,
            start_times=start,
            end_times=end,
            makespan=float(end.max()),
            worker_busy=busy,
        )


def eq1_estimate(n_ingredients: int, num_workers: int, t_single: float) -> float:
    """Paper Eq. (1): ``T_total ≈ (N / W) · T_single``."""
    if n_ingredients < 1:
        raise ValueError("N must be positive")
    num_workers = _validate_num_workers(num_workers)
    t_single = float(t_single)
    if not np.isfinite(t_single) or t_single < 0:
        raise ValueError("t_single must be finite and non-negative")
    return (n_ingredients / num_workers) * t_single


def eq2_min_time(durations) -> float:
    """Paper Eq. (2): with N <= W the makespan is the slowest ingredient."""
    return float(_validate_durations(durations).max())
