"""Prefetching minibatch pipeline: overlap neighbour sampling with compute.

The inline minibatch path samples each subgraph synchronously between
optimizer steps, so the trainer sits idle for every ``khop_subgraph`` +
``graph.subgraph`` call. :class:`PrefetchPipeline` moves sampling onto
background threads: a pool of workers draws batches ahead of the consumer
into a bounded reorder buffer, and the consumer receives them strictly in
batch-index order regardless of completion order.

Threads (not processes) are the right tool here because the sampling hot
path — fancy-indexed gathers, ``np.unique``, CSR slicing — runs inside
NumPy, which releases the GIL, as do the BLAS matmuls on the training
side. Sampling therefore genuinely overlaps compute without any
serialisation cost.

Determinism: the pipeline requires a seeded-mode
:class:`~repro.graph.sampling.NeighborSampler`, whose ``sample(epoch, i)``
is a pure function of ``(seed, epoch, i)``. Combined with in-order
delivery, training results are bit-identical at any ``prefetch_depth`` ×
``num_workers``, including the synchronous ``prefetch_depth=0`` path.

Bounded lookahead: a worker acquires one of ``prefetch_depth`` slots
*before* claiming a task, so buffered-plus-in-flight batches never exceed
the configured depth (sampled subgraphs are the dominant transient
memory, which matters for store-backed out-of-core training).

Telemetry (when :data:`repro.telemetry.metrics` is enabled):

* ``pipeline.queue_depth`` gauge — ready batches in the reorder buffer
* ``pipeline.sample_s`` histogram + ``pipeline.sample`` span per batch
* ``pipeline.producer_stall_s`` — time workers wait for a free slot
* ``pipeline.consumer_stall_s`` — time the trainer waits for the next batch
"""

from __future__ import annotations

import threading
import time
from collections import deque

from ..graph.sampling import NeighborSampler
from ..telemetry import metrics

__all__ = ["PrefetchPipeline"]


class PrefetchPipeline:
    """Background neighbour-sampling ahead of the training loop.

    Parameters
    ----------
    sampler:
        A seeded-mode :class:`NeighborSampler` (``seed=`` constructor
        argument); shared-stream samplers are rejected because concurrent
        draws would race on the generator state.
    prefetch_depth:
        Maximum sampled-but-unconsumed batches (buffered + in flight).
        ``0`` disables the background threads entirely and samples inline.
    num_workers:
        Sampler threads. Effective parallelism is
        ``min(num_workers, prefetch_depth)``.
    """

    def __init__(self, sampler: NeighborSampler, prefetch_depth: int = 0, num_workers: int = 1) -> None:
        if prefetch_depth < 0:
            raise ValueError("prefetch_depth must be >= 0")
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if prefetch_depth > 0 and sampler.seed is None:
            raise ValueError("prefetching requires a seeded-mode NeighborSampler (seed=)")
        self.sampler = sampler
        self.prefetch_depth = prefetch_depth
        self.num_workers = min(num_workers, prefetch_depth) if prefetch_depth > 0 else 0
        self._cond = threading.Condition()
        self._tasks: deque[tuple[int, int]] = deque()
        self._results: dict[tuple[int, int], tuple] = {}
        self._slots = threading.Semaphore(prefetch_depth)
        self._error: BaseException | None = None
        self._stop = False
        self._threads: list[threading.Thread] = []

    # -- worker side -------------------------------------------------------

    def _worker(self) -> None:
        while True:
            t0 = time.perf_counter() if metrics.enabled else 0.0
            self._slots.acquire()  # bound lookahead *before* claiming a task
            if metrics.enabled:
                metrics.observe("pipeline.producer_stall_s", time.perf_counter() - t0)
            with self._cond:
                while not self._tasks and not self._stop:
                    self._cond.wait()
                if self._stop:
                    return
                key = self._tasks.popleft()
            try:
                with metrics.span("pipeline.sample", epoch=key[0], batch=key[1]):
                    s0 = time.perf_counter()
                    item = self.sampler.sample(*key)
                    metrics.observe("pipeline.sample_s", time.perf_counter() - s0)
            except BaseException as exc:  # propagate to the consumer
                with self._cond:
                    self._error = exc
                    self._cond.notify_all()
                return
            with self._cond:
                self._results[key] = item
                metrics.set_gauge("pipeline.queue_depth", len(self._results))
                self._cond.notify_all()

    def _ensure_threads(self) -> None:
        if self._threads:
            return
        for i in range(self.num_workers):
            t = threading.Thread(target=self._worker, name=f"prefetch-sampler-{i}", daemon=True)
            t.start()
            self._threads.append(t)

    # -- consumer side -----------------------------------------------------

    def epoch(self, epoch: int):
        """Yield the epoch's ``(subgraph, seed_positions)`` batches in index order."""
        if self._stop:
            raise RuntimeError("pipeline is closed")
        n = len(self.sampler)
        if self.prefetch_depth == 0:
            for index in range(n):
                with metrics.span("pipeline.sample", epoch=epoch, batch=index):
                    s0 = time.perf_counter() if metrics.enabled else 0.0
                    item = self.sampler.sample(epoch, index)
                    if metrics.enabled:
                        metrics.observe("pipeline.sample_s", time.perf_counter() - s0)
                yield item
            return
        self._ensure_threads()
        with self._cond:
            self._tasks.extend((epoch, index) for index in range(n))
            self._cond.notify_all()
        for index in range(n):
            key = (epoch, index)
            t0 = time.perf_counter() if metrics.enabled else 0.0
            with self._cond:
                while key not in self._results and self._error is None and not self._stop:
                    self._cond.wait()
                if self._error is not None:
                    raise self._error
                if self._stop:  # closed mid-epoch: nothing will produce the key
                    raise RuntimeError("pipeline is closed")
                item = self._results.pop(key)
                metrics.set_gauge("pipeline.queue_depth", len(self._results))
            self._slots.release()
            if metrics.enabled:
                metrics.observe("pipeline.consumer_stall_s", time.perf_counter() - t0)
            yield item

    def close(self) -> None:
        """Stop the workers and release every blocked thread (idempotent)."""
        with self._cond:
            if self._stop and not self._threads:
                return
            self._stop = True
            self._tasks.clear()
            self._cond.notify_all()
        # unblock workers parked on the lookahead semaphore
        for _ in range(len(self._threads) + self.prefetch_depth):
            self._slots.release()
        for t in self._threads:
            t.join(timeout=5.0)
        self._threads = []
        with self._cond:
            self._results.clear()

    def __enter__(self) -> "PrefetchPipeline":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False
