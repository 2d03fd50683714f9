"""ClusterService core: worker loss, stale frames, graph shipping.

A pool whose workers always die must end in :class:`WorkerLossError`
within bounded time, never spin; a batch that aborts must not leak its
late frames into the next batch that reuses its keys; and the service
:func:`open_service` builds gives host-only context entries only to
workers on the driver's host and unlinks its segments on close.

The dying roles are registered at run time with :func:`register_role`,
so they reach workers through fork (the default start method on Linux);
this file is not part of the spawn CI job.
"""

from __future__ import annotations

import os
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.distributed import (
    ClusterError,
    ClusterService,
    EvalService,
    EvalTask,
    PipeTransport,
    TcpTransport,
    WorkerLossError,
    WorkerRole,
    mix_candidate,
    register_role,
    score_candidate,
    stack_flat_states,
)
from repro.distributed import cluster
from repro.distributed.cluster import open_service
from repro.telemetry import metrics


def _exit_now(*_args):
    os._exit(17)


DIE_AT_INIT = WorkerRole(name="die-at-init", init=_exit_now, run=lambda _state, payload: payload)
DIE_AT_RUN = WorkerRole(name="die-at-run", init=lambda _context: None, run=_exit_now)


@pytest.fixture(autouse=True, scope="module")
def dying_roles():
    register_role("die-at-init", __name__, "DIE_AT_INIT")
    register_role("die-at-run", __name__, "DIE_AT_RUN")
    yield
    cluster._ROLES.pop("die-at-init")
    cluster._ROLES.pop("die-at-run")


#: Seconds a doomed pool may take to give up (it takes well under one).
BOUND_S = 20.0


class TestWorkerLoss:
    @pytest.mark.parametrize("role", ["die-at-init", "die-at-run"])
    def test_batch_run_on_pipe(self, role):
        service = ClusterService(PipeTransport(role, {}, width=2))
        started = time.monotonic()
        try:
            with pytest.raises(WorkerLossError):
                service.run([0, 1, 2], lambda key, _attempt: key)
        finally:
            service.close()
        assert time.monotonic() - started < BOUND_S

    @pytest.mark.parametrize("role", ["die-at-init", "die-at-run"])
    def test_submit_poll_on_pipe(self, role):
        service = ClusterService(PipeTransport(role, {}, width=2))
        started = time.monotonic()
        try:
            service.submit("only", 1)
            with pytest.raises(WorkerLossError):
                while time.monotonic() - started < BOUND_S:
                    assert service.poll(0.1) == []
        finally:
            service.close()
        assert time.monotonic() - started < BOUND_S

    def test_task_time_death_on_tcp(self):
        service = ClusterService(TcpTransport("die-at-run", {}, spawn_local=2))
        started = time.monotonic()
        try:
            with pytest.raises(WorkerLossError):
                service.run([0, 1], lambda key, _attempt: key)
        finally:
            service.close()
        assert time.monotonic() - started < BOUND_S


class TestStaleFramesAcrossBatches:
    def test_aborted_batch_does_not_leak_into_the_next(self, gcn_pool, tiny_graph):
        """One worker, so batch 1's second task is still queued when its
        first task's error aborts the batch: the worker then runs it and
        its frames arrive during batch 2, which reuses keys 0 and 1."""
        flats, params = stack_flat_states(gcn_pool.states)
        n = len(gcn_pool)
        first = [np.ones(n + 5), np.full(n, 1.0 / n)]  # key 0 explodes in the worker
        second = [np.eye(n)[0], np.eye(n)[n - 1]]
        metrics.reset()
        metrics.set_enabled(True)
        try:
            with EvalService(
                gcn_pool.model_config, tiny_graph, flats, params,
                num_workers=1, shm=False, eval_batch=1,
            ) as service:
                with pytest.raises(ClusterError, match="raised unexpectedly"):
                    service.run([EvalTask(weights=w, kind="logits") for w in first])
                scores = service.run([EvalTask(weights=w, kind="logits") for w in second])
            stale = metrics.counter_value("cluster.stale_messages")
        finally:
            metrics.set_enabled(False)
            metrics.reset()
        assert stale >= 1
        model = gcn_pool.make_model()
        for w, got in zip(second, scores):
            expected = score_candidate(
                model, tiny_graph, mix_candidate(flats, params, w), "val", None, "logits"
            )
            assert np.array_equal(got, expected)


class TestOpenService:
    @pytest.mark.parametrize(
        "transport,shm,host_local",
        [("pipe", False, True), ("pipe", True, True), ("tcp", True, True), ("tcp", False, False)],
    )
    def test_host_only_entries_reach_only_same_host_workers(
        self, tiny_graph, transport, shm, host_local
    ):
        """Pipe workers share the host; over tcp only a worker that
        attaches the driver's segment does, and the fallback context a
        remote worker receives never carries the entries."""
        service = open_service(
            "ingredients", tiny_graph, {}, width=1,
            transport=transport, shm=shm, host_only={"store_args": ("d", "f", 1)},
        )
        try:
            assert ("store_args" in service.transport._context) is host_local
            if transport == "tcp":
                assert "store_args" not in service.transport._fallback
                assert service.transport._fallback["graph_ref"]["kind"] == "arrays"
        finally:
            service.close()

    def test_close_unlinks_the_segments(self, gcn_pool, tiny_graph):
        flats, params = stack_flat_states(gcn_pool.states)
        service = open_service(
            "eval", tiny_graph, {"model_config": dict(gcn_pool.model_config)},
            width=1, pool=(flats, params),
        )
        context = service.transport._context
        names = [context[ref]["spec"].shm_name for ref in ("graph_ref", "pool_ref")]
        service.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
