"""ClusterService core: worker loss, stale frames, close, graph shipping.

A pool whose workers always die must end in :class:`WorkerLossError`
within bounded time, never spin; a batch that aborts must not leak its
late frames into the next batch that reuses its keys; ``close()`` returns
within a fixed bound, over pipe and tcp, whether the workers are idle,
mid-batch or blocked in a task; and the service :func:`open_service` builds gives host-only
context entries only to workers on the driver's host and unlinks its
segments on close.

The test roles are registered at run time with :func:`register_role` (or
patched into the registry), so they reach workers through fork (the
default start method on Linux); this file is not part of the spawn CI
job.
"""

from __future__ import annotations

import os
import sys
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.distributed import (
    ClusterError,
    ClusterService,
    PipeTransport,
    TcpTransport,
    WorkerLossError,
    WorkerRole,
    register_role,
)
from repro.distributed import cluster
from repro.distributed.cluster import open_service
from repro.telemetry import metrics

#: Seconds a doomed pool may take to give up (it takes well under one).
BOUND_S = 20.0

#: Seconds ``ClusterService.close()`` may take, whatever its workers do.
CLOSE_BOUND_S = 3.0

#: A fork-context ``Event`` the gated role waits on, set per test (workers
#: inherit it through fork); ``None`` outside those tests.
_GATE = None


def _exit_now(*_args):
    os._exit(17)


def _gated_run(_state, payload):
    """``payload`` as a float row, held until the gate opens; a negative
    payload raises at once."""
    if payload < 0:
        raise ValueError(f"negative payload {payload}")
    _GATE.wait(BOUND_S)
    return np.full(3, float(payload))


def _sleep_run(_state, seconds):
    time.sleep(seconds)
    return seconds


def _block_run(_state, payload):
    time.sleep(10 * BOUND_S)  # ends only when the worker is killed
    return payload


DIE_AT_INIT = WorkerRole(name="die-at-init", init=_exit_now, run=lambda _state, payload: payload)
DIE_AT_RUN = WorkerRole(name="die-at-run", init=lambda _context: None, run=_exit_now)
GATED = WorkerRole(name="gated", init=lambda _context: None, run=_gated_run)
SLEEP = WorkerRole(name="sleep", init=lambda _context: None, run=_sleep_run)
BLOCK = WorkerRole(name="block", init=lambda _context: None, run=_block_run)


@pytest.fixture(autouse=True, scope="module")
def worker_roles():
    names = ("die-at-init", "die-at-run", "gated", "sleep", "block")
    for name in names:
        register_role(name, __name__, name.upper().replace("-", "_"))
    yield
    for name in names:
        cluster._ROLES.pop(name)


@pytest.fixture
def gate(monkeypatch):
    """A fresh, closed ``_GATE`` for the test's workers to wait on. Never
    set it after a waiter may have been killed: ``Event.set`` then waits
    forever for the dead waiter's wake-up."""
    event = cluster._mp_context().Event()
    monkeypatch.setattr(sys.modules[__name__], "_GATE", event)
    return event


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
    def test_aborted_batch_does_not_leak_into_the_next(self, gate):
        """One worker, so batch 1's second task is still queued when its
        first task's error aborts the batch: the worker then runs it and
        its frames arrive during batch 2, which reuses keys 0 and 1.

        The worker holds every result until the gate opens, and the gate
        opens only after batch 1 has raised. Without it, the worker could
        finish task 1 while the driver was still draining task 0's error,
        so both of task 1's frames landed in batch 1 and none was stale.
        """
        first = {0: -1, 1: 10}  # key 0 raises in the worker
        second = {0: 20, 1: 30}
        metrics.reset()
        metrics.set_enabled(True)
        try:
            with ClusterService(PipeTransport("gated", {}, width=1)) as service:
                with pytest.raises(ClusterError, match="raised unexpectedly"):
                    service.run(list(first), lambda key, _attempt: first[key])
                gate.set()
                results, exhausted = service.run(list(second), lambda key, _attempt: second[key])
            stale = metrics.counter_value("cluster.stale_messages")
        finally:
            metrics.set_enabled(False)
            metrics.reset()
        assert stale >= 1
        assert exhausted == []
        assert sorted(results) == [0, 1]
        for key, payload in second.items():
            assert np.array_equal(results[key], np.full(3, float(payload)))


class TestCloseIsBounded:
    """``close()`` returns within :data:`CLOSE_BOUND_S` on a pipe service;
    :class:`TestCloseIsBoundedTcp` runs the same cases over tcp."""

    transport = "pipe"

    def _service(self, role: str) -> ClusterService:
        if self.transport == "tcp":
            return ClusterService(TcpTransport(role, {}, spawn_local=2))
        return ClusterService(PipeTransport(role, {}, width=2))

    def _procs(self, service) -> list:
        workers = service.transport._workers.values()
        if self.transport == "tcp":
            return [worker.proc for worker in workers]
        return list(workers)

    def _timed_close(self, service) -> float:
        started = time.monotonic()
        service.close()
        return time.monotonic() - started

    def _assert_workers_gone(self, service, procs) -> None:
        assert not service.transport._workers
        assert not any(proc.is_alive() for proc in procs)

    def test_idle(self):
        service = self._service("sleep")
        results, _ = service.run([0, 1], lambda key, _attempt: 0.0)
        assert results == {0: 0.0, 1: 0.0}
        procs = self._procs(service)
        assert self._timed_close(service) < CLOSE_BOUND_S
        self._assert_workers_gone(service, procs)

    def test_mid_batch(self):
        service = self._service("sleep")
        for key in range(8):
            service.submit(key, 0.2)
        deadline = time.monotonic() + BOUND_S
        while not service.transport._workers or not any(service._in_flight.values()):
            assert time.monotonic() < deadline
            service.poll(0.05)  # until a worker has claimed a task
        procs = self._procs(service)
        assert self._timed_close(service) < CLOSE_BOUND_S
        self._assert_workers_gone(service, procs)

    def test_worker_blocked_in_a_task(self):
        service = self._service("block")
        service.submit("stuck", None)
        service.submit("stuck-too", None)
        deadline = time.monotonic() + BOUND_S
        while len([t for t in service._in_flight.values() if t is not None]) < 2:
            assert time.monotonic() < deadline
            service.poll(0.05)
        procs = self._procs(service)
        assert self._timed_close(service) < CLOSE_BOUND_S
        self._assert_workers_gone(service, procs)


class TestCloseIsBoundedTcp(TestCloseIsBounded):
    """The same cases over loopback tcp workers."""

    transport = "tcp"


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

    def test_close_unlinks_the_segments(self, tiny_graph):
        service = open_service("ingredients", tiny_graph, {}, width=1)
        name = service.transport._context["graph_ref"]["spec"].shm_name
        service.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
