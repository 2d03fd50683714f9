"""Unified cluster runtime: one claim/done worker service, pluggable transports.

Both phases of the paper's pipeline fan work out to a pool of persistent
workers pulling from a shared queue — Phase 1 trains ingredients with
zero inter-worker communication (§III-A), Phase 2 scores soup candidates
on immutable state (§III-E) — and the serving layer answers prediction
batches on the same pool. This module is the one core all three run on:

* :class:`ClusterService` — the driver-side task service. ``submit``
  enqueues one keyed task and ``poll`` returns the tasks that completed;
  ``run`` drives a finite batch to completion over the same two calls.
  One claim table serves both: work-stealing backlog, lost-task
  recovery when a worker dies (claimed tasks re-enter the queue;
  unclaimed losses trigger a conservative requeue of everything
  unaccounted for), respawn-on-death bounded by progress, and
  stale-message tolerance via service-unique request ids (frames from an
  aborted batch or a duplicate execution are never recorded as a live
  task's result).
* :class:`WorkerRole` — what a worker *does*: an ``init(context)`` run
  once per worker (attach the graph, open stores) and a ``run(state,
  payload)`` per task. Roles are resolved **by name** through
  :func:`resolve_role` so a worker started on another machine can look
  up the same code path from its own installation.
* **Transports** — how tasks reach workers:

  - :class:`PipeTransport` (same host): worker processes spawned here,
    one shared ``SimpleQueue`` of task specs, results over a lock-guarded
    pipe. ``Connection.send`` is synchronous, so a worker's ``claim`` is
    durable even if it hard-dies on the very next instruction (the
    requeue accounting depends on that).
  - :class:`TcpTransport` (multi-host): the driver connects *out* to
    workers listening on ``host:port`` (started with ``python -m repro
    cluster start-worker``) and/or spawns loopback workers locally.
    Messages are length-prefixed frames (:mod:`~repro.distributed.wire`
    binary fast path, pickle fallback); death is detected by
    connection loss or heartbeat silence. Workers first receive the
    driver's preferred context; a worker whose init fails on it (e.g.
    cross-node, where a shared-memory segment name resolves to nothing)
    reports ``init-error`` and is sent the serialized fallback context
    instead — pushed once per worker, not per task.

* :func:`open_service` — a service whose workers each hold the whole
  graph: it picks how the graph travels
  (:func:`~repro.distributed.shm.share_graph`), builds the transport and
  its fallback context, and hands the shared-memory segments to the
  service, which unlinks them on close.

Both transports stream a large task result back in bounded chunks and
reassemble it before the service layer sees the completion.

The determinism contracts of both phases survive any transport because
results are keyed by task id and merged in task order, never in
completion order.
"""

from __future__ import annotations

import importlib
import os
import pickle
import queue as queue_mod
import socket
import struct
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import multiprocessing as mp

from ..telemetry import BYTE_BUCKETS, metrics
from ..tensor import clear_alloc_hooks
from .shm import share_graph
from .wire import WireFormatError, decode_frame, encode_frame

__all__ = [
    "TRANSPORTS",
    "ClusterError",
    "WorkerLossError",
    "WorkerRole",
    "ClusterService",
    "PipeTransport",
    "TcpTransport",
    "open_service",
    "parse_nodes",
    "register_role",
    "resolve_role",
    "run_worker",
]

#: Transport names accepted wherever a cluster is built.
TRANSPORTS = ("pipe", "tcp")

#: Seconds between worker heartbeat pings on the tcp transport.
_PING_INTERVAL = 2.0

#: Sentinel pushed into the tcp inbox so a blocked poll wakes up on EOF.
_WAKEUP = ("__wakeup__",)

#: Placeholder result in a ``done`` frame whose real result was streamed
#: ahead of it as ``("result-chunk", ...)`` frames.
_STREAMED = "__streamed-result__"


def _stream_threshold() -> int:
    """Bytes above which a worker streams its result in bounded chunks
    instead of one monolithic frame (``REPRO_STREAM_THRESHOLD`` env
    override; ``0`` disables streaming). Read per call so tests and
    already-forked workers honour late environment changes."""
    try:
        return int(os.environ.get("REPRO_STREAM_THRESHOLD", str(1 << 20)))
    except ValueError:  # pragma: no cover - env misconfiguration
        return 1 << 20


def _stream_chunk() -> int:
    """Chunk size for streamed results (``REPRO_STREAM_CHUNK`` env)."""
    try:
        return max(int(os.environ.get("REPRO_STREAM_CHUNK", str(256 << 10))), 1)
    except ValueError:  # pragma: no cover - env misconfiguration
        return 256 << 10


def _approx_result_nbytes(result) -> int:
    """Cheap structural size probe for a task result — no serialization.

    Counts ndarray buffer bytes where large results actually keep them
    (state-dict-shaped mappings, objects carrying a ``state_dict``); the
    scalar/score results of the eval hot path probe to 0 and skip the
    streaming branch entirely.
    """
    if isinstance(result, dict):
        return sum(int(getattr(v, "nbytes", 0) or 0) for v in result.values())
    total = int(getattr(result, "nbytes", 0) or 0)
    state = getattr(result, "state_dict", None)
    if isinstance(state, dict):
        total += sum(int(getattr(v, "nbytes", 0) or 0) for v in state.values())
    return total


def _send_result(send, wid: int, rid: int, result, snapshot=None) -> None:
    """Send one task completion, streaming large results in chunks.

    Small results travel as one ``done`` frame. Above the streaming
    threshold the result is pickled **once**, cut into bounded
    ``("result-chunk", wid, rid, seq, total, bytes)`` frames,
    and the closing ``done`` carries the :data:`_STREAMED` placeholder
    (plus the telemetry snapshot, when enabled) — the driver transport
    reassembles before the service layer ever sees the message, so the
    claim/done bookkeeping is oblivious to streaming.
    """
    threshold = _stream_threshold()
    if threshold > 0 and _approx_result_nbytes(result) >= threshold:
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        if len(blob) >= threshold:
            chunk = _stream_chunk()
            total = -(-len(blob) // chunk)
            for seq in range(total):
                send(("result-chunk", wid, rid, seq, total, blob[seq * chunk : (seq + 1) * chunk]))
            metrics.inc("transport.result_chunks", total)
            metrics.inc("transport.result_stream_bytes", len(blob))
            send(
                ("done", wid, rid, _STREAMED, snapshot)
                if snapshot is not None
                else ("done", wid, rid, _STREAMED)
            )
            return
    send(("done", wid, rid, result, snapshot) if snapshot is not None else ("done", wid, rid, result))


class _ResultAssembler:
    """Driver-side reassembly of streamed results.

    Buffers ``result-chunk`` frames keyed by ``(wid, rid)`` (each
    worker's frames arrive FIFO on its own channel, so sequence order is
    connection order) and rewrites the closing :data:`_STREAMED` ``done``
    with the unpickled result — downstream consumers only ever see
    ordinary completions.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[int, int], list[bytes]] = {}

    def feed(self, message):
        """Absorb one transport message; returns ``None`` while buffering
        chunks, otherwise the (possibly rewritten) message."""
        kind = message[0] if isinstance(message, tuple) and message else None
        if kind == "result-chunk":
            _, wid, rid, seq, total, blob = message
            parts = self._buffers.setdefault((wid, rid), [])
            if seq != len(parts):
                raise ClusterError(
                    f"result chunk {seq}/{total} for rid {rid} arrived out of order"
                )
            parts.append(blob)
            return None
        if (
            kind == "done"
            and len(message) >= 4
            # an ndarray result would compare elementwise with the placeholder
            and isinstance(message[3], str)
            and message[3] == _STREAMED
        ):
            parts = self._buffers.pop((message[1], message[2]), None)
            if parts is None:
                raise ClusterError(f"streamed result for rid {message[2]} has no chunks")
            rebuilt = list(message)
            rebuilt[3] = pickle.loads(b"".join(parts))
            return tuple(rebuilt)
        return message

    def drop(self, wid: int) -> None:
        """Discard partial streams from a dead worker."""
        for key in [key for key in self._buffers if key[0] == wid]:
            del self._buffers[key]


class ClusterError(RuntimeError):
    """A cluster-runtime failure (protocol violation, worker-side bug)."""


class WorkerLossError(ClusterError):
    """The cluster lost workers faster than it made progress."""


def _mp_context():
    """Start-method context for worker processes.

    ``MP_START_METHOD`` (e.g. the CI spawn job) overrides; otherwise fork
    is preferred where available — it shares the parent's pages
    copy-on-write — with spawn as the portable fallback (macOS/Windows
    semantics). Under spawn the shared-memory transport matters most:
    workers receive a few-hundred-byte segment descriptor instead of a
    pickled copy of the graph.
    """
    forced = os.environ.get("MP_START_METHOD")
    if forced:
        return mp.get_context(forced)
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


# ---------------------------------------------------------------------------
# worker roles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerRole:
    """What a cluster worker does, independent of how tasks reach it.

    ``init(context)`` runs once per worker with the (picklable) context
    the driver shipped and returns the worker's state; ``run(state,
    payload)`` executes one task. Exceptions listed in ``fault_types``
    report as retryable ``fault`` messages (the Phase-1 injected-fault
    channel); anything else reports as an ``error`` — a bug, not a fault.
    """

    name: str
    init: Callable[[dict], object]
    run: Callable[[object, object], object]
    fault_types: tuple = ()


#: Role registry: name -> (module, attribute). Resolution is by import so
#: a worker on another host finds the same code path locally instead of
#: unpickling a function object from the wire.
_ROLES: dict[str, tuple[str, str]] = {
    "ingredients": ("repro.distributed.ingredients", "INGREDIENT_ROLE"),
    "eval": ("repro.distributed.eval_service", "EVAL_ROLE"),
    "serve": ("repro.serve.model", "SERVE_ROLE"),
}


def register_role(name: str, module: str, attribute: str) -> None:
    """Register a custom worker role under ``name`` (module must be
    importable on every machine that runs a worker)."""
    _ROLES[name] = (module, attribute)


def resolve_role(name: str) -> WorkerRole:
    """Look up a registered role by name (imports its owning module)."""
    try:
        module, attribute = _ROLES[name]
    except KeyError:
        raise ClusterError(f"unknown worker role {name!r}; known roles: {sorted(_ROLES)}")
    role = getattr(importlib.import_module(module), attribute)
    if not isinstance(role, WorkerRole):
        raise ClusterError(f"{module}.{attribute} is not a WorkerRole")
    return role


# ---------------------------------------------------------------------------
# node specs
# ---------------------------------------------------------------------------


def _parse_node(node) -> tuple[str, int]:
    if isinstance(node, (tuple, list)) and len(node) == 2:
        return str(node[0]), int(node[1])
    text = str(node).strip()
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"node spec {node!r} is not of the form host:port")
    return host, int(port)


def parse_nodes(spec) -> list[tuple[str, int]] | None:
    """Normalise a node spec (``"h1:p1,h2:p2"`` or a sequence of specs)
    to ``[(host, port), ...]``; ``None``/empty stays ``None``."""
    if spec is None:
        return None
    if isinstance(spec, str):
        parts = [p.strip() for p in spec.split(",") if p.strip()]
    else:
        parts = [p for p in spec if p is not None]
    if not parts:
        return None
    return [_parse_node(p) for p in parts]


# ---------------------------------------------------------------------------
# pipe transport (same host)
# ---------------------------------------------------------------------------


def _start_worker(role_name: str, telemetry: bool, source: str, transport: str):
    """Per-worker set-up shared by both transports; returns ``(role, tel)``.

    The metrics registry starts afresh (under fork it arrives pre-filled
    with the driver's values), and alloc hooks inherited from a driver
    that was inside a ``MemoryMeter`` are dropped: worker allocations are
    not the driver's measurement.
    """
    metrics.reset()
    metrics.set_enabled(bool(telemetry))
    if metrics.enabled:
        metrics.meta = {
            "source": source, "role": role_name, "transport": transport, "pid": os.getpid(),
        }
    clear_alloc_hooks()
    return resolve_role(role_name), metrics.enabled


def _task_loop(
    worker_id: int, role_name: str, role: WorkerRole, state, next_task, send, tel: bool
) -> None:
    """Run tasks until ``next_task()`` returns ``None`` instead of ``(rid, payload)``.

    Every attempt is bracketed by a ``claim`` message so the driver knows
    which task died with the worker; completions, declared faults and
    unexpected errors each report their own message kind. With telemetry
    on, each report carries the worker's cumulative metrics snapshot as a
    trailing element (the driver aggregates it).
    """
    while (task := next_task()) is not None:
        rid, payload = task
        send(("claim", worker_id, rid))
        try:
            with metrics.span(f"task:{role_name}", rid=rid):
                result = role.run(state, payload)
        except role.fault_types:
            send(("fault", worker_id, rid, metrics.snapshot()) if tel else ("fault", worker_id, rid))
        except BaseException:
            tb = traceback.format_exc()
            send(("error", worker_id, rid, tb, metrics.snapshot()) if tel else ("error", worker_id, rid, tb))
        else:
            metrics.inc("worker.tasks_done")
            _send_result(send, worker_id, rid, result, metrics.snapshot() if tel else None)


def _pipe_worker_main(
    worker_id, task_queue, result_writer, result_lock, role_name, context, telemetry=False
):
    """Body of one persistent pipe-transport worker process.

    Pulls encoded ``("task", rid, payload)`` specs until the ``None``
    sentinel. Result messages go through a raw pipe guarded by a shared
    lock — ``Connection.send_bytes`` is *synchronous*, so once it returns
    the message is in the pipe even if the worker hard-dies on the very
    next instruction. (A ``multiprocessing.Queue`` would buffer through a
    feeder thread that ``os._exit`` silently kills, losing the claim that
    the driver's requeue accounting depends on.)
    """
    role, tel = _start_worker(role_name, telemetry, f"pipe:w{worker_id}", "pipe")

    def put(message):
        data = encode_frame(message)
        if tel:
            metrics.inc("transport.frames_sent")
            metrics.inc(_frame_format_counter(data))
            metrics.inc("transport.bytes_sent", len(data))
            metrics.observe("transport.frame_bytes_sent", len(data), BYTE_BUCKETS)
        with result_lock:
            result_writer.send_bytes(data)

    def next_task():
        item = task_queue.get()
        if item is None:
            return None
        if tel:
            t0 = time.perf_counter()
            _kind, rid, payload = decode_frame(item)
            metrics.observe("transport.deserialize_s", time.perf_counter() - t0)
            metrics.inc("transport.frames_received")
            metrics.inc("transport.bytes_received", len(item))
        else:
            _kind, rid, payload = decode_frame(item)
        return rid, payload

    with metrics.span("worker.init", role=role_name):
        state = role.init(context)
    _task_loop(worker_id, role_name, role, state, next_task, put, tel)


class PipeTransport:
    """Same-host transport: spawned worker processes over queue + pipe."""

    name = "pipe"

    def __init__(self, role: str, context, width: int) -> None:
        if width < 1:
            raise ValueError("pipe transport needs at least one worker")
        self.role = role
        self.width = int(width)
        self._context = context
        self._workers: dict[int, mp.process.BaseProcess] = {}
        self._labels: dict[int, str] = {}  # never pruned: names outlive the worker
        self._next_wid = 0
        self._assembler = _ResultAssembler()
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._mp = _mp_context()
        self._task_queue = self._mp.SimpleQueue()  # synchronous puts, no feeder thread
        self._reader, self._writer = self._mp.Pipe(duplex=False)
        self._lock = self._mp.Lock()
        self._started = True
        for _ in range(self.width):
            self._spawn()

    def _spawn(self) -> None:
        proc = self._mp.Process(
            target=_pipe_worker_main,
            args=(
                self._next_wid, self._task_queue, self._writer, self._lock,
                self.role, self._context, metrics.enabled,
            ),
            daemon=True,
        )
        proc.start()
        self._workers[self._next_wid] = proc
        self._labels[self._next_wid] = f"pipe:w{self._next_wid}"
        self._next_wid += 1

    def describe_worker(self, wid: int) -> str:
        """Stable human-readable identity of a worker (live or dead)."""
        return self._labels.get(wid, f"pipe:w{wid}")

    def can_accept(self, outstanding: int) -> bool:
        # keep the pipe a couple of specs ahead of the worker count — deep
        # enough that a freed worker never waits on the driver, shallow
        # enough that the ~64KB task pipe can't fill and wedge the driver
        # in a blocking put where it can no longer drain results
        return outstanding < self.width + 2

    def send(self, rid: int, payload) -> None:
        if metrics.enabled:
            t0 = time.perf_counter()
            data = encode_frame(("task", rid, payload))
            metrics.observe("transport.serialize_s", time.perf_counter() - t0)
            metrics.inc("transport.frames_sent")
            metrics.inc(_frame_format_counter(data))
            metrics.inc("transport.bytes_sent", len(data))
            metrics.observe("transport.frame_bytes_sent", len(data), BYTE_BUCKETS)
        else:
            data = encode_frame(("task", rid, payload))
        self._task_queue.put(data)

    def poll(self, timeout: float):
        deadline = time.monotonic() + max(timeout, 0.0)
        while True:
            remaining = deadline - time.monotonic()
            if not self._reader.poll(max(remaining, 0.0)):
                return None
            data = self._reader.recv_bytes()
            if metrics.enabled:
                t0 = time.perf_counter()
                message = decode_frame(data)
                metrics.observe("transport.deserialize_s", time.perf_counter() - t0)
                metrics.inc("transport.frames_received")
                metrics.inc("transport.bytes_received", len(data))
            else:
                message = decode_frame(data)
            # streamed-result chunks buffer transport-side; the service
            # layer only ever sees whole completions
            message = self._assembler.feed(message)
            if message is not None:
                return message

    def reap_dead(self) -> list[int]:
        dead = [wid for wid, proc in self._workers.items() if not proc.is_alive()]
        for wid in dead:
            self._workers.pop(wid).join()
            self._assembler.drop(wid)
        return dead

    @property
    def alive_count(self) -> int:
        return len(self._workers)

    def respawn_one(self) -> bool:
        self._spawn()
        return True

    def close(self) -> None:
        if not self._started:
            return
        self._started = False
        try:
            for _ in self._workers:
                self._task_queue.put(None)
            for proc in self._workers.values():
                proc.join(timeout=10)
        finally:
            for proc in self._workers.values():
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5)
            self._workers.clear()
            self._reader.close()
            self._writer.close()
            self._task_queue.close()


# ---------------------------------------------------------------------------
# tcp framing
# ---------------------------------------------------------------------------

_HEADER = struct.Struct(">Q")


def _frame_format_counter(data) -> str:
    """Telemetry counter name for one encoded frame (binary vs pickle path)."""
    return "transport.frames_pickle" if data[0] == 0x50 else "transport.frames_binary"


def _configure_socket(sock: socket.socket) -> None:
    """Disable Nagle and enable keepalive on a protocol socket.

    Frames are small and latency-bound (a claim/done round trip per
    task), so coalescing them against delayed ACKs costs ~40ms per
    message on loopback. Keepalive covers the silent-peer case — a
    driver host that power-cycles mid-session sends no FIN, and without
    probes a worker blocked in ``recv`` would wait forever instead of
    returning to ``accept`` for the next driver.
    """
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        for opt, value in (("TCP_KEEPIDLE", 60), ("TCP_KEEPINTVL", 10), ("TCP_KEEPCNT", 5)):
            if hasattr(socket, opt):  # Linux/macOS names; best-effort elsewhere
                sock.setsockopt(socket.IPPROTO_TCP, getattr(socket, opt), value)
    except OSError:  # pragma: no cover - non-TCP or exotic platforms
        pass


def _send_raw(sock: socket.socket, data: bytes) -> int:
    """Send one pre-encoded frame body; returns the body length.

    The raw entry point exists so a payload serialized once (the fallback
    context) is *reused* across workers instead of re-encoded per
    connection.
    """
    if metrics.enabled:
        metrics.inc("transport.frames_sent")
        metrics.inc(_frame_format_counter(data))
        metrics.inc("transport.bytes_sent", len(data))
        metrics.observe("transport.frame_bytes_sent", len(data), BYTE_BUCKETS)
    sock.sendall(_HEADER.pack(len(data)) + data)
    return len(data)


def _send_frame(sock: socket.socket, obj) -> int:
    if metrics.enabled:
        t0 = time.perf_counter()
        data = encode_frame(obj)
        metrics.observe("transport.serialize_s", time.perf_counter() - t0)
    else:
        data = encode_frame(obj)
    return _send_raw(sock, data)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if buf:
                raise ClusterError("connection closed mid-frame")
            return None
        buf.extend(chunk)
    return bytes(buf)


def _recv_frame(sock: socket.socket):
    """One length-prefixed frame (binary fast path or pickle fallback);
    ``None`` on clean EOF."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    body = _recv_exact(sock, length)
    if body is None:
        raise ClusterError("connection closed mid-frame")
    if metrics.enabled:
        t0 = time.perf_counter()
        message = decode_frame(body)
        metrics.observe("transport.deserialize_s", time.perf_counter() - t0)
        metrics.inc("transport.frames_received")
        metrics.inc("transport.bytes_received", len(body))
        return message
    return decode_frame(body)


# ---------------------------------------------------------------------------
# tcp worker side
# ---------------------------------------------------------------------------


def _ping_loop(send, worker_id: int, stop: threading.Event, telemetry: bool = False) -> None:
    while not stop.wait(_PING_INTERVAL):
        try:
            if telemetry:
                # cheap spans-free snapshot rides the heartbeat so the
                # driver's view stays fresh even during long tasks
                send(("ping", worker_id, metrics.snapshot(include_spans=False)))
            else:
                send(("ping", worker_id))
        except OSError:  # the connection is gone; the session ends with it
            return


def _serve_session(conn: socket.socket) -> None:
    """Serve one driver connection: handshake, then the task loop.

    The handshake mirrors the payload-push contract: the driver's first
    context may reference shared-memory segments; when ``role.init``
    fails on it (cross-node attach) the worker reports ``init-error``
    and initialises from the serialized fallback context instead. A
    background thread heartbeats so the driver can distinguish a long
    task from a hung or partitioned worker.
    """
    send_lock = threading.Lock()

    def send(message):
        with send_lock:
            _send_frame(conn, message)

    def next_task():
        message = _recv_frame(conn)
        if message is None or message[0] == "stop":
            return None
        return message[1], message[2]

    init = _recv_frame(conn)
    if init is None or init[0] != "init":
        return
    # session options: the telemetry flag and the driver's name for this worker
    _, role_name, worker_id, context, options = init
    role, tel = _start_worker(role_name, options["telemetry"], options["ident"], "tcp")
    try:
        with metrics.span("worker.init", role=role_name):
            state = role.init(context)
    except Exception:
        metrics.inc("transport.init_fallbacks")
        send(("init-error", worker_id, traceback.format_exc()))
        follow = _recv_frame(conn)
        if follow is None or follow[0] != "context":
            return
        with metrics.span("worker.init.fallback", role=role_name):
            # second failure tears the session down
            state = role.init(follow[1])
    send(("ready", worker_id))
    stop = threading.Event()
    threading.Thread(target=_ping_loop, args=(send, worker_id, stop, tel), daemon=True).start()
    try:
        _task_loop(worker_id, role_name, role, state, next_task, send, tel)
    finally:
        stop.set()


def run_worker(
    host: str = "0.0.0.0",
    port: int = 0,
    once: bool = False,
    verbose: bool = True,
    port_file: str | Path | None = None,
) -> int:
    """Serve cluster work sessions on ``host:port`` until interrupted.

    The body of ``python -m repro cluster start-worker``: bind, announce
    the bound port (``port=0`` lets the OS pick; ``port_file`` writes
    ``host port`` for orchestration scripts), then accept one driver at a
    time and serve its session. After a driver disconnects the worker
    loops back to ``accept`` — one long-lived worker can serve many
    experiment runs — unless ``once`` is set.

    .. warning::
        The wire protocol accepts pickle-fallback frames with **no
        authentication or encryption** — anyone who can reach the port
        can execute code as this process. Run workers only on trusted networks (lab LAN, VPN,
        an SSH tunnel) and bind a specific interface with ``host`` where
        possible.
    """
    srv = socket.create_server((host, port))
    bound = srv.getsockname()[1]
    if verbose:
        print(f"[cluster-worker] listening on {host}:{bound}", flush=True)
    if port_file is not None:
        # Atomic publish: watchers poll for the file's existence and read
        # it immediately, so it must never be visible half-written.
        tmp = Path(str(port_file) + ".tmp")
        tmp.write_text(f"{host} {bound}\n")
        tmp.replace(port_file)
    try:
        while True:
            conn, addr = srv.accept()
            _configure_socket(conn)
            if verbose:
                print(f"[cluster-worker] session from {addr[0]}:{addr[1]}", flush=True)
            try:
                _serve_session(conn)
            except Exception:  # keep serving after a broken session
                traceback.print_exc()
            finally:
                try:
                    conn.close()
                except OSError:
                    pass
            if once:
                return 0
    except KeyboardInterrupt:
        return 0
    finally:
        srv.close()


def _local_tcp_worker_main(report_conn) -> None:
    """Loopback tcp worker spawned by the driver itself (tests, CI, and
    ``transport="tcp"`` without an explicit node list): bind an ephemeral
    port, report it back through the pipe, serve one session."""
    srv = socket.create_server(("127.0.0.1", 0))
    report_conn.send(srv.getsockname()[1])
    report_conn.close()
    conn, _addr = srv.accept()
    _configure_socket(conn)
    srv.close()
    try:
        _serve_session(conn)
    except Exception:  # the session is over either way; say why, as run_worker does
        traceback.print_exc()
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# tcp transport (driver side)
# ---------------------------------------------------------------------------


@dataclass
class _TcpWorker:
    wid: int
    sock: socket.socket
    node: tuple[str, int] | None = None  # remote address, None for self-spawned
    proc: object = None  # mp.Process for self-spawned loopback workers
    busy_rid: int | None = None
    eof: bool = False
    last_recv: float = field(default_factory=time.monotonic)


class TcpTransport:
    """Socket transport whose workers may live on other hosts.

    ``nodes`` lists remote workers (``python -m repro cluster
    start-worker`` instances) the driver connects out to;
    ``spawn_local`` additionally (or instead) spawns loopback worker
    processes owned by this transport — those are respawned on death,
    remote ones are not (their tasks are recovered onto the survivors).

    Work-stealing is driver-side here: with no shared queue across
    sockets, the transport assigns a task to a worker only when that
    worker is free, which realises the same earliest-free-worker pull
    discipline as the pipe transport's shared queue.

    Every worker receives the whole context in its handshake: the
    primary context first, then — if its init fails there — the fallback
    payload, encoded once and reused for every such worker. Per-worker
    ``payload_bytes`` records what each handshake shipped.
    """

    name = "tcp"

    def __init__(
        self,
        role: str,
        context,
        fallback_context=None,
        nodes: Sequence | None = None,
        spawn_local: int = 0,
        heartbeat_timeout: float = 30.0,
        handshake_timeout: float = 60.0,
    ) -> None:
        self.role = role
        self._context = context
        self._fallback = fallback_context
        self._nodes = parse_nodes(nodes) or []
        self._spawn_local = int(spawn_local)
        if not self._nodes and self._spawn_local < 1:
            raise ValueError("tcp transport needs worker nodes or spawn_local >= 1")
        self.width = len(self._nodes) + self._spawn_local
        self._heartbeat_timeout = float(heartbeat_timeout)
        self._handshake_timeout = float(handshake_timeout)
        self._inbox: queue_mod.Queue = queue_mod.Queue()
        self._workers: dict[int, _TcpWorker] = {}
        self._labels: dict[int, str] = {}  # never pruned: names outlive the worker
        self._next_wid = 0
        self._fallback_frame_bytes = None
        #: per-worker context bytes shipped at handshake (never pruned:
        #: the record outlives the worker, like labels)
        self.payload_bytes: dict[int, int] = {}
        self._started = False

    def _fallback_frame(self) -> bytes | None:
        """The fallback-context push frame, serialized exactly once.

        The fallback carries the whole graph and its encoded bytes are
        identical for every worker, so they are cached and reused.
        """
        if self._fallback_frame_bytes is None and self._fallback is not None:
            self._fallback_frame_bytes = encode_frame(("context", self._fallback))
        return self._fallback_frame_bytes

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        try:
            for node in self._nodes:
                self._connect_node(node)
            for _ in range(self._spawn_local):
                self._spawn_local_worker()
        except BaseException:
            self.close()
            raise

    def _connect_node(self, node: tuple[str, int]) -> None:
        host, port = node
        try:
            sock = socket.create_connection((host, port), timeout=self._handshake_timeout)
        except OSError as exc:
            raise ClusterError(f"cannot reach cluster worker at {host}:{port}: {exc}") from exc
        _configure_socket(sock)
        self._attach(sock, node=node, proc=None)

    def _spawn_local_worker(self) -> None:
        ctx = _mp_context()
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_local_tcp_worker_main, args=(child,), daemon=True)
        proc.start()
        child.close()
        if not parent.poll(self._handshake_timeout):
            proc.terminate()
            raise ClusterError("local tcp worker did not report its port in time")
        port = parent.recv()
        parent.close()
        sock = socket.create_connection(("127.0.0.1", port), timeout=self._handshake_timeout)
        _configure_socket(sock)
        self._attach(sock, node=None, proc=proc)

    def describe_worker(self, wid: int) -> str:
        """Stable human-readable identity of a worker (live or dead)."""
        return self._labels.get(wid, f"tcp:w{wid}")

    def _count_payload(self, wid: int, n: int) -> None:
        """Account context bytes shipped to one worker."""
        self.payload_bytes[wid] = self.payload_bytes.get(wid, 0) + n
        if metrics.enabled:
            metrics.inc(f"transport.payload_bytes.{self._labels.get(wid, f'tcp:w{wid}')}", n)

    def _attach(self, sock: socket.socket, node, proc) -> None:
        """Handshake one worker connection, then hand it to a reader thread."""
        wid = self._next_wid
        self._next_wid += 1
        label = f"tcp:w{wid}@{node[0]}:{node[1]}" if node else f"tcp:w{wid}@loopback"
        self._labels[wid] = label
        sock.settimeout(self._handshake_timeout)
        try:
            options = {"telemetry": metrics.enabled, "ident": label}
            init = ("init", self.role, wid, self._context, options)
            self._count_payload(wid, _send_frame(sock, init))
            reply = _recv_frame(sock)
            if reply is not None and reply[0] == "init-error":
                frame = self._fallback_frame()
                if frame is None:
                    raise ClusterError(
                        f"worker {wid} failed to initialise and no fallback payload "
                        f"is available:\n{reply[2]}"
                    )
                metrics.inc("transport.fallback_payload_pushes")
                self._count_payload(wid, _send_raw(sock, frame))
                reply = _recv_frame(sock)
            if reply is None or reply[0] != "ready":
                raise ClusterError(f"worker {wid} handshake failed: {reply!r}")
        except (OSError, ClusterError):
            sock.close()
            if proc is not None:
                proc.terminate()
            raise
        sock.settimeout(None)
        worker = _TcpWorker(wid=wid, sock=sock, node=node, proc=proc)
        self._workers[wid] = worker
        threading.Thread(target=self._reader_main, args=(worker,), daemon=True).start()

    def _reader_main(self, worker: _TcpWorker) -> None:
        assembler = _ResultAssembler()  # chunks arrive FIFO per connection
        try:
            while True:
                message = _recv_frame(worker.sock)
                if message is None:
                    break
                now = time.monotonic()
                if message[0] == "ping":
                    if metrics.enabled:
                        # gap between worker frames ~ heartbeat health
                        metrics.observe("cluster.heartbeat_gap_s", now - worker.last_recv)
                        if len(message) > 2:
                            metrics.merge_source(self.describe_worker(worker.wid), message[2])
                    worker.last_recv = now
                    continue
                worker.last_recv = now
                message = assembler.feed(message)
                if message is None:
                    continue  # streamed-result chunk, still buffering
                self._inbox.put(message)
        except (OSError, ClusterError, WireFormatError):
            # mid-frame EOF, an out-of-order result chunk or a malformed
            # frame: the connection is unusable, so the worker counts as
            # dead. Anything else is a bug and surfaces through
            # threading.excepthook after the finally below.
            metrics.inc("transport.reader_errors")
        finally:
            worker.eof = True
            self._inbox.put(_WAKEUP)  # unblock the driver's poll

    # -- service interface ---------------------------------------------------

    def _idle_worker(self) -> _TcpWorker | None:
        for worker in self._workers.values():
            if worker.busy_rid is None and not worker.eof:
                return worker
        return None

    def can_accept(self, outstanding: int) -> bool:
        return self._idle_worker() is not None

    def send(self, rid: int, payload) -> None:
        worker = self._idle_worker()
        if worker is None:
            raise ClusterError("no idle tcp worker to dispatch to")
        worker.busy_rid = rid
        try:
            _send_frame(worker.sock, ("task", rid, payload))
        except OSError:
            # send failure is a death; reap_dead recovers the task (the
            # worker never claimed it, so the conservative requeue fires)
            worker.eof = True

    def poll(self, timeout: float):
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            try:
                if remaining > 0:
                    message = self._inbox.get(timeout=remaining)
                else:
                    message = self._inbox.get_nowait()
            except queue_mod.Empty:
                return None
            if message is _WAKEUP:
                continue  # EOF marker; look again within the same window
            if message[0] in ("done", "fault", "error"):
                worker = self._workers.get(message[1])
                if worker is not None and worker.busy_rid == message[2]:
                    worker.busy_rid = None
            return message

    def reap_dead(self) -> list[int]:
        now = time.monotonic()
        dead = []
        for wid, worker in list(self._workers.items()):
            silent = (
                self._heartbeat_timeout > 0
                and now - worker.last_recv > self._heartbeat_timeout
            )
            if worker.eof or silent:
                dead.append(wid)
                self._workers.pop(wid)
                try:
                    worker.sock.close()
                except OSError:
                    pass
                if worker.proc is not None:
                    worker.proc.join(timeout=5)
                    if worker.proc.is_alive():
                        worker.proc.terminate()
        return dead

    @property
    def alive_count(self) -> int:
        return len(self._workers)

    def respawn_one(self) -> bool:
        """Replace a dead worker — only self-spawned loopback workers can
        be respawned; a lost remote node just shrinks the pool."""
        if self._spawn_local < 1:
            return False
        self._spawn_local_worker()
        return True

    def close(self) -> None:
        if not self._started:
            return
        self._started = False
        for worker in self._workers.values():
            try:
                _send_frame(worker.sock, ("stop",))
            except OSError:
                pass
            try:
                worker.sock.close()
            except OSError:
                pass
            if worker.proc is not None:
                worker.proc.join(timeout=5)
                if worker.proc.is_alive():
                    worker.proc.terminate()
        self._workers.clear()


# ---------------------------------------------------------------------------
# driver-side service
# ---------------------------------------------------------------------------


#: ``poll`` result of a task whose ``max_attempts`` submissions all failed.
_EXHAUSTED = object()


@dataclass(eq=False)
class _Task:
    """One live task: its request id, payload builder and retry policy."""

    key: object
    rid: int
    payload: Callable[[int], object]  # attempt number (from 1) -> wire payload
    max_attempts: int | None = None
    on_fault: Callable | None = None
    on_lost: Callable | None = None
    attempts: int = 0


class ClusterService:
    """Generic claim/done task service over persistent workers.

    One service drives one transport. :meth:`submit` enqueues one keyed
    task and :meth:`poll` returns the tasks that completed since the last
    call — for callers whose work arrives over time (the serving layer);
    :meth:`run` drives one finite batch to completion over the same core
    and returns ``(results_by_key, exhausted_keys)`` (Phase 1 and
    Phase 2). One claim table backs both:

    * request ids unique across the service lifetime, so frames of a task
      that already completed (a duplicate execution after a conservative
      requeue) or that belonged to an aborted batch are recognised as
      stale and dropped;
    * the claim table mapping workers to in-flight tasks, so a worker
      that dies mid-task has its claimed work re-queued — and a worker
      that dies *between* pulling a spec and claiming it triggers a
      conservative requeue of every unaccounted-for task (a duplicate
      execution is keyed by request id, so it wastes work, never
      correctness);
    * one respawn rule: dead workers are replaced, and more deaths since
      the last completed or exhausted task than twice the pool width plus
      the live tasks' attempt budgets raise :class:`WorkerLossError`
      instead of spinning.

    Tasks must be idempotent: a lost task is resubmitted, and a task a
    dead worker had in fact swallowed may execute twice. Single-consumer:
    call every method from one thread, and do not interleave :meth:`run`
    with streaming :meth:`submit` calls.
    """

    def __init__(self, transport) -> None:
        self._transport = transport
        self._segments: list = []  # shared-memory buffers to unlink on close
        self._next_rid = 0
        self._tasks: dict[object, _Task] = {}  # live tasks by key
        self._rids: dict[int, _Task] = {}  # live tasks by request id
        self._backlog: deque = deque()  # tasks awaiting dispatch
        self._in_flight: dict[int, _Task | None] = {}  # worker id -> claimed task (None = stale)
        self._outstanding = 0  # specs handed to the transport but not yet claimed
        self._completed: list[tuple[object, object]] = []
        self._deaths = 0  # worker deaths since the last completed or exhausted task
        # telemetry only
        self._queued_ts: dict[int, float] = {}  # rid -> backlog entry time
        self._send_ts: dict[int, float] = {}  # rid -> dispatch time (claim latency)
        self._busy_since: dict[int, float] = {}  # wid -> claim time of its current task
        self._busy_acc: dict[int, float] = {}  # wid -> busy seconds this batch
        self._started = False
        self._closed = False

    @property
    def transport(self):
        return self._transport

    @property
    def width(self) -> int:
        """Worker-pool width of the transport."""
        return self._transport.width

    def start(self) -> None:
        """Start the workers (idempotent); a failed start closes the service."""
        if self._closed:
            raise ClusterError("cluster service is closed")
        if not self._started:
            try:
                self._transport.start()
            except BaseException:
                self.close()
                raise
            self._started = True

    def submit(self, key, payload) -> None:
        """Enqueue one task; its completion arrives via :meth:`poll`."""
        self._submit(key, lambda _attempt: payload)

    def poll(self, timeout: float = 0.0) -> list[tuple[object, object]]:
        """Pump the transport for up to ``timeout`` seconds; return every
        task that completed since the last call (``(key, result)``,
        completion order) as soon as at least one has.

        A worker-side *error* (a bug, not a death) completes its task with
        the :class:`ClusterError` as the result: one failed request must
        not tear down a server with other requests in flight, so the
        caller inspects ``isinstance(result, Exception)``.
        """
        if self._closed:
            raise ClusterError("cluster service is closed")
        self._top_up()
        deadline = time.monotonic() + max(timeout, 0.0)
        while not self._completed:
            remaining = deadline - time.monotonic()
            message = self._transport.poll(min(remaining, 0.05) if remaining > 0 else 0)
            if message is None:
                self._check_dead()
                if remaining <= 0:
                    break
                continue
            # drain whatever else already arrived before returning
            while message is not None:
                self._handle(message)
                message = self._transport.poll(0)
            # a completion frees capacity on transports whose dispatch
            # tracks busy workers (tcp)
            self._top_up()
        out, self._completed = self._completed, []
        return out

    def run(
        self,
        keys,
        payload_fn,
        *,
        max_attempts: int | None = None,
        on_done=None,
        on_fault=None,
        on_lost=None,
        label: str = "task",
    ):
        """Run one batch of tasks to completion; results come back by key.

        ``payload_fn(key, attempt)`` builds the wire payload for each
        (re)submission — ``attempt`` starts at 1, letting Phase 1 derive
        its inject/resume flags per attempt. A worker-reported ``fault``
        (one of the role's ``fault_types``) re-queues the task until
        ``max_attempts`` submissions are spent, after which the key lands
        in the exhausted list; ``None`` means unbounded (Phase-2
        evaluations are idempotent and only ever retried on worker
        death). ``on_done(key, result)`` fires the moment a task
        completes (checkpointing), ``on_fault(key)`` on every reported
        fault (fault-budget accounting), ``on_lost(key)`` when a
        *claimed* task died with its worker (kill-fault accounting).

        A worker-side error raises :class:`ClusterError`. A batch that
        raises drops its tasks: their late frames count as stale, and the
        next batch may reuse the same keys.
        """
        keys = list(keys)
        if not keys:
            return {}, []
        tel = metrics.enabled
        run_start = time.monotonic()
        self._busy_since.clear()
        self._busy_acc.clear()
        results: dict = {}
        exhausted: list = []
        try:
            for key in keys:
                self._submit(key, partial(payload_fn, key), max_attempts, on_fault, on_lost)
            while len(results) + len(exhausted) < len(keys):
                for key, result in self.poll(0.2):
                    if result is _EXHAUSTED:
                        exhausted.append(key)
                    elif isinstance(result, ClusterError):
                        raise result
                    else:
                        results[key] = result
                        if on_done is not None:
                            on_done(key, result)
        except BaseException:
            self._tasks.clear()
            self._rids.clear()
            self._backlog.clear()
            self._completed.clear()
            raise
        if tel:
            end = time.monotonic()
            busy = dict(self._busy_acc)
            for wid, since in self._busy_since.items():  # still mid-task at batch end
                busy[wid] = busy.get(wid, 0.0) + (end - since)
            elapsed = max(end - run_start, 1e-9)
            for wid, seconds in busy.items():
                metrics.set_gauge(
                    f"cluster.utilization.{self._transport.describe_worker(wid)}", seconds / elapsed
                )
            metrics.observe("cluster.batch_s", elapsed)
            metrics.record_span(f"cluster.run:{label}", run_start, elapsed, tasks=len(keys))
        return results, sorted(exhausted)

    # -- the claim table -------------------------------------------------------

    def _submit(self, key, payload, max_attempts=None, on_fault=None, on_lost=None) -> None:
        self.start()
        if key in self._tasks:
            raise ValueError(f"task key {key!r} is already in flight")
        task = _Task(key, self._next_rid, payload, max_attempts, on_fault, on_lost)
        self._next_rid += 1
        self._tasks[key] = task
        self._rids[task.rid] = task
        self._enqueue(task)
        self._top_up()

    def _enqueue(self, task: _Task) -> None:
        if metrics.enabled:
            self._queued_ts[task.rid] = time.monotonic()
        self._backlog.append(task)

    def _top_up(self) -> None:
        while self._backlog and self._transport.can_accept(self._outstanding):
            task = self._backlog.popleft()
            if task.rid not in self._rids:
                continue  # completed or dropped while still queued
            task.attempts += 1
            if metrics.enabled:
                now = time.monotonic()
                queued = self._queued_ts.pop(task.rid, None)
                if queued is not None:
                    metrics.observe("cluster.queue_wait_s", now - queued)
                self._send_ts[task.rid] = now
            self._transport.send(task.rid, task.payload(task.attempts))
            self._outstanding += 1

    def _retry(self, task: _Task) -> None:
        """Re-queue a faulted or lost task, or finish it as exhausted."""
        if task.max_attempts is not None and task.attempts >= task.max_attempts:
            self._finish(task, _EXHAUSTED)
        elif task not in self._backlog:
            metrics.inc("cluster.requeues")
            self._enqueue(task)

    def _finish(self, task: _Task, result) -> None:
        del self._tasks[task.key]
        del self._rids[task.rid]
        self._queued_ts.pop(task.rid, None)
        self._send_ts.pop(task.rid, None)
        self._completed.append((task.key, result))
        self._deaths = 0

    def _handle(self, message) -> None:
        kind, wid, rid = message[0], message[1], message[2]
        task = self._rids.get(rid)
        if task is None:
            metrics.inc("cluster.stale_messages")
        if metrics.enabled:
            self._observe(kind, wid, rid, message)
        if kind == "claim":
            self._in_flight[wid] = task
            # any claim, stale or not, takes one spec off the transport
            self._outstanding = max(0, self._outstanding - 1)
            self._top_up()
            return
        self._in_flight.pop(wid, None)
        if task is None:
            return
        if kind == "done":
            metrics.inc("cluster.tasks_done")
            self._finish(task, message[3])
        elif kind == "fault":
            metrics.inc("cluster.tasks_fault")
            if task.on_fault is not None:
                task.on_fault(task.key)
            self._retry(task)
        elif kind == "error":
            metrics.inc("cluster.tasks_error")
            self._finish(task, ClusterError(
                f"worker {self._transport.describe_worker(wid)} running task {task.key} "
                f"(role {self._transport.role!r}) raised unexpectedly:\n{message[3]}"
            ))

    def _observe(self, kind, wid, rid, message) -> None:
        """Telemetry of one message: claim latency, busy time, worker snapshots."""
        now = time.monotonic()
        if kind == "claim":
            self._busy_since[wid] = now
            start = self._send_ts.pop(rid, None)
            if start is not None:
                metrics.observe("cluster.claim_latency_s", now - start)
            return
        self._settle(wid, now)
        # completions may carry the worker's cumulative snapshot as a
        # trailing element (absent on disabled-mode frames)
        base = 3 if kind == "fault" else 4
        tail = message[base] if len(message) > base else None
        if isinstance(tail, dict) and "counters" in tail:
            metrics.merge_source(self._transport.describe_worker(wid), tail)

    def _settle(self, wid, now: float) -> None:
        """Close a worker's busy interval."""
        start = self._busy_since.pop(wid, None)
        if start is not None:
            self._busy_acc[wid] = self._busy_acc.get(wid, 0.0) + (now - start)

    def _check_dead(self) -> None:
        transport = self._transport
        dead = transport.reap_dead()
        if not dead:
            return
        # a dead worker sent its messages synchronously before dying —
        # drain them first so its claim-table entry is authoritative
        while (message := transport.poll(0)) is not None:
            self._handle(message)
        self._deaths += len(dead)
        lost_unclaimed = False
        for wid in dead:
            if metrics.enabled:
                self._settle(wid, time.monotonic())
            if wid not in self._in_flight:
                # died with no claim on record: it may have pulled a spec
                # it never acknowledged
                lost_unclaimed = True
                continue
            task = self._in_flight.pop(wid)
            if task is not None and task.rid in self._rids:
                metrics.inc("cluster.lost_tasks")
                if task.on_lost is not None:
                    task.on_lost(task.key)
                self._retry(task)
        if lost_unclaimed:
            # re-queue every live task neither claimed by a live worker nor
            # already queued; a task that was in fact still queued runs
            # twice (idempotent, results keyed by request id), a swallowed
            # one is recovered instead of hanging forever
            accounted = {task.rid for task in self._in_flight.values() if task is not None}
            accounted.update(task.rid for task in self._backlog)
            requeue = [task for task in self._tasks.values() if task.rid not in accounted]
            metrics.inc("cluster.conservative_requeues", len(requeue))
            for task in requeue:
                self._enqueue(task)
            self._outstanding = 0
        budget = 2 * transport.width + sum(task.max_attempts or 1 for task in self._tasks.values())
        if self._deaths > budget:
            raise WorkerLossError("cluster kept losing workers without making progress")
        target = min(transport.width, max(len(self._tasks), 1))
        while transport.alive_count < target and transport.respawn_one():
            metrics.inc("cluster.respawns")
        if transport.alive_count == 0 and self._tasks:
            raise WorkerLossError(
                f"no live workers remain with {len(self._tasks)} task(s) outstanding"
            )
        self._top_up()

    def close(self) -> None:
        """Stop the workers, then unlink the shared-memory segments the
        service owns (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._transport.close()
        finally:
            for segment in self._segments:
                segment.unlink()

    def __enter__(self) -> "ClusterService":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def open_service(
    role: str,
    graph,
    context: dict,
    *,
    width: int,
    transport: str = "pipe",
    nodes=None,
    shm: bool = True,
    pool=None,
    host_only: dict | None = None,
) -> ClusterService:
    """A :class:`ClusterService` whose ``role`` workers each hold ``graph``.

    The one driver-side place that decides how the graph reaches a
    worker: :func:`~repro.distributed.shm.share_graph` picks the ref and
    roles read it back with :func:`~repro.distributed.shm.attach_graph_ref`.
    Each worker's context is ``context`` plus a ``graph_ref`` entry (and a
    ``pool_ref`` one for a ``(flats, params)`` ``pool``). ``host_only``
    entries are added only where every worker that keeps the context
    shares this host: the pipe transport, or a shared-memory ref, which
    only a same-host worker can attach. Over tcp, a worker whose init
    fails on that context (a remote node cannot reach the segment) is
    sent the serialized-arrays context instead, without ``host_only``; a
    store-backed graph has no such fallback, since materialising its
    features would defeat the memory budget. ``nodes`` lists remote tcp
    workers; without them ``width`` workers are spawned here.

    The service is returned unstarted; it owns the shared-memory
    segments and unlinks them in :meth:`ClusterService.close`.
    """
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}; choose from {TRANSPORTS}")
    nodes = parse_nodes(nodes)
    if nodes and transport != "tcp":
        raise ValueError("worker nodes require transport='tcp'")
    refs, fallback, segments = share_graph(graph, shm, pool)
    primary = {**context, **refs}
    # only a worker on this host can attach one of its segments
    if host_only and (transport == "pipe" or segments):
        primary.update(host_only)
    if transport == "tcp":
        cluster_transport = TcpTransport(
            role,
            primary,
            fallback_context=None if fallback is None else {**context, **fallback},
            nodes=nodes,
            spawn_local=0 if nodes else width,
        )
    else:
        cluster_transport = PipeTransport(role, primary, width=width)
    service = ClusterService(cluster_transport)
    service._segments = segments
    return service
