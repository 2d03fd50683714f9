"""Unified cluster runtime: one claim/done worker service, pluggable transports.

Both phases of the paper's pipeline fan work out to a pool of persistent
workers pulling from a shared queue — Phase 1 trains ingredients with
zero inter-worker communication (§III-A), Phase 2 scores soup candidates
on immutable state (§III-E). Before this module each owned a private copy
of the same worker protocol (``ingredients.py``'s dynamic queue and
``eval_service.py``'s claim/done service); this module is the single
shared core both are built on:

* :class:`ClusterService` — the driver-side task service: work-stealing
  backlog, claim/done bookkeeping, lost-task recovery when a worker dies
  (claimed tasks re-enter the queue; unclaimed losses trigger a
  conservative requeue of everything unaccounted for), respawn-on-death
  bounded by a progress budget, and stale-message tolerance via
  service-unique request ids (messages from an aborted earlier batch can
  never be mis-recorded as this batch's results).
* :class:`WorkerRole` — what a worker *does*: an ``init(context)`` run
  once per worker (attach shared memory, rebuild the graph, open stores)
  and a ``run(state, payload)`` per task. Roles are resolved **by name**
  through :func:`resolve_role` so a worker started on another machine can
  look up the same code path from its own installation.
* **Transports** — how tasks reach workers:

  - :class:`PipeTransport` (same host): worker processes spawned here,
    one shared ``SimpleQueue`` of task specs, results over a lock-guarded
    pipe. ``Connection.send`` is synchronous, so a worker's ``claim`` is
    durable even if it hard-dies on the very next instruction (the
    requeue accounting depends on that). Shared-memory segments
    (:mod:`~repro.distributed.shm`) attach zero-copy.
  - :class:`TcpTransport` (multi-host): the driver connects *out* to
    workers listening on ``host:port`` (started with ``python -m repro
    cluster start-worker``) and/or spawns loopback workers locally.
    Messages are length-prefixed frames (:mod:`~repro.distributed.wire`
    binary fast path, pickle fallback); death is detected by
    connection loss or heartbeat silence. Workers first receive the
    driver's preferred context (which may reference shared-memory
    segments — reachable when the worker shares the host); a worker
    whose init fails (e.g. cross-node, where the segment name resolves
    to nothing) reports ``init-error`` and is sent the serialized
    fallback payload instead — pushed once per worker, not per task.
    Either way the worker holds the whole graph once its handshake ends.

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
from pathlib import Path
from typing import Callable, Sequence

import multiprocessing as mp

from ..telemetry import BYTE_BUCKETS, metrics
from .wire import WireFormatError, decode_frame, encode_frame

__all__ = [
    "TRANSPORTS",
    "ClusterError",
    "WorkerLossError",
    "WorkerRole",
    "ClusterService",
    "ClusterStream",
    "PipeTransport",
    "TcpTransport",
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

    Small results keep the historical single ``done`` frame byte-for-byte.
    Above the streaming threshold the result is pickled **once**, cut
    into bounded ``("result-chunk", wid, rid, seq, total, bytes)`` frames,
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
        if kind == "done" and len(message) >= 4 and message[3] == _STREAMED:
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


def _pipe_worker_main(
    worker_id, task_queue, result_writer, result_lock, role_name, context, telemetry=False
):
    """Body of one persistent pipe-transport worker process.

    Pulls pickled ``(rid, payload)`` specs until the ``None`` sentinel.
    Every attempt is bracketed by a ``claim`` message so the driver knows
    which task died with the worker; completions, declared faults and
    unexpected errors each report their own message kind. With
    ``telemetry`` on, completions carry the worker's cumulative metrics
    snapshot as a trailing element (the driver aggregates it; disabled
    runs keep the historical message shapes byte-for-byte).

    Result messages go through a raw pipe guarded by a shared lock —
    ``Connection.send_bytes`` is *synchronous*, so once it returns the
    message is in the pipe even if the worker hard-dies on the very next
    instruction. (A ``multiprocessing.Queue`` would buffer through a
    feeder thread that ``os._exit`` silently kills, losing the claim that
    the driver's requeue accounting depends on.)
    """
    # under fork the registry arrives pre-filled with the driver's values
    metrics.reset()
    metrics.set_enabled(bool(telemetry))
    tel = metrics.enabled
    if tel:
        metrics.meta = {
            "source": f"pipe:w{worker_id}", "role": role_name,
            "transport": "pipe", "pid": os.getpid(),
        }

    def put(message):
        data = encode_frame(message)
        if tel:
            metrics.inc("transport.frames_sent")
            metrics.inc(_frame_format_counter(data))
            metrics.inc("transport.bytes_sent", len(data))
            metrics.observe("transport.frame_bytes_sent", len(data), BYTE_BUCKETS)
        with result_lock:
            result_writer.send_bytes(data)

    role = resolve_role(role_name)
    with metrics.span("worker.init", role=role_name):
        state = role.init(context)
    while True:
        item = task_queue.get()
        if item is None:
            return
        if tel:
            t0 = time.perf_counter()
            _kind, rid, payload = decode_frame(item)
            metrics.observe("transport.deserialize_s", time.perf_counter() - t0)
            metrics.inc("transport.frames_received")
            metrics.inc("transport.bytes_received", len(item))
        else:
            _kind, rid, payload = decode_frame(item)
        put(("claim", worker_id, rid))
        try:
            with metrics.span(f"task:{role_name}", rid=rid):
                result = role.run(state, payload)
        except role.fault_types:
            put(("fault", worker_id, rid, metrics.snapshot()) if tel else ("fault", worker_id, rid))
        except BaseException:
            tb = traceback.format_exc()
            put(("error", worker_id, rid, tb, metrics.snapshot()) if tel else ("error", worker_id, rid, tb))
        else:
            metrics.inc("worker.tasks_done")
            _send_result(put, worker_id, rid, result, metrics.snapshot() if tel else None)


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
        self._context_value = self._context() if callable(self._context) else self._context
        self._started = True
        for _ in range(self.width):
            self._spawn()

    def _spawn(self) -> None:
        proc = self._mp.Process(
            target=_pipe_worker_main,
            args=(
                self._next_wid, self._task_queue, self._writer, self._lock,
                self.role, self._context_value, metrics.enabled,
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
        except Exception:
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

    init = _recv_frame(conn)
    if init is None or init[0] != "init":
        return
    # length-4 frames are the historical handshake; a 5th element carries
    # session options (telemetry flag, the driver's name for this worker)
    role_name, worker_id, context = init[1], init[2], init[3]
    options = init[4] if len(init) > 4 and isinstance(init[4], dict) else {}
    metrics.reset()  # sessions are independent runs; fork may pre-fill the registry
    if options.get("telemetry"):
        metrics.set_enabled(True)
    tel = metrics.enabled
    if tel:
        metrics.meta = {
            "source": options.get("ident", f"tcp:w{worker_id}"), "role": role_name,
            "transport": "tcp", "pid": os.getpid(),
        }
    role = resolve_role(role_name)
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
        while True:
            message = _recv_frame(conn)
            if message is None or message[0] == "stop":
                return
            _, rid, payload = message
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
    except Exception:
        pass
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
        self._context_value = None
        self._fallback_value = None
        self._fallback_frame_bytes = None
        #: per-worker context bytes shipped at handshake (never pruned:
        #: the record outlives the worker, like labels)
        self.payload_bytes: dict[int, int] = {}
        self._started = False

    # -- contexts ------------------------------------------------------------

    def _primary_context(self):
        if self._context_value is None:
            self._context_value = self._context() if callable(self._context) else self._context
        return self._context_value

    def _fallback_context(self):
        if self._fallback is None:
            return None
        if self._fallback_value is None:
            self._fallback_value = (
                self._fallback() if callable(self._fallback) else self._fallback
            )
        return self._fallback_value

    def _fallback_frame(self) -> bytes | None:
        """The fallback-context push frame, serialized exactly once.

        Historically every connecting worker re-pickled the (large —
        it carries the whole graph) fallback payload; the encoded bytes
        are identical per worker, so they are cached and reused.
        """
        if self._fallback_frame_bytes is None:
            fallback = self._fallback_context()
            if fallback is None:
                return None
            self._fallback_frame_bytes = encode_frame(("context", fallback))
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
            if metrics.enabled:
                # a 5th handshake element turns on worker-side collection;
                # disabled runs keep the historical 4-tuple byte-for-byte
                init = ("init", self.role, wid, self._primary_context(),
                        {"telemetry": True, "ident": label})
            else:
                init = ("init", self.role, wid, self._primary_context())
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


class ClusterService:
    """Generic claim/done task service over persistent workers.

    One service drives one transport; ``run`` dispatches a batch of keyed
    tasks and returns ``(results_by_key, exhausted_keys)``. The service
    owns every piece of protocol bookkeeping the two phases used to
    duplicate:

    * request ids unique across the service lifetime, so messages left
      over from an aborted earlier batch are recognised as stale and
      dropped;
    * the claim table mapping workers to in-flight tasks, so a worker
      that dies mid-task has its claimed work re-queued — and a worker
      that dies *between* pulling a spec and claiming it triggers a
      conservative requeue of every unaccounted-for task (a duplicate
      execution is keyed by request id, so it wastes work, never
      correctness);
    * the respawn budget: every legitimate death consumes a task
      attempt, so a pool that keeps dying without making progress raises
      :class:`WorkerLossError` instead of spinning.
    """

    def __init__(self, transport) -> None:
        self._transport = transport
        self._next_rid = 0
        self._started = False
        self._closed = False

    @property
    def transport(self):
        return self._transport

    def start(self) -> None:
        if self._closed:
            raise ClusterError("cluster service is closed")
        if not self._started:
            self._transport.start()
            self._started = True

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
        """
        if self._closed:
            raise ClusterError("cluster service is closed")
        self.start()
        keys = list(keys)
        if not keys:
            return {}, []
        if len(set(keys)) != len(keys):
            raise ValueError("task keys must be unique")
        transport = self._transport
        results: dict = {}
        exhausted: set = set()
        submits = {key: 0 for key in keys}
        rid_key: dict[int, object] = {}
        key_rid: dict[object, int] = {}
        for key in keys:
            rid = self._next_rid
            self._next_rid += 1
            rid_key[rid] = key
            key_rid[key] = rid
        backlog: deque = deque(keys)
        in_flight: dict[int, object] = {}  # worker id -> claimed key (None = stale claim)
        outstanding = 0  # attempts handed to the transport but not yet claimed
        # every legitimate death consumes a task attempt, so a pool that
        # keeps dying without making progress is a bug, not a fault
        respawn_budget = transport.width + sum(max_attempts or 1 for _ in keys)

        tel = metrics.enabled
        run_start = time.monotonic()
        queued_ts = dict.fromkeys(keys, run_start) if tel else {}  # key -> backlog entry time
        send_ts: dict[int, float] = {}  # rid -> dispatch time (claim latency)
        busy_since: dict[int, float] = {}  # wid -> claim time of current task
        busy_acc: dict[int, float] = {}  # wid -> accumulated busy seconds

        def describe(wid):
            fn = getattr(transport, "describe_worker", None)
            return fn(wid) if fn is not None else f"{transport.name}:w{wid}"

        def settle(wid, now):
            """Close a worker's busy interval on task completion."""
            start = busy_since.pop(wid, None)
            if start is not None:
                busy_acc[wid] = busy_acc.get(wid, 0.0) + (now - start)

        def top_up():
            nonlocal outstanding
            while backlog and transport.can_accept(outstanding):
                key = backlog.popleft()
                submits[key] += 1
                if tel:
                    now = time.monotonic()
                    metrics.observe("cluster.queue_wait_s", now - queued_ts.pop(key, run_start))
                    send_ts[key_rid[key]] = now
                transport.send(key_rid[key], payload_fn(key, submits[key]))
                outstanding += 1

        def retry_or_exhaust(key):
            if max_attempts is not None and submits[key] >= max_attempts:
                exhausted.add(key)
            else:
                metrics.inc("cluster.requeues")
                if tel:
                    queued_ts[key] = time.monotonic()
                backlog.append(key)
                top_up()

        def handle(message):
            nonlocal outstanding
            kind, wid, rid = message[0], message[1], message[2]
            stale = rid not in rid_key
            if stale:
                metrics.inc("cluster.stale_messages")
            key = rid_key.get(rid)
            if tel and kind in ("done", "fault", "error"):
                # completions may carry the worker's cumulative snapshot
                # as a trailing element (absent on disabled-mode frames)
                base = 4 if kind in ("done", "error") else 3
                tail = message[base] if len(message) > base else None
                if isinstance(tail, dict) and "counters" in tail:
                    metrics.merge_source(describe(wid), tail)
            if kind == "claim":
                in_flight[wid] = key
                if tel:
                    now = time.monotonic()
                    busy_since[wid] = now
                    start = send_ts.pop(rid, None)
                    if start is not None:
                        metrics.observe("cluster.claim_latency_s", now - start)
                if not stale:
                    outstanding = max(0, outstanding - 1)
                top_up()
            elif kind == "done":
                in_flight.pop(wid, None)
                if tel:
                    settle(wid, time.monotonic())
                if not stale and key not in results and key not in exhausted:
                    metrics.inc("cluster.tasks_done")
                    results[key] = message[3]
                    if on_done is not None:
                        on_done(key, message[3])
            elif kind == "fault":
                in_flight.pop(wid, None)
                if tel:
                    settle(wid, time.monotonic())
                if stale:
                    return
                metrics.inc("cluster.tasks_fault")
                if on_fault is not None:
                    on_fault(key)
                if key not in results:
                    retry_or_exhaust(key)
            elif kind == "error":
                in_flight.pop(wid, None)
                if tel:
                    settle(wid, time.monotonic())
                if not stale:
                    metrics.inc("cluster.tasks_error")
                    raise ClusterError(
                        f"worker {describe(wid)} running {label} {key} "
                        f"(role {transport.role!r}) raised unexpectedly:\n{message[3]}"
                    )

        top_up()
        while len(results) + len(exhausted) < len(keys):
            message = transport.poll(0.2)
            if message is not None:
                handle(message)
                # a completion frees capacity on transports whose dispatch
                # tracks busy workers (tcp); a claim frees lookahead slots
                # on the pipe's shared queue — either way, refill now
                top_up()
                continue
            dead = transport.reap_dead()
            if not dead:
                continue
            # a dead worker sent its messages synchronously before dying —
            # drain them first so its claim-table entry is authoritative
            while True:
                message = transport.poll(0)
                if message is None:
                    break
                handle(message)
            lost_unclaimed = False
            for wid in dead:
                if tel:
                    settle(wid, time.monotonic())
                if wid in in_flight:
                    key = in_flight.pop(wid)
                    if key is not None:
                        metrics.inc("cluster.lost_tasks")
                        if on_lost is not None:
                            on_lost(key)
                        if key not in results:
                            retry_or_exhaust(key)
                else:
                    # died with no claim on record: it may have pulled a
                    # spec it never acknowledged
                    lost_unclaimed = True
            if lost_unclaimed:
                # re-queue every task not finished, not claimed by a live
                # worker and not already queued for re-dispatch; a task
                # that was in fact still queued runs twice (idempotent,
                # results keyed by request id), a swallowed one is
                # recovered instead of hanging the batch forever
                accounted = {key for key in in_flight.values() if key is not None}
                accounted.update(backlog)
                requeue = [
                    key for key in keys
                    if key not in results and key not in exhausted and key not in accounted
                ]
                metrics.inc("cluster.conservative_requeues", len(requeue))
                if tel:
                    now = time.monotonic()
                    for key in requeue:
                        queued_ts[key] = now
                backlog.extend(requeue)
                outstanding = 0
            remaining = len(keys) - len(results) - len(exhausted)
            target = min(transport.width, remaining)
            while transport.alive_count < target:
                if respawn_budget <= 0:
                    raise WorkerLossError(
                        f"cluster kept losing {label} workers without making progress"
                    )
                if not transport.respawn_one():
                    break
                metrics.inc("cluster.respawns")
                respawn_budget -= 1
            if transport.alive_count == 0 and remaining > 0:
                raise WorkerLossError(
                    f"no live workers remain with {remaining} {label}(s) outstanding"
                )
            top_up()
        if tel:
            end = time.monotonic()
            for wid, start in busy_since.items():  # still mid-task at batch end
                busy_acc[wid] = busy_acc.get(wid, 0.0) + (end - start)
            elapsed = max(end - run_start, 1e-9)
            for wid, busy in busy_acc.items():
                metrics.set_gauge(f"cluster.utilization.{describe(wid)}", busy / elapsed)
            metrics.observe("cluster.batch_s", elapsed)
            metrics.record_span(f"cluster.run:{label}", run_start, elapsed, tasks=len(keys))
        return results, sorted(exhausted)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._started:
            self._transport.close()

    def __enter__(self) -> "ClusterService":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class ClusterStream:
    """Incremental claim/done dispatch for long-lived services.

    :meth:`ClusterService.run` drives one *finite* batch of tasks to
    completion and returns; a serving frontend instead submits tasks as
    requests arrive and collects completions as they finish, indefinitely.
    This class exposes the same worker protocol incrementally:
    :meth:`submit` enqueues one keyed task, :meth:`poll` pumps the
    transport and returns every task that completed since the last call
    as ``(key, result)`` pairs.

    The batch service's protections carry over unchanged:

    * request ids unique across the stream lifetime, so frames left over
      from a task that already completed (a duplicate execution after a
      conservative requeue) are recognised as stale and dropped;
    * the claim table: a worker that dies mid-task has its claimed task
      resubmitted, and a death with no claim on record conservatively
      requeues every unaccounted-for task;
    * respawn bounded by progress — deaths are counted *since the last
      completion*, so a pool that keeps dying without finishing anything
      raises :class:`WorkerLossError` instead of spinning forever (any
      completion resets the budget, which is what "long-lived" needs).

    Tasks must be idempotent: a lost task is resubmitted, and a task a
    dead worker had in fact swallowed may execute twice. A worker-side
    *error* (a bug, not a death) completes that task with the
    :class:`ClusterError` as its result value — one failed request must
    not tear down a server with other requests in flight; the caller
    inspects ``isinstance(result, Exception)``.

    Single-consumer: call ``submit``/``poll``/``close`` from one thread.
    """

    def __init__(self, transport) -> None:
        self._transport = transport
        self._next_rid = 0
        self._rid_key: dict[int, object] = {}  # live tasks only
        self._key_rid: dict[object, int] = {}
        self._payloads: dict[object, object] = {}  # kept for resubmission
        self._backlog: deque = deque()
        self._in_flight: dict[int, object] = {}  # worker id -> claimed key
        self._outstanding = 0  # sent to the transport but not yet claimed
        self._completed: list[tuple[object, object]] = []
        self._deaths_since_progress = 0
        self._send_ts: dict[int, float] = {}
        self._queued_ts: dict[object, float] = {}
        self._closed = False
        transport.start()

    @property
    def transport(self):
        return self._transport

    @property
    def width(self) -> int:
        return self._transport.width

    def pending(self) -> int:
        """Live (submitted, not yet completed) task count."""
        return len(self._key_rid)

    def submit(self, key, payload) -> None:
        """Enqueue one task; its completion arrives via :meth:`poll`."""
        if self._closed:
            raise ClusterError("cluster stream is closed")
        if key in self._key_rid:
            raise ValueError(f"task key {key!r} is already in flight")
        rid = self._next_rid
        self._next_rid += 1
        self._rid_key[rid] = key
        self._key_rid[key] = rid
        self._payloads[key] = payload
        if metrics.enabled:
            self._queued_ts[key] = time.monotonic()
        self._backlog.append(key)
        self._top_up()

    def _top_up(self) -> None:
        transport = self._transport
        while self._backlog and transport.can_accept(self._outstanding):
            key = self._backlog.popleft()
            if key not in self._key_rid:  # completed while still queued
                continue
            rid = self._key_rid[key]
            if metrics.enabled:
                now = time.monotonic()
                queued = self._queued_ts.pop(key, None)
                if queued is not None:
                    metrics.observe("cluster.queue_wait_s", now - queued)
                self._send_ts[rid] = now
            transport.send(rid, self._payloads[key])
            self._outstanding += 1

    def _requeue(self, key) -> None:
        if key in self._key_rid and key not in self._backlog:
            metrics.inc("cluster.requeues")
            if metrics.enabled:
                self._queued_ts[key] = time.monotonic()
            self._backlog.append(key)

    def _finish(self, key, result) -> None:
        rid = self._key_rid.pop(key)
        self._rid_key.pop(rid, None)
        self._payloads.pop(key, None)
        self._send_ts.pop(rid, None)
        self._queued_ts.pop(key, None)
        self._completed.append((key, result))
        self._deaths_since_progress = 0

    def _handle(self, message) -> None:
        kind, wid, rid = message[0], message[1], message[2]
        if rid not in self._rid_key:
            metrics.inc("cluster.stale_messages")
            if kind in ("done", "fault", "error"):
                self._in_flight.pop(wid, None)
            elif kind == "claim":
                self._in_flight[wid] = None
            return
        key = self._rid_key[rid]
        if kind == "claim":
            self._in_flight[wid] = key
            self._outstanding = max(0, self._outstanding - 1)
            if metrics.enabled:
                start = self._send_ts.pop(rid, None)
                if start is not None:
                    metrics.observe("cluster.claim_latency_s", time.monotonic() - start)
            self._top_up()
        elif kind == "done":
            self._in_flight.pop(wid, None)
            metrics.inc("cluster.tasks_done")
            self._finish(key, message[3])
        elif kind == "fault":
            # serving roles declare no fault types; treat a declared fault
            # like a loss — idempotent tasks simply go around again
            self._in_flight.pop(wid, None)
            metrics.inc("cluster.tasks_fault")
            self._requeue(key)
        elif kind == "error":
            self._in_flight.pop(wid, None)
            metrics.inc("cluster.tasks_error")
            describe = getattr(self._transport, "describe_worker", None)
            label = describe(wid) if describe is not None else f"{self._transport.name}:w{wid}"
            self._finish(
                key,
                ClusterError(
                    f"worker {label} running task {key} "
                    f"(role {self._transport.role!r}) raised unexpectedly:\n{message[3]}"
                ),
            )

    def _check_dead(self) -> None:
        transport = self._transport
        dead = transport.reap_dead()
        if not dead:
            return
        # a dead worker sent its messages synchronously before dying —
        # drain them first so its claim-table entry is authoritative
        while True:
            message = transport.poll(0)
            if message is None:
                break
            self._handle(message)
        self._deaths_since_progress += len(dead)
        lost_unclaimed = False
        for wid in dead:
            if wid in self._in_flight:
                key = self._in_flight.pop(wid)
                if key is not None:
                    metrics.inc("cluster.lost_tasks")
                    self._requeue(key)
            else:
                lost_unclaimed = True
        if lost_unclaimed:
            accounted = {key for key in self._in_flight.values() if key is not None}
            accounted.update(self._backlog)
            requeue = [key for key in self._key_rid if key not in accounted]
            metrics.inc("cluster.conservative_requeues", len(requeue))
            if metrics.enabled:
                now = time.monotonic()
                for key in requeue:
                    self._queued_ts[key] = now
            self._backlog.extend(requeue)
            self._outstanding = 0
        if self._deaths_since_progress > 2 * transport.width + 4:
            raise WorkerLossError(
                "cluster stream kept losing workers without completing a task"
            )
        target = min(transport.width, max(len(self._key_rid), 1))
        while transport.alive_count < target:
            if not transport.respawn_one():
                break
            metrics.inc("cluster.respawns")
        if transport.alive_count == 0 and self._key_rid:
            raise WorkerLossError(
                f"no live workers remain with {len(self._key_rid)} task(s) outstanding"
            )
        self._top_up()

    def poll(self, timeout: float = 0.0) -> list[tuple[object, object]]:
        """Pump the transport for up to ``timeout`` seconds; return every
        task that completed (``(key, result)``, completion order). Returns
        as soon as at least one completion is available."""
        if self._closed:
            raise ClusterError("cluster stream is closed")
        self._top_up()
        deadline = time.monotonic() + max(timeout, 0.0)
        while True:
            if self._completed:
                out = self._completed
                self._completed = []
                return out
            remaining = deadline - time.monotonic()
            message = self._transport.poll(min(remaining, 0.05) if remaining > 0 else 0)
            if message is not None:
                self._handle(message)
                # drain whatever else already arrived before returning
                while True:
                    message = self._transport.poll(0)
                    if message is None:
                        break
                    self._handle(message)
                self._top_up()
                continue
            self._check_dead()
            if remaining <= 0 and not self._completed:
                return []

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._transport.close()

    def __enter__(self) -> "ClusterStream":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
