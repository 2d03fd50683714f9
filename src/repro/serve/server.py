"""The serving frontend: coalescing, dispatch, caching, replies.

:class:`PredictionServer` is the long-lived process behind
``python -m repro serve``. It listens on a TCP socket speaking the same
length-prefixed pickled-frame protocol as the cluster transports,
coalesces incoming node-prediction requests into batches, and answers
them from three layers, cheapest first:

1. the **LRU node cache** (:class:`~repro.serve.cache.NodeCache`) — a
   request whose nodes are all cached replies immediately, no batching,
   no worker;
2. the **coalescing buffer** — missing nodes join a deduplicated FIFO
   batch that flushes when it reaches the (adaptive) max-batch size or
   its oldest node has waited ``max_wait_s``;
3. the **backend** — a flush becomes one task submitted to a
   :class:`~repro.distributed.cluster.ClusterService` over pipe or tcp
   workers running the ``"serve"`` role, collected with its ``poll`` (or
   an in-process model for ``backend="serial"``). Up to ``width + 2``
   flushes are in flight at once, so workers pipeline while the buffer
   refills.

Why coalescing is maximal here: a flush runs the forward on its rows'
``L``-hop field (layered blocks, :func:`~repro.graph.blocks.forward_field`),
capped at one full-graph pass. Fields of different rows overlap heavily
(on products at scale 0.5, 8 random nodes already reach ~2,500 input
rows), so one wide flush costs far less than the same rows split into
narrow ones. Splitting a batch across workers would repeat the shared
field, not divide it; instead, worker parallelism comes from
*concurrent* flushes. The limit trades batch width against field size: a
wider flush amortises more shared field but takes longer to return. The
adaptive limit grows it under backlog pressure and decays it back when
traffic thins.

Determinism: batches are formed deterministically (first-want FIFO
order, deduplicated), and — the contract that matters — a node's score
row is computed by the single scoring path
(:meth:`~repro.serve.model.ServedModel.scores_at`: a forward on the
flush's blocks or the whole graph, each bit-identical to the full pass
at every row), so identical request sets produce bit-identical
predictions regardless of arrival order, batching, caching, or backend.

Worker death mid-request is the cluster service's problem, not ours: the
lost flush is conservatively resubmitted and the request completes on a
survivor or a respawn. A worker-side *error* fails only the requests
waiting on that flush; the server keeps serving. A fault in the serve
loop itself (a bug) stops serving loudly: it is counted as
``serve.internal_errors``, its traceback printed, the waiting requests
failed, and the listener and every client connection closed, so clients
get an error at once instead of waiting out their timeout.

Security note: like the cluster wire protocol this frontend speaks
unauthenticated pickle — bind it to loopback (the default) or a trusted
network only.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

from ..distributed.cluster import (
    TRANSPORTS,
    ClusterError,
    WorkerLossError,
    _configure_socket,
    _recv_frame,
    _send_frame,
    open_service,
    parse_nodes,
)
from ..distributed.scheduler import _validate_num_workers
from ..distributed.wire import WireFormatError
from ..telemetry import metrics
from .cache import NodeCache
from .model import ServedModel, state_digest, state_to_wire

__all__ = ["BACKENDS", "PredictionServer", "ServeConfig"]

#: Serving backends: in-process scoring, or cluster workers per transport.
BACKENDS = ("serial",) + TRANSPORTS

#: Histogram buckets for batch sizes (node counts, not seconds).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 4096.0)


@dataclass
class ServeConfig:
    """Knobs of one serving process.

    ``max_batch`` is the *base* coalescing limit; with ``adaptive=True``
    it may grow up to ``max_batch_cap`` under backlog pressure and decays
    back when traffic thins. ``max_wait_s`` bounds how long a lone
    request waits for company. ``cache_nodes`` sizes the frontend LRU
    (0 disables).
    """

    backend: str = "serial"
    num_workers: int = 2
    nodes: object = None  # ["host:port", ...] for backend="tcp"
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral
    max_batch: int = 64
    max_batch_cap: int = 4096
    max_wait_s: float = 0.002
    adaptive: bool = True
    cache_nodes: int = 4096
    shm: bool = True

    def validate(self) -> "ServeConfig":
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown serving backend {self.backend!r}; choose from {BACKENDS}")
        self.nodes = parse_nodes(self.nodes)
        if self.nodes and self.backend != "tcp":
            raise ValueError("worker nodes require backend='tcp'")
        if self.backend != "serial":
            self.num_workers = _validate_num_workers(self.num_workers)
        if int(self.max_batch) < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        self.max_batch = int(self.max_batch)
        self.max_batch_cap = max(int(self.max_batch_cap), self.max_batch)
        if float(self.max_wait_s) < 0:
            raise ValueError(f"max_wait_s cannot be negative, got {self.max_wait_s}")
        self.max_wait_s = float(self.max_wait_s)
        if int(self.cache_nodes) < 0:
            raise ValueError(f"cache_nodes cannot be negative, got {self.cache_nodes}")
        self.cache_nodes = int(self.cache_nodes)
        return self


class _AdaptiveLimit:
    """The adaptive max-batch knob.

    Grows (doubles, up to ``cap``) whenever a flush leaves more backlog
    than the current limit — the buffer is filling faster than we drain
    it. Decays (halves, down to ``base``) after 8 consecutive flushes
    under a quarter full — traffic thinned, shrink reply payloads back.
    A fixed knob is ``adaptive=False``: ``on_flush`` is never called.
    """

    def __init__(self, base: int, cap: int) -> None:
        self.base = int(base)
        self.cap = max(int(cap), self.base)
        self.value = self.base
        self._under = 0

    def on_flush(self, batch_size: int, backlog: int) -> None:
        before = self.value
        if backlog > self.value:
            self.value = min(self.value * 2, self.cap)
            self._under = 0
        elif batch_size * 4 <= self.value:
            self._under += 1
            if self._under >= 8:
                self.value = max(self.value // 2, self.base)
                self._under = 0
        else:
            self._under = 0
        if self.value != before and metrics.enabled:
            metrics.set_gauge("serve.max_batch", self.value)


class _SerialBackend:
    """In-process backend with the ClusterService submit/poll surface."""

    width = 1

    def __init__(self, model: ServedModel) -> None:
        self._model = model
        self._done: list[tuple[object, object]] = []

    def submit(self, key, node_ids) -> None:
        try:
            result: object = self._model.scores_at(node_ids)
        except Exception as exc:
            result = exc
        self._done.append((key, result))

    def poll(self, timeout: float = 0.0) -> list[tuple[object, object]]:
        out, self._done = self._done, []
        return out

    def close(self) -> None:
        pass


class _ClientConn:
    """One connected client: its socket, a send lock, liveness."""

    __slots__ = ("sock", "lock", "alive")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.lock = threading.Lock()
        self.alive = True


class _Request:
    """One in-flight predict request and the rows it still needs."""

    __slots__ = ("conn", "req_id", "ids", "rows", "needed", "ts", "dead")

    def __init__(self, conn, req_id, ids, rows, needed, ts) -> None:
        self.conn = conn
        self.req_id = req_id
        self.ids = ids  # original order, duplicates preserved
        self.rows = rows  # node id -> score row (filled from cache + flushes)
        self.needed = needed  # node ids still missing
        self.ts = ts
        self.dead = False  # failed or replied; skip on later completions


class PredictionServer:
    """A soup model behind a socket. See the module docstring for design.

    ``start()`` binds the listener and spins the accept/serve threads and
    returns (tests drive it in-process); ``serve_forever()`` additionally
    blocks until a client sends ``shutdown`` or ``close()`` is called.
    """

    def __init__(self, model_config: dict, graph, states, ensemble: bool = False, config: ServeConfig | None = None) -> None:
        self.config = (config or ServeConfig()).validate()
        self._model_config = dict(model_config)
        self._graph = graph
        self._states = [dict(s) if hasattr(s, "items") else dict(state_to_wire(s)) for s in states]
        self._ensemble = bool(ensemble)
        self.digest = state_digest(self._states)
        self._cache = NodeCache(self.config.cache_nodes)
        self._limit = _AdaptiveLimit(self.config.max_batch, self.config.max_batch_cap if self.config.adaptive else self.config.max_batch)

        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._conns: set[_ClientConn] = set()
        self._conns_lock = threading.Lock()
        self._want: dict[int, list[_Request]] = {}  # node -> waiting requests
        self._want_order: list[int] = []  # un-flushed nodes, first-want FIFO
        self._want_ts: dict[int, float] = {}
        self._inflight: dict[int, list[int]] = {}  # flush key -> its nodes
        self._inflight_nodes: set[int] = set()
        self._next_flush = 0
        self._pending_requests = 0

        self._backend = None
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._started = False
        self._closed = False
        self._start_ts = time.monotonic()

        # stats counters (always on — stats replies must not need telemetry)
        self.requests = 0
        self.replies = 0
        self.errors = 0
        self.flushes = 0
        self.batched_nodes = 0

    # -- construction --------------------------------------------------------

    def _build_backend(self):
        cfg = self.config
        if cfg.backend == "serial":
            return _SerialBackend(
                ServedModel(self._model_config, self._graph, self._states, ensemble=self._ensemble)
            )
        service = open_service(
            "serve",
            self._graph,
            {
                "model_config": dict(self._model_config),
                "states": tuple(state_to_wire(s) for s in self._states),
                "ensemble": self._ensemble,
            },
            width=cfg.num_workers,
            transport=cfg.backend,
            nodes=cfg.nodes,
            shm=cfg.shm,
        )
        service.start()
        return service

    @property
    def width(self) -> int:
        return self._backend.width if self._backend is not None else 0

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the server listens on (after ``start()``)."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        addr = self._listener.getsockname()
        return addr[0], addr[1]

    def start(self) -> "PredictionServer":
        if self._started:
            return self
        if self._closed:
            raise RuntimeError("prediction server is closed")
        self._started = True
        try:
            self._backend = self._build_backend()
            self._max_inflight = self._backend.width + 2
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.config.host, self.config.port))
            listener.listen(64)
            self._listener = listener
            accept = threading.Thread(target=self._accept_loop, daemon=True, name="serve-accept")
            loop = threading.Thread(target=self._serve_loop, daemon=True, name="serve-loop")
            self._threads = [accept, loop]
            accept.start()
            loop.start()
        except BaseException:
            self.close()
            raise
        return self

    def serve_forever(self) -> None:
        """Run until a client ``shutdown`` frame or :meth:`close`."""
        self.start()
        self._stop.wait()
        self.close()

    # -- connection handling (accept + reader threads) -----------------------

    def _hello(self) -> dict:
        return {
            "proto": "repro-serve/1",
            "digest": self.digest,
            "graph": self._graph.name,
            "num_nodes": int(self._graph.num_nodes),
            "num_classes": int(self._graph.num_classes),
            "ensemble": self._ensemble,
            "backend": self.config.backend,
        }

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            try:
                _configure_socket(sock)
                conn = _ClientConn(sock)
                _send_frame(sock, ("hello", self._hello()))
            except OSError:
                sock.close()
                continue
            with self._conns_lock:
                # the serve loop's hang-up sets the stop flag, then closes
                # the conns it finds under this lock: never add one after
                stopped = self._stop.is_set()
                if not stopped:
                    self._conns.add(conn)
            if stopped:
                sock.close()
                return
            threading.Thread(
                target=self._reader_loop, args=(conn,), daemon=True, name="serve-reader"
            ).start()

    def _reader_loop(self, conn: _ClientConn) -> None:
        try:
            while (frame := _recv_frame(conn.sock)) is not None:
                self._inbox.put(("request", conn, frame, time.monotonic()))
        except WireFormatError:
            metrics.inc("serve.bad_frames")
        except (OSError, ClusterError):
            # the client reset or went away mid-frame. Anything else is a
            # bug and surfaces through threading.excepthook after the
            # finally below.
            pass
        finally:
            conn.alive = False
            self._inbox.put(("gone", conn))

    def _reply(self, conn: _ClientConn, frame) -> None:
        if not conn.alive:
            return
        try:
            with conn.lock:
                _send_frame(conn.sock, frame)
        except OSError:
            conn.alive = False

    # -- the serve loop ------------------------------------------------------

    def _serve_loop(self) -> None:
        try:
            while not self._stop.is_set():
                now = time.monotonic()
                try:
                    event = self._inbox.get(timeout=self._tick(now))
                except queue.Empty:
                    event = None
                while event is not None:
                    self._handle_event(event)
                    try:
                        event = self._inbox.get_nowait()
                    except queue.Empty:
                        event = None
                self._maybe_flush(time.monotonic())
                if self._inflight:
                    for key, result in self._backend.poll(0.005):
                        self._complete(key, result)
                    self._maybe_flush(time.monotonic())
        except WorkerLossError as exc:
            self._fail_all(f"serving backend lost its workers: {exc}")
            self._stop.set()
            self._hang_up()
        except Exception as exc:
            metrics.inc("serve.internal_errors")
            traceback.print_exc()
            self._fail_all(f"internal serving error: {exc!r}")
            self._stop.set()
            self._hang_up()

    def _tick(self, now: float) -> float:
        """How long the loop may sleep on the inbox right now."""
        if self._inflight:
            return 0.002
        if self._want_order:
            deadline = self._want_ts[self._want_order[0]] + self.config.max_wait_s
            return min(max(deadline - now, 0.0), 0.05)
        return 0.2

    def _handle_event(self, event) -> None:
        kind = event[0]
        if kind == "gone":
            conn = event[1]
            with self._conns_lock:
                self._conns.discard(conn)
            conn.sock.close()  # its reader has exited; replies skip dead conns
            return
        if kind == "wake":
            return
        _kind, conn, frame, ts = event
        if type(frame) is not tuple or len(frame) < 2:
            # no request id to address an error reply to: hang up. The
            # shutdown wakes the reader, whose "gone" event closes the socket
            metrics.inc("serve.bad_frames")
            conn.alive = False
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            return
        op, req_id = frame[0], frame[1]
        if type(op) is not str:
            self._fail(conn, req_id, f"request op must be a string, got {type(op).__name__}")
        elif op == "predict":
            if len(frame) != 3:
                self._fail(conn, req_id, "predict takes (op, request id, node ids)")
            else:
                self._admit(conn, req_id, frame[2], ts)
        elif op == "stats":
            self._reply(conn, ("ok", req_id, self.stats()))
        elif op == "ping":
            self._reply(conn, ("ok", req_id, "pong"))
        elif op == "shutdown":
            self._reply(conn, ("ok", req_id, True))
            self._stop.set()
        else:
            self._fail(conn, req_id, f"unknown request op {op!r}")

    def _admit(self, conn: _ClientConn, req_id, raw_ids, ts: float) -> None:
        self.requests += 1
        metrics.inc("serve.requests")
        try:
            ids = [int(x) for x in np.asarray(raw_ids, dtype=np.int64).ravel()]
        except (TypeError, ValueError, OverflowError) as exc:
            self._fail(conn, req_id, f"bad node ids: {exc}")
            return
        bad = [n for n in ids if n < 0 or n >= self._graph.num_nodes]
        if bad:
            # rejected at admission so one bad request can't poison the
            # well-formed requests it would have been coalesced with
            self._fail(conn, req_id, f"node id(s) {bad[:8]} outside [0, {self._graph.num_nodes})")
            return
        hits, misses = self._cache.lookup(ids)
        req = _Request(conn, req_id, ids, hits, set(misses), ts)
        if not misses:
            self._finish(req, cached=True)
            return
        self._pending_requests += 1
        if metrics.enabled:
            metrics.set_gauge("serve.pending_requests", self._pending_requests)
        now = time.monotonic()
        for node in misses:
            waiting = self._want.get(node)
            if waiting is not None:
                waiting.append(req)
            else:
                self._want[node] = [req]
                if node not in self._inflight_nodes:
                    self._want_order.append(node)
                    self._want_ts[node] = now

    def _maybe_flush(self, now: float) -> None:
        while self._want_order and len(self._inflight) < self._max_inflight:
            full = len(self._want_order) >= self._limit.value
            due = now - self._want_ts[self._want_order[0]] >= self.config.max_wait_s
            if not (full or due):
                return
            take = min(self._limit.value, len(self._want_order))
            batch, self._want_order = self._want_order[:take], self._want_order[take:]
            key = self._next_flush
            self._next_flush += 1
            self._inflight[key] = batch
            self._inflight_nodes.update(batch)
            self.flushes += 1
            self.batched_nodes += len(batch)
            if metrics.enabled:
                metrics.observe("serve.batch_size", len(batch), buckets=BATCH_BUCKETS)
                for node in batch:
                    queued = self._want_ts.get(node)
                    if queued is not None:
                        metrics.observe("serve.queue_wait_s", now - queued)
                metrics.set_gauge("serve.inflight_batches", len(self._inflight))
            for node in batch:
                self._want_ts.pop(node, None)
            if self.config.adaptive:
                self._limit.on_flush(len(batch), len(self._want_order))
            self._backend.submit(key, batch)

    def _complete(self, key, result) -> None:
        nodes = self._inflight.pop(key, None)
        if nodes is None:
            return
        self._inflight_nodes.difference_update(nodes)
        if metrics.enabled:
            metrics.set_gauge("serve.inflight_batches", len(self._inflight))
        if isinstance(result, Exception):
            for node in nodes:
                for req in self._want.pop(node, ()):
                    if not req.dead:
                        self._pending_requests -= 1
                        self._fail(req.conn, req.req_id, f"scoring failed: {result}")
                        req.dead = True
            return
        rows, scores = result
        computed = dict(zip(rows.tolist(), scores))
        self._cache.insert(computed)
        for node in nodes:
            row = computed.get(node)
            for req in self._want.pop(node, ()):
                if req.dead:
                    continue
                if row is None:  # pragma: no cover - defensive
                    self._pending_requests -= 1
                    self._fail(req.conn, req.req_id, f"backend returned no row for node {node}")
                    req.dead = True
                    continue
                req.rows[node] = row
                req.needed.discard(node)
                if not req.needed:
                    self._pending_requests -= 1
                    self._finish(req)

    def _finish(self, req: _Request, cached: bool = False) -> None:
        scores = (
            np.stack([req.rows[node] for node in req.ids])
            if req.ids
            else np.empty((0, self._graph.num_classes))
        )
        self._reply(req.conn, ("ok", req.req_id, scores))
        req.dead = True
        self.replies += 1
        if metrics.enabled:
            now = time.monotonic()
            metrics.inc("serve.replies")
            metrics.record_span(
                "serve.request", req.ts, now - req.ts, nodes=len(req.ids), cached=cached
            )
            metrics.observe("serve.request_latency_s", now - req.ts)

    def _fail(self, conn: _ClientConn, req_id, message: str) -> None:
        self.errors += 1
        metrics.inc("serve.errors")
        self._reply(conn, ("err", req_id, message))

    def _fail_all(self, message: str) -> None:
        for node in list(self._want):
            for req in self._want.pop(node, ()):
                if not req.dead:
                    self._pending_requests -= 1
                    self._fail(req.conn, req.req_id, message)
                    req.dead = True
        self._want_order.clear()
        self._want_ts.clear()
        self._inflight.clear()
        self._inflight_nodes.clear()

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict:
        """Server-side counters, cache stats and identity, for clients."""
        return {
            "digest": self.digest,
            "graph": self._graph.name,
            "backend": self.config.backend,
            "workers": self.width,
            "ensemble": self._ensemble,
            "num_nodes": int(self._graph.num_nodes),
            "num_classes": int(self._graph.num_classes),
            "requests": self.requests,
            "replies": self.replies,
            "errors": self.errors,
            "flushes": self.flushes,
            "batched_nodes": self.batched_nodes,
            "max_batch": self._limit.value,
            "pending_requests": self._pending_requests,
            "inflight_batches": len(self._inflight),
            "cache": self._cache.info(),
            "uptime_s": time.monotonic() - self._start_ts,
        }

    # -- shutdown ------------------------------------------------------------

    def _hang_up(self) -> None:
        """Close the listener and every client connection (no joins, so the
        serve loop may call it on itself)."""
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept() on
            # Linux; shutdown() does, so the accept thread's join is prompt
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.alive = False
            # shutdown wakes the conn's reader and sends the client EOF
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.sock.close()
            except OSError:
                pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        self._inbox.put(("wake",))
        self._hang_up()
        for thread in self._threads:
            thread.join(timeout=10.0)
        if self._backend is not None:
            self._backend.close()
            self._backend = None

    def __enter__(self) -> "PredictionServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
