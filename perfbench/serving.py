"""The served soup, in a process of its own.

:class:`ServerProcess` starts this file as a child process. The child
regenerates the graph from the same seed and runs two
:class:`repro.serve.PredictionServer` instances over one soup state:
``cold`` with the prediction cache off, so every flush is a full forward
pass, and ``hot`` with the LRU cache on. Load comes from the benchmark
process through :func:`repro.serve.run_load`.

``stop()`` collects the servers' counters and returns at once; the child
then closes both servers, which can take the full 10 s accept-thread
join of ``PredictionServer.close()``. The benchmark keeps measuring while
that happens and waits for the child in ``join()``, so teardown is never
inside a timed section.
"""

from __future__ import annotations

import socket
import subprocess
import sys
import threading
import time
import traceback
from multiprocessing.connection import Connection
from pathlib import Path

#: LRU capacity of the hot server, in nodes (larger than any hot set).
HOT_CACHE_NODES = 4096

#: How long either side waits for a message from the other.
REPLY_TIMEOUT_S = 120.0


class ServerProcess:
    """Parent-side handle on the serving child."""

    def __init__(self, dataset: str, scale: float, graph_seed: int, model_config: dict, state: dict, trace: bool) -> None:
        parent_sock, child_sock = socket.socketpair()
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(child_sock.fileno())],
            pass_fds=(child_sock.fileno(),),
        )
        child_sock.close()
        self._conn = Connection(parent_sock.detach())
        self.close_s = 0.0
        try:
            self._conn.send((dataset, scale, graph_seed, model_config, state, trace))
            self.addresses: dict[str, tuple[str, int]] = self._expect("ready")
        except BaseException:
            self.kill()
            raise

    def _expect(self, kind: str):
        if not self._conn.poll(REPLY_TIMEOUT_S):
            raise RuntimeError(f"serving process sent no {kind!r} reply in {REPLY_TIMEOUT_S:.0f} s")
        got, payload = self._conn.recv()
        if got == "error":
            raise RuntimeError(f"serving process failed:\n{payload}")
        if got != kind:
            raise RuntimeError(f"serving process sent {got!r}, expected {kind!r}")
        return payload

    def report(self) -> dict | None:
        """The child's telemetry since the last call (``None`` untraced)."""
        self._conn.send("report")
        return self._expect("report")

    def stop(self) -> dict:
        """Per-server ``stats()``; the child starts closing afterwards."""
        self._conn.send("stop")
        return self._expect("stats")

    def join(self) -> None:
        """Wait for the child to close its servers and exit."""
        try:
            self.close_s = self._expect("closed")
            self._proc.wait(REPLY_TIMEOUT_S)
        finally:
            self.kill()

    def kill(self) -> None:
        """Make sure the child has ended (kills it if it is still running)."""
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        self._conn.close()


def _serve(conn: Connection) -> None:
    from repro import load_dataset
    from repro.serve import PredictionServer, ServeConfig
    from repro.telemetry import build_report, metrics

    dataset, scale, graph_seed, model_config, state, trace = conn.recv()
    metrics.set_enabled(trace)
    graph = load_dataset(dataset, seed=graph_seed, scale=scale)
    servers = {}
    try:
        for name, nodes in (("cold", 0), ("hot", HOT_CACHE_NODES)):
            servers[name] = PredictionServer(
                model_config, graph, [state], config=ServeConfig(cache_nodes=nodes)
            ).start()
        conn.send(("ready", {name: srv.address for name, srv in servers.items()}))
        while True:
            if not conn.poll(REPLY_TIMEOUT_S):
                raise RuntimeError("benchmark process went quiet")
            msg = conn.recv()
            if msg == "stop":
                break
            conn.send(("report", build_report().to_dict() if trace else None))
            metrics.reset()
        conn.send(("stats", {name: srv.stats() for name, srv in servers.items()}))
    finally:
        # close concurrently: each close may wait out the accept-thread join
        t0 = time.perf_counter()
        closers = [threading.Thread(target=srv.close) for srv in servers.values()]
        for thread in closers:
            thread.start()
        for thread in closers:
            thread.join()
        close_s = time.perf_counter() - t0
    conn.send(("closed", close_s))


def main(fd: int) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    with Connection(fd) as conn:
        try:
            _serve(conn)
        except Exception:
            conn.send(("error", traceback.format_exc()))
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
