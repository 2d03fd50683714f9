"""How the graph reaches cluster workers: refs, and the shared-memory transport.

Every cluster worker holds the whole graph: Phase-1 tasks and served
forward passes read all of it. The driver ships it once per worker as
one of three *refs*, picked by :func:`share_graph` and read back in the
worker by :func:`attach_graph_ref`:

* ``graph_store`` — the path of a store-backed graph's mmap
  :class:`~repro.graph.store.GraphStore`; the worker reopens the store,
  so no feature bytes cross the transport;
* ``shm`` — a :class:`SharedGraphBuffer` segment: the parent packs the
  CSR structure, features, labels and split masks into a single named
  ``multiprocessing.shared_memory`` segment, and workers rebuild a
  :class:`~repro.graph.graph.Graph` whose arrays are zero-copy views into
  it. A :class:`SharedGraphSpec` is the picklable descriptor crossing the
  process boundary; it is a few hundred bytes regardless of graph size;
* ``arrays`` — the raw arrays, pickled into the worker's handshake.

Lifecycle contract:

* the **creator** (the run driver) owns the segment: it is unlinked when
  the context manager exits or :meth:`SharedGraphBuffer.unlink` runs —
  the cluster service that ships it unlinks it on close, so the segment
  is released even when workers are hard-killed mid-task or the driver
  raises;
* **workers** attach read-only views and merely ``close()`` their handle;
  attaching unregisters the segment from the worker's
  ``resource_tracker`` so a dying worker can neither unlink the segment
  under the survivors nor spam leak warnings at interpreter exit;
* ``unlink()`` is idempotent — a double release (context exit after an
  explicit cleanup) is a no-op.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..graph.csr import CSR
from ..graph.graph import Graph
from ..graph.store import GraphStore
from ..telemetry import metrics

__all__ = [
    "SharedGraphBuffer",
    "SharedGraphSpec",
    "attach_graph",
    "attach_graph_ref",
    "share_graph",
]

# offsets are aligned so every ndarray view starts on a cache line
_ALIGN = 64

#: (attribute, dtype) pairs packed into the segment, in layout order.
_FIELDS = (
    ("indptr", np.int64),
    ("indices", np.int64),
    ("features", np.float64),
    ("labels", np.int64),
    ("train_mask", np.bool_),
    ("val_mask", np.bool_),
    ("test_mask", np.bool_),
)


def _graph_arrays(graph: Graph) -> dict[str, np.ndarray]:
    return {
        "indptr": graph.csr.indptr,
        "indices": graph.csr.indices,
        "features": graph.features,
        "labels": graph.labels,
        "train_mask": graph.train_mask,
        "val_mask": graph.val_mask,
        "test_mask": graph.test_mask,
    }


@dataclass(frozen=True)
class SharedGraphSpec:
    """Picklable descriptor of a graph packed into one shared segment."""

    shm_name: str
    fields: tuple[tuple[str, str, tuple[int, ...], int], ...]  # (key, dtype, shape, offset)
    num_nodes: int
    num_classes: int
    graph_name: str

    @property
    def nbytes(self) -> int:
        """Payload bytes described by the spec (excluding alignment pad)."""
        return sum(
            int(np.dtype(dtype).itemsize) * int(np.prod(shape, dtype=np.int64))
            for _, dtype, shape, _ in self.fields
        )


class SharedGraphBuffer:
    """Creator-side owner of one graph's shared-memory segment.

    :func:`share_graph` creates it and the cluster service shipping its
    :attr:`spec` unlinks it on close; standalone, use it as a context
    manager around the workers' lifetime (workers call
    :func:`attach_graph` on the spec), which unlinks it even on
    exceptions.
    """

    def __init__(self, shm: shared_memory.SharedMemory, spec: SharedGraphSpec) -> None:
        self._shm = shm
        self.spec = spec
        self._released = False

    @classmethod
    def create(cls, graph: Graph) -> "SharedGraphBuffer":
        """Pack ``graph`` into a fresh shared segment owned by the caller."""
        arrays = _graph_arrays(graph)
        fields: list[tuple[str, str, tuple[int, ...], int]] = []
        offset = 0
        for key, dtype in _FIELDS:
            arr = np.ascontiguousarray(arrays[key], dtype=dtype)
            arrays[key] = arr
            offset = -(-offset // _ALIGN) * _ALIGN  # round up
            fields.append((key, np.dtype(dtype).str, tuple(arr.shape), offset))
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for (key, dtype_str, shape, field_offset) in fields:
            arr = arrays[key]
            view = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf, offset=field_offset)
            view[...] = arr
        spec = SharedGraphSpec(
            shm_name=shm.name,
            fields=tuple(fields),
            num_nodes=graph.num_nodes,
            num_classes=graph.num_classes,
            graph_name=graph.name,
        )
        return cls(shm, spec)

    def unlink(self) -> None:
        """Close and remove the segment (idempotent)."""
        if self._released:
            return
        self._released = True
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # already unlinked by a concurrent cleanup
            pass

    def __enter__(self) -> "SharedGraphBuffer":
        return self

    def __exit__(self, *_exc) -> None:
        self.unlink()


class _AttachedGraph:
    """Worker-side handle: the rebuilt graph plus the segment reference.

    The handle must stay alive as long as the graph is used — the ndarray
    views borrow the segment's buffer. ``close()`` releases the worker's
    mapping only; the creator still owns (and eventually unlinks) the
    segment.
    """

    def __init__(self, shm: shared_memory.SharedMemory, graph: Graph) -> None:
        self._shm = shm
        self.graph = graph
        self._closed = False

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            # drop the views before unmapping: SharedMemory.close() fails
            # while exported buffers are alive
            self.graph = None
            self._shm.close()


def attach_graph(spec: SharedGraphSpec) -> _AttachedGraph:
    """Attach to the segment named by ``spec`` and rebuild the graph.

    Zero-copy: every graph array is a view into the shared mapping. The
    attach is untracked (see :func:`_attach_untracked`) so only the
    creator's resource tracker owns the segment.
    """
    shm = _attach_untracked(spec.shm_name)
    views: dict[str, np.ndarray] = {}
    for key, dtype_str, shape, offset in spec.fields:
        views[key] = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf, offset=offset)
    graph = Graph(
        CSR(views["indptr"], views["indices"], spec.num_nodes),
        views["features"],
        views["labels"],
        views["train_mask"],
        views["val_mask"],
        views["test_mask"],
        spec.num_classes,
        name=spec.graph_name,
    )
    return _AttachedGraph(shm, graph)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    Before Python 3.13 every ``SharedMemory`` attach registers with the
    resource tracker, which unlinks "leaked" segments when the attaching
    process exits — exactly wrong for a worker that dies (or is killed)
    while its siblings still read the graph, and under ``fork`` it would
    even clobber the creator's registration (parent and forked children
    share one tracker daemon). Suppressing the registration at attach
    time sidesteps both; the creator's own registration stays intact, so
    the tracker still reclaims the segment if the whole driver dies
    without running its ``finally`` cleanup.
    """
    import sys

    if sys.version_info >= (3, 13):  # pragma: no cover - version-dependent
        return shared_memory.SharedMemory(name=name, track=False)
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip_shm(resource_name, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            original(resource_name, rtype)

    resource_tracker.register = _skip_shm
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


# ---------------------------------------------------------------------------
# graph refs
# ---------------------------------------------------------------------------


def _graph_to_payload(graph: Graph) -> dict:
    """Raw-array form of a graph for shipping to worker processes (the
    cached message-passing operators deliberately stay behind)."""
    return dict(
        indptr=graph.csr.indptr,
        indices=graph.csr.indices,
        num_nodes=graph.csr.num_nodes,
        features=graph.features,
        labels=graph.labels,
        train_mask=graph.train_mask,
        val_mask=graph.val_mask,
        test_mask=graph.test_mask,
        num_classes=graph.num_classes,
        name=graph.name,
    )


def _graph_from_payload(payload: dict) -> Graph:
    """Inverse of :func:`_graph_to_payload`."""
    return Graph(
        CSR(payload["indptr"], payload["indices"], payload["num_nodes"]),
        payload["features"],
        payload["labels"],
        payload["train_mask"],
        payload["val_mask"],
        payload["test_mask"],
        payload["num_classes"],
        name=payload["name"],
    )


def share_graph(graph: Graph, shm: bool = True) -> tuple[dict, dict | None, list]:
    """Pick how ``graph`` reaches workers.

    The ref is the graph's store when it is store-backed, else a fresh
    shared-memory segment when ``shm`` is set, else the arrays. A
    platform without usable shared memory degrades to the arrays with a
    ``RuntimeWarning``. Returns ``(refs, fallback, segments)``: the
    ``graph_ref`` context entry, the arrays-only entry for a worker that
    cannot use it (``None`` for a store-backed graph), and the segments
    the caller now owns and must unlink.
    """
    if graph.is_store_backed:
        store = {
            "kind": "graph_store",
            "path": str(graph.store.path),
            "budget": graph.store.memory_budget,
        }
        return {"graph_ref": store}, None, []
    arrays = {"graph_ref": {"kind": "arrays", "payload": _graph_to_payload(graph)}}
    if not shm:
        return arrays, arrays, []
    try:
        segment = SharedGraphBuffer.create(graph)
    except OSError as exc:
        warnings.warn(
            f"shared-memory graph transport unavailable ({exc!r}); "
            "falling back to pickled payloads",
            RuntimeWarning,
            stacklevel=3,
        )
        return arrays, arrays, []
    return {"graph_ref": {"kind": "shm", "spec": segment.spec}}, arrays, [segment]


def attach_graph_ref(ref: dict) -> tuple[Graph, _AttachedGraph | None]:
    """Worker side of :func:`share_graph`: the graph a ref names, plus the
    shared-memory handle that must stay alive while the graph is used
    (``None`` for the other kinds)."""
    if ref["kind"] == "shm":
        metrics.inc("transport.shm_attaches")
        handle = attach_graph(ref["spec"])
        return handle.graph, handle
    if ref["kind"] == "graph_store":
        metrics.inc("transport.store_opens")
        return GraphStore(ref["path"], memory_budget=ref.get("budget")).graph(), None
    metrics.inc("transport.payload_inits")
    return _graph_from_payload(ref["payload"]), None
