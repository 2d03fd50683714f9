"""Peak-memory accounting for souping runs.

The paper's Fig. 4b reports each souping method's memory relative to GIS,
measured with CUDA allocator counters. The NumPy analogue here is
:class:`MemoryMeter`: while active it

* receives an ``on_alloc`` callback for every :class:`~repro.tensor.Tensor`
  created (the tensor registers its buffer size and a ``weakref.finalize``
  that subtracts it on garbage collection), capturing **activations** of
  forward/backward passes; and
* accepts explicit :meth:`track_array` / :meth:`track_bytes` registrations
  for raw ndarray payloads that never become tensors — ingredient state
  dicts, the LS parameter stacks, graph feature/adjacency buffers.

``peak`` is then the maximum live bytes attributable to the run — the same
quantity ``torch.cuda.max_memory_allocated`` reports on the paper's
testbed. An analytic cross-check model lives in
:mod:`repro.profiling.model`.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from ..tensor import register_alloc_hook, unregister_alloc_hook

__all__ = ["MemoryMeter"]


class MemoryMeter:
    """Context manager measuring peak live bytes during a code region.

    The alloc-hook registry is process-global, so a meter is **owned by
    the thread that entered it**: tensor allocations from other threads
    are ignored, and the counters themselves are lock-guarded
    because tensor finalizers run on whatever thread drops the last
    reference.

    Examples
    --------
    >>> with MemoryMeter("ls") as meter:
    ...     meter.track_array(big_constant)
    ...     run_souping()
    >>> meter.peak  # bytes
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.current = 0
        self.peak = 0
        self._active = False
        self._seen_buffers: set[int] = set()
        self._owner: int | None = None
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "MemoryMeter":
        self.current = 0
        self.peak = 0
        self._seen_buffers.clear()
        self._owner = threading.get_ident()
        register_alloc_hook(self)
        self._active = True
        return self

    def __exit__(self, *exc) -> bool:
        self._active = False
        unregister_alloc_hook(self)
        return False

    # -- tensor hook ------------------------------------------------------------

    def on_alloc(self, tensor) -> None:
        """Called by Tensor.__init__ while this meter is registered."""
        if self._owner is not None and threading.get_ident() != self._owner:
            return  # another thread's souping run; not this measurement
        data = tensor.data
        base = data.base if data.base is not None else data
        key = id(base)
        with self._lock:
            if key in self._seen_buffers:
                return  # a view over an already-counted buffer
            self._seen_buffers.add(key)
            # the base of a shared-memory view is an mmap, not an ndarray —
            # fall back to the view's own extent there
            nbytes = int(base.nbytes) if isinstance(base, np.ndarray) else int(data.nbytes)
            self._add_locked(nbytes)
        weakref.finalize(tensor, self._release_buffer, key, nbytes)

    def _release_buffer(self, key: int, nbytes: int) -> None:
        with self._lock:
            if key in self._seen_buffers:
                self._seen_buffers.discard(key)
                self.current -= nbytes

    # -- explicit registration ------------------------------------------------------

    def track_bytes(self, nbytes: int) -> None:
        """Register a constant resident allocation (never released)."""
        self._add(int(nbytes))

    def track_array(self, array: np.ndarray) -> None:
        """Register a raw ndarray payload (state dicts, stacks, features)."""
        self.track_bytes(np.asarray(array).nbytes)

    def track_state_dict(self, state: dict) -> None:
        """Register every parameter buffer of a state dict."""
        self.track_bytes(sum(np.asarray(v).nbytes for v in state.values()))

    def track_graph(self, graph) -> None:
        """Register a graph's resident payload (features + structure)."""
        self.track_bytes(graph.nbytes)

    def transient(self, nbytes: int):
        """Context manager: bytes resident only inside the ``with`` block.

        Used by PLS for the per-epoch subgraph payload — it contributes to
        the peak while the epoch runs and is released afterwards (the
        device-memory behaviour of loading one partition batch).
        """
        meter = self

        class _Transient:
            def __enter__(self_inner):
                meter._add(int(nbytes))
                return self_inner

            def __exit__(self_inner, *exc):
                with meter._lock:
                    meter.current -= int(nbytes)
                return False

        return _Transient()

    # -- internals --------------------------------------------------------------------

    def _add(self, nbytes: int) -> None:
        with self._lock:
            self._add_locked(nbytes)

    def _add_locked(self, nbytes: int) -> None:
        self.current += nbytes
        if self.current > self.peak:
            self.peak = self.current

    def __repr__(self) -> str:
        return f"MemoryMeter(label={self.label!r}, peak={self.peak}, current={self.current})"
