"""LRU per-node prediction cache — the serving hot path's front line.

A cache miss runs a forward over the requested nodes' ``L``-hop field,
which on a well-connected graph is thousands of rows even for a handful
of nodes, so the way to make the hot path fast is to not run it. This
cache memoizes the score row of
every node the backend has computed (the idiom of DGL's LRU feature
caches, ``frame_cache.py``); traffic with any locality turns repeat
requests into dictionary lookups, and a full warm cache answers without
touching a worker at all.

Entries are exact float64 rows as the backend returned them, so the
serving determinism contract is untouched: a cache hit and a recompute
are bit-identical. Eviction is plain LRU bounded by ``capacity`` nodes —
the same ``OrderedDict`` discipline as the souping engine's
candidate-score cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..telemetry import metrics

__all__ = ["NodeCache"]


class NodeCache:
    """Thread-safe LRU map of node id -> score row (``capacity`` nodes).

    ``capacity=0`` disables caching (every lookup misses, inserts drop).
    Hits/misses are counted locally and mirrored to the telemetry
    counters ``serve.cache_hits`` / ``serve.cache_misses``; occupancy is
    exported as the ``serve.cache_nodes`` gauge.
    """

    def __init__(self, capacity: int) -> None:
        if isinstance(capacity, bool) or not isinstance(capacity, (int, np.integer)):
            raise ValueError(f"cache capacity must be an integer, got {capacity!r}")
        if capacity < 0:
            raise ValueError(f"cache capacity cannot be negative, got {capacity}")
        self.capacity = int(capacity)
        self._rows: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, node_ids) -> tuple[dict[int, np.ndarray], list[int]]:
        """``(hit rows by node id, missing node ids)`` for a request.

        The miss list preserves first-appearance order and is deduplicated
        — a request asking for the same cold node twice costs one compute.
        """
        hits: dict[int, np.ndarray] = {}
        misses: list[int] = []
        seen_miss: set[int] = set()
        with self._lock:
            for node in node_ids:
                node = int(node)
                row = self._rows.get(node)
                if row is not None:
                    self._rows.move_to_end(node)
                    hits[node] = row
                    self.hits += 1
                elif node not in seen_miss:
                    seen_miss.add(node)
                    misses.append(node)
                    self.misses += 1
        if metrics.enabled:
            metrics.inc("serve.cache_hits", len(hits))
            metrics.inc("serve.cache_misses", len(misses))
        return hits, misses

    def insert(self, rows: dict[int, np.ndarray]) -> None:
        """File computed rows; evicts least-recently-used beyond capacity."""
        if self.capacity <= 0:
            return
        with self._lock:
            for node, row in rows.items():
                self._rows[int(node)] = row
                self._rows.move_to_end(int(node))
            while len(self._rows) > self.capacity:
                self._rows.popitem(last=False)
                self.evictions += 1
            size = len(self._rows)
        if metrics.enabled:
            metrics.set_gauge("serve.cache_nodes", size)

    def clear(self) -> None:
        """Drop every entry (e.g. after a model swap); counters survive."""
        with self._lock:
            self._rows.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def info(self) -> dict:
        """Hit/miss/eviction counters and occupancy, for stats endpoints."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._rows),
                "capacity": self.capacity,
            }
