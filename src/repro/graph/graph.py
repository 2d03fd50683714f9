"""The ``Graph`` container: structure + features + labels + split masks.

A single object passed around the whole pipeline (ingredient training,
souping, evaluation). Normalised message-passing operators are cached per
graph so the many forward passes of GIS/LS reuse one SpMM operand, exactly
like DGL caches its normalised adjacency.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

import numpy as np

from ..tensor.sparse import SparseAdj
from . import blocks as _blocks
from .csr import CSR, MessageStructure

__all__ = ["Graph"]

#: Guards every graph's block cache, an LRU ``OrderedDict`` that even a hit
#: reorders: one graph can be read from two threads at once (a prediction
#: server's serve loop and a caller evaluating on the same graph).
#: Module-level so graphs stay picklable.
_BLOCK_LOCK = threading.Lock()


class Graph:
    """An attributed, node-classified graph with train/val/test masks."""

    is_store_backed = False  # True on mmap-backed StoreGraph views
    dropout_rows = None  # a dropout mask covers every row: nothing to gather (cf. Block)

    __slots__ = (
        "csr",
        "features",
        "labels",
        "train_mask",
        "val_mask",
        "test_mask",
        "num_classes",
        "name",
        "_operators",
        "_block_cache",
        "__weakref__",
    )

    def __init__(
        self,
        csr: CSR,
        features: np.ndarray,
        labels: np.ndarray,
        train_mask: np.ndarray,
        val_mask: np.ndarray,
        test_mask: np.ndarray,
        num_classes: int,
        name: str = "graph",
    ) -> None:
        self.csr = csr
        self.features = np.ascontiguousarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.train_mask = np.asarray(train_mask, dtype=bool)
        self.val_mask = np.asarray(val_mask, dtype=bool)
        self.test_mask = np.asarray(test_mask, dtype=bool)
        self.num_classes = int(num_classes)
        self.name = name
        self._operators: dict[str, SparseAdj] = {}
        self._block_cache: "OrderedDict[bytes, _blocks.Blocks]" = OrderedDict()
        self.validate()

    def __getstate__(self):
        """Pickle the data, not the caches: operators and blocks are rebuilt
        on demand, and cached blocks refer to their graph weakly."""
        slots = {
            name: getattr(self, name)
            for cls in type(self).__mro__
            for name in getattr(cls, "__slots__", ())
            if name not in ("_operators", "_block_cache", "__weakref__")
        }
        return None, slots

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
        self._operators = {}
        self._block_cache = OrderedDict()

    # -- invariants --------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants the rest of the stack assumes."""
        n = self.csr.num_nodes
        if self.features.shape[0] != n:
            raise ValueError(f"{self.features.shape[0]} feature rows vs {n} nodes")
        if self.labels.shape != (n,):
            raise ValueError(f"labels shape {self.labels.shape} != ({n},)")
        for mask_name in ("train_mask", "val_mask", "test_mask"):
            mask = getattr(self, mask_name)
            if mask.shape != (n,):
                raise ValueError(f"{mask_name} shape {mask.shape} != ({n},)")
        overlap = (
            (self.train_mask & self.val_mask) | (self.train_mask & self.test_mask) | (self.val_mask & self.test_mask)
        )
        if overlap.any():
            raise ValueError("train/val/test masks must be disjoint")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("label outside [0, num_classes)")

    # -- stats -----------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self.csr.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self.csr.num_edges

    @property
    def feature_dim(self) -> int:
        """Width of the node-feature matrix."""
        return self.features.shape[1]

    @property
    def train_idx(self) -> np.ndarray:
        """Node ids of the training split."""
        return np.flatnonzero(self.train_mask)

    @property
    def val_idx(self) -> np.ndarray:
        """Node ids of the validation split."""
        return np.flatnonzero(self.val_mask)

    @property
    def test_idx(self) -> np.ndarray:
        """Node ids of the test split."""
        return np.flatnonzero(self.test_mask)

    def split_counts(self) -> tuple[int, int, int]:
        """``(train, val, test)`` node counts."""
        return int(self.train_mask.sum()), int(self.val_mask.sum()), int(self.test_mask.sum())

    @property
    def nbytes(self) -> int:
        """Resident bytes of this graph's raw payload (pre-operator)."""
        return (
            self.csr.nbytes
            + self.features.nbytes
            + self.labels.nbytes
            + self.train_mask.nbytes
            + self.val_mask.nbytes
            + self.test_mask.nbytes
        )

    def __repr__(self) -> str:
        tr, va, te = self.split_counts()
        return (
            f"Graph(name={self.name!r}, nodes={self.num_nodes}, edges={self.num_edges}, "
            f"classes={self.num_classes}, split={tr}/{va}/{te})"
        )

    # -- message-passing operators ------------------------------------------------

    def operator(self, kind: str) -> SparseAdj:
        """Cached adjacency: ``gcn`` | ``mean`` | ``mean_loops`` | ``raw_loops`` | ``sum``."""
        if kind not in self._operators:
            if kind == "gcn":
                mat = self.csr.gcn_matrix()
            elif kind == "mean":
                mat = self.csr.mean_matrix(add_self_loops=False)
            elif kind == "mean_loops":
                mat = self.csr.mean_matrix(add_self_loops=True)
            elif kind == "raw_loops":
                mat = self.csr.with_self_loops().to_scipy()
            elif kind == "sum":
                # unnormalised neighbour sum (GIN aggregation; no self-loops —
                # the (1+eps)·h term carries the self contribution)
                mat = self.csr.to_scipy()
            else:
                raise KeyError(f"unknown operator kind {kind!r}")
            self._operators[kind] = SparseAdj(mat)
        return self._operators[kind]

    def attention_structure(self) -> MessageStructure:
        """Self-looped edge structure for GAT (cached via the operator mechanism).

        Returns a :class:`~repro.graph.csr.MessageStructure`: the self-looped
        CSR plus precomputed ``dst_ids`` and a lazily-built transpose
        permutation, shared by every GAT layer and forward pass on this graph.
        """
        key = "_attn_structure"
        if key not in self._operators:
            self._operators[key] = MessageStructure(self.csr.with_self_loops())  # type: ignore[assignment]
        return self._operators[key]  # type: ignore[return-value]

    # -- layered blocks ----------------------------------------------------------

    def blocks(self, rows: np.ndarray, hops: int) -> "_blocks.Blocks":
        """Layered blocks computing only ``rows`` through ``hops`` layers.

        See :mod:`repro.graph.blocks`. Cached per ``(rows, hops)`` like the
        operators, keeping the :data:`~repro.graph.blocks.BLOCK_CACHE_SIZE`
        most recently used row sets; ``rows`` may be unsorted or repeat
        ids (the blocks output the sorted unique set). Cached blocks hold
        the graph through a weak proxy: a strong reference back would make
        a cycle, and a dropped graph would then stay resident, with every
        cached block's features and operators, until the cyclic collector
        ran.
        """
        rows = np.unique(np.asarray(rows, dtype=np.int64))
        key = _blocks.blocks_key(rows, hops)
        cache = self._block_cache
        with _BLOCK_LOCK:
            blocks = cache.get(key)
            if blocks is None:
                blocks = cache[key] = _blocks.build_blocks(weakref.proxy(self), rows, hops)
                while len(cache) > _blocks.BLOCK_CACHE_SIZE:
                    cache.popitem(last=False)
            else:
                cache.move_to_end(key)
        return blocks

    def layer(self, i: int) -> "Graph":
        """Conv ``i``'s view: the whole graph (the trivial block)."""
        return self

    def dst_rows(self, x):
        """Destination rows of a node-aligned tensor: all of them."""
        return x

    def positions(self, nodes: np.ndarray) -> np.ndarray:
        """Output-row positions of node ids: the ids themselves."""
        return np.asarray(nodes, dtype=np.int64)

    # -- persistence ---------------------------------------------------------------

    def to_store(self, path, memory_budget: int | str | None = None):
        """Persist to an mmap-backed :class:`~repro.graph.store.GraphStore`.

        Writes the graph's arrays as raw binaries under ``path`` and
        returns the opened store; ``store.graph()`` yields the
        out-of-core :class:`~repro.graph.store.StoreGraph` view.
        """
        from .store import GraphStore  # local import: store depends on Graph

        GraphStore.write(
            path,
            csr=self.csr,
            features=self.features,
            labels=self.labels,
            train_mask=self.train_mask,
            val_mask=self.val_mask,
            test_mask=self.test_mask,
            num_classes=self.num_classes,
            name=self.name,
        )
        return GraphStore(path, memory_budget=memory_budget)

    # -- subgraphs -----------------------------------------------------------------

    def subgraph(self, nodes: np.ndarray, name: str | None = None) -> "Graph":
        """Node-induced subgraph carrying features/labels/masks along.

        Used by PLS: pass the union of the selected partitions' nodes and
        the inter-partition (formerly cut) edges are preserved by the
        induced-subgraph semantics.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        sub_csr, _ = self.csr.induced_subgraph(nodes)
        return Graph(
            sub_csr,
            self.features[nodes],
            self.labels[nodes],
            self.train_mask[nodes],
            self.val_mask[nodes],
            self.test_mask[nodes],
            self.num_classes,
            name=name or f"{self.name}[sub:{len(nodes)}]",
        )
