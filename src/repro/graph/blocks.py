"""Layered blocks: a forward pass that computes only the rows a loss reads.

Every souping method scores a handful of rows — the validation split,
a holdout slice, the test split — yet a full-graph forward computes all
``n`` rows at every layer. For an ``L``-layer message-passing model the
logits at a row set ``R`` depend only on ``R``'s ``L``-hop field, and the
rows each layer must produce shrink towards ``R`` layer by layer:

* the last layer produces ``R`` from ``R`` and its 1-hop neighbours,
* the layer before produces that set from *its* 1-hop neighbours, ...

:meth:`Graph.blocks` builds that layering once per row set and caches
it (souping's row sets, Phase 1's train/val/test splits); serving builds
it per flush and minibatch training per sampled subgraph with
:func:`build_blocks`, uncached. :func:`forward_field` decides whether a
forward runs on the blocks or on the whole graph. Each
:class:`Block` holds a layer's destination ids (the rows it outputs) and
source ids (the rows it reads), both as sorted global ids, plus the
positions of the destinations within the sources. Its operators are the
graph's cached global ``mean``/``gcn``/``sum`` operators and self-looped
attention structure, row-sliced to the destinations and column-remapped
to the sources. The remap is monotone, so every row keeps its
neighbours in their global order, and the operator values are the
global ones, so degrees (including GCN's source-degree norm) are exact:
there is no induced-subgraph degree truncation.

The models run a block exactly like a graph: conv ``i`` reads
``graph.layer(i)`` and takes its self/destination term through
``dst_rows(x)``. A full :class:`Graph` is the trivial block (``layer(i)``
is the graph, ``dst_rows`` and ``positions`` the identity), so there is
one forward path.

Contract: every per-row computation of a forward — the SpMM rows, the
GEMM rows, the per-destination attention softmax, the elementwise
activations — depends only on that row's inputs, so the logits at ``R``
are bit-identical to the full pass. Dropout keeps that in training: a
mask is drawn over the whole graph's rows (or attention edges) from the
same generator and gathered at the view's :attr:`Block.dropout_rows`, so
the random stream and every kept entry equal the full pass's. Gradients
into shared parameters (the weights, the LS alphas) match only to float
rounding, because the weight-gradient GEMM ``x^T g`` sums over fewer
rows (the full pass adds rows whose gradient is exactly zero).
"""

from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp

from ..tensor import Tensor
from ..tensor.sparse import SparseAdj
from .csr import CSR, MessageStructure, row_slice_index

__all__ = ["BLOCK_CACHE_SIZE", "BLOCK_EDGE_SHARE", "Block", "Blocks", "blocks_key", "build_blocks", "forward_field"]

#: Row sets whose blocks a graph keeps (least recently used dropped first):
#: a souping call reads a few fixed sets (validation, holdout, test), and
#: Phase 1 its train, validation and test splits.
BLOCK_CACHE_SIZE = 8


def blocks_key(rows: np.ndarray, hops: int) -> bytes:
    """Cache key of the blocks for sorted unique ``rows`` and ``hops``."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(int(hops)).encode())
    digest.update(np.ascontiguousarray(rows, dtype=np.int64).tobytes())
    return digest.digest()


class Block:
    """One message-passing layer restricted to the rows it must output.

    Attributes
    ----------
    dst : int64 ``[n_dst]`` — sorted global ids of the rows this layer outputs.
    src : int64 ``[n_src]`` — sorted global ids of the rows it reads (``dst ⊆ src``).
    dst_pos : int64 ``[n_dst]`` — positions of ``dst`` within ``src``.
    """

    __slots__ = ("graph", "dst", "src", "dst_pos", "_operators")

    def __init__(self, graph, dst: np.ndarray, src: np.ndarray) -> None:
        self.graph = graph
        self.dst = dst
        self.src = src
        self.dst_pos = np.searchsorted(src, dst)
        self._operators: dict = {}

    @property
    def dropout_rows(self) -> tuple[np.ndarray, int]:
        """``(src, num_nodes)``: a dropout mask over this layer's input is
        drawn over all the graph's rows and gathered at the sources."""
        return self.src, self.graph.num_nodes

    def _slice(self, indptr: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(flat, indptr, indices)`` of the ``dst`` rows with columns
        remapped to positions in ``src`` (order within rows kept).

        The remap is one gather through a dense ``global id -> position``
        table (``-1`` off the sources): O(n + edges), no search per edge.
        """
        flat, degs = row_slice_index(indptr, self.dst)
        pos = np.full(self.graph.num_nodes, -1, dtype=np.int64)
        pos[self.src] = np.arange(len(self.src), dtype=np.int64)
        local = pos[indices[flat]]
        if len(local) and local.min() < 0:
            raise ValueError("block sources do not cover the destination rows' neighbours")
        sub_indptr = np.zeros(len(self.dst) + 1, dtype=np.int64)
        np.cumsum(degs, out=sub_indptr[1:])
        return flat, sub_indptr, local

    def operator(self, kind: str) -> SparseAdj:
        """The graph's ``kind`` operator, sliced to ``[dst, src]`` (cached)."""
        if kind not in self._operators:
            full = self.graph.operator(kind).csr
            flat, indptr, indices = self._slice(full.indptr, full.indices)
            mat = sp.csr_matrix(
                (full.data[flat], indices, indptr), shape=(len(self.dst), len(self.src))
            )
            self._operators[kind] = SparseAdj(mat)
        return self._operators[kind]

    def attention_structure(self) -> MessageStructure:
        """The graph's self-looped attention structure, sliced to ``[dst, src]``.

        Its ``dropout_rows`` are the kept edges' positions in the full
        structure, where attention dropout draws its mask.
        """
        key = "_attn_structure"
        if key not in self._operators:
            full = self.graph.attention_structure()
            flat, indptr, indices = self._slice(full.indptr, full.indices)
            self._operators[key] = MessageStructure(
                CSR(indptr, indices, len(self.dst)),
                num_src=len(self.src),
                dropout_rows=(flat, full.num_edges),
            )
        return self._operators[key]

    def dst_rows(self, x: Tensor) -> Tensor:
        """The destination rows of a source-aligned tensor (differentiable)."""
        pos = self.dst_pos
        a = x.data

        def vjp(g):
            ga = np.zeros_like(a)
            ga[pos] = g  # positions are unique: assignment is the exact adjoint
            return (ga,)

        return Tensor._make(a[pos], (x,), vjp)

    def __repr__(self) -> str:
        return f"Block(dst={len(self.dst)}, src={len(self.src)})"


class Blocks:
    """The layered blocks of one row set: what a model forward runs on.

    ``layer(i)`` is conv ``i``'s :class:`Block` (layer 0 reads the widest
    field); ``features`` are the input rows of layer 0; the forward's
    output rows are ``rows``. :meth:`positions` maps requested node ids to
    output rows.
    """

    __slots__ = ("graph", "rows", "layers", "_features")

    def __init__(self, graph, rows: np.ndarray, layers: tuple[Block, ...]) -> None:
        self.graph = graph
        self.rows = rows
        self.layers = layers
        self._features: np.ndarray | None = None

    @property
    def input_rows(self) -> np.ndarray:
        """Global ids of the rows the forward reads features from."""
        return self.layers[0].src if self.layers else self.rows

    @property
    def features(self) -> np.ndarray:
        """Feature rows of :attr:`input_rows` (gathered once)."""
        if self._features is None:
            self._features = np.ascontiguousarray(self.graph.features[self.input_rows])
        return self._features

    @property
    def dropout_rows(self) -> tuple[np.ndarray, int]:
        """``(input_rows, num_nodes)``: where a dropout mask over the
        forward's input rows is gathered (a 0-hop model's every layer)."""
        return self.input_rows, self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        """Graph edges the forward's SpMMs read, summed over layers: the
        degrees of each layer's destinations (self-loops not counted).
        Known before any operator is sliced; the full pass reads
        ``len(layers) * graph.num_edges``."""
        indptr = self.graph.csr.indptr
        return int(sum(int((indptr[b.dst + 1] - indptr[b.dst]).sum()) for b in self.layers))

    def layer(self, i: int) -> Block:
        """Conv ``i``'s block."""
        return self.layers[i]

    def positions(self, nodes: np.ndarray) -> np.ndarray:
        """Output-row positions of global node ids (all must be in ``rows``)."""
        return np.searchsorted(self.rows, np.asarray(nodes, dtype=np.int64))

    def __repr__(self) -> str:
        widths = "/".join(str(len(b.src)) for b in self.layers)
        return f"Blocks(rows={len(self.rows)}, src per layer={widths or '-'})"


def build_blocks(graph, rows, hops: int) -> Blocks:
    """Layered blocks producing the rows ``rows`` after ``hops`` layers.

    ``rows`` must be sorted and unique (``np.unique``); the blocks output
    exactly those rows.
    """
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    rows = np.asarray(rows, dtype=np.int64)
    n = graph.num_nodes
    if len(rows) and (rows[0] < 0 or rows[-1] >= n):
        raise IndexError(f"rows outside [0, {n})")
    csr = graph.csr
    # the field only grows (each layer's sources are the next one's
    # destinations), so one membership mask accumulates it; flatnonzero
    # reads it back as sorted unique ids
    in_field = np.zeros(n, dtype=bool)
    in_field[rows] = True
    layers: list[Block] = []
    dst = rows
    for _ in range(hops):
        flat, _degs = row_slice_index(csr.indptr, dst)
        in_field[csr.indices[flat]] = True
        src = np.flatnonzero(in_field)
        layers.append(Block(graph, dst, src))
        dst = src
    return Blocks(graph, rows, tuple(reversed(layers)))


#: Widest field a forward runs on blocks built for it alone, as the share
#: of the full pass's SpMM edges (``hops * graph.num_edges``) the blocks
#: read, keyed by whether a backward follows; a wider field runs on the
#: whole graph. Such blocks pay for slicing operators and gathering rows
#: on every call, which a backward amortises: at full coverage a forward
#: costs 1.2-1.4x the full pass and a training step 1.1-1.3x. The
#: crossover lies at a share of ~0.6 (SAGE) to ~0.75 (GAT) for a forward
#: and ~0.7 (SAGE) to ~0.9 (GAT) for a step, so each share keeps a blocked
#: pass at most as slow as the full one. Cached blocks pay that cost once
#: and then cost about the full pass even at full coverage (0.9-1.2x), so
#: they need no share. Measured in docs/performance.md ("Serving on layered
#: blocks", "Training on layered blocks").
BLOCK_EDGE_SHARE = {False: 0.5, True: 0.7}


def forward_field(graph, rows, hops: int, *, backward: bool = False, cached: bool = True):
    """What a forward producing ``rows`` runs on: their blocks or the graph.

    With ``cached=True`` (a row set read again and again: a split, a
    souping row set) the blocks come from the graph's cache
    (:meth:`Graph.blocks`) and are always used. With ``cached=False`` (a
    serving flush, a sampled minibatch) they are built for this call
    alone (:func:`build_blocks`), and the whole graph, the trivial block,
    runs instead when their SpMMs would read more than
    ``BLOCK_EDGE_SHARE[backward]`` of the full pass's edges. A
    memory-budgeted store graph always runs whole: blocks slice its full
    operators, which are forbidden. Either way the logits at ``rows`` are
    the full pass's.
    """
    if graph.is_store_backed and graph.store.memory_budget is not None:
        return graph
    if cached:
        return graph.blocks(rows, hops)
    blocks = build_blocks(graph, np.unique(np.asarray(rows, dtype=np.int64)), hops)
    if blocks.num_edges > BLOCK_EDGE_SHARE[backward] * len(blocks.layers) * graph.num_edges:
        return graph
    return blocks
