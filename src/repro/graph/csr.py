"""Compressed-sparse-row graph structure and normalised operators.

Convention: row ``i`` of the CSR lists the **in-neighbours** of node ``i``
(an entry ``(i, j)`` is the directed edge ``j -> i``), so ``A @ H``
aggregates messages *into* each node. All datasets in this reproduction
are symmetrised, making the distinction moot for them, but subgraph and
partition code keeps the convention explicit.

Everything here is vectorised NumPy — edge arrays never see Python loops.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["CSR", "MessageStructure", "build_csr", "edges_to_csr", "row_slice_index"]


def row_slice_index(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions into ``indices`` covering ``rows``, concatenated.

    Vectorised replacement for ``np.concatenate([np.arange(s, e) ...])``
    over per-row slice bounds: returns ``(flat, degs)`` where ``flat`` is
    one ``int64`` index array touching only the requested rows (the hot
    path of sampled-minibatch expansion) and ``degs`` the per-row lengths.
    """
    starts = indptr[rows]
    degs = indptr[rows + 1] - starts
    total = int(degs.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), degs
    cum = np.cumsum(degs)
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - (cum - degs), degs)
    return flat, degs


class CSR:
    """Immutable unweighted CSR adjacency.

    Attributes
    ----------
    indptr : int64 ``[n+1]``
    indices : int64 ``[nnz]`` — column (source) ids, sorted within rows
    num_nodes : int
    """

    __slots__ = ("indptr", "indices", "num_nodes")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, num_nodes: int) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.num_nodes = int(num_nodes)
        if self.indptr.shape != (self.num_nodes + 1,):
            raise ValueError(f"indptr length {len(self.indptr)} != num_nodes+1 ({self.num_nodes + 1})")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")

    # -- basic properties ----------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Directed edge count (each undirected edge counts twice)."""
        return int(len(self.indices))

    @property
    def nbytes(self) -> int:
        """Bytes held by the three CSR arrays."""
        return self.indptr.nbytes + self.indices.nbytes

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node."""
        return np.diff(self.indptr)

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node."""
        return np.bincount(self.indices, minlength=self.num_nodes).astype(np.int64)

    def edge_list(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` arrays in row-major order."""
        dst = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.in_degrees())
        return self.indices.copy(), dst

    def row(self, i: int) -> np.ndarray:
        """In-neighbours of node ``i``."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def __repr__(self) -> str:
        return f"CSR(nodes={self.num_nodes}, edges={self.num_edges})"

    # -- transformations -------------------------------------------------------

    def symmetrized(self) -> "CSR":
        """Union of the graph with its reverse (dedup'd)."""
        src, dst = self.edge_list()
        return edges_to_csr(
            np.concatenate([src, dst]), np.concatenate([dst, src]), self.num_nodes, dedup=True
        )

    def with_self_loops(self) -> "CSR":
        """Add any missing self loops (idempotent)."""
        src, dst = self.edge_list()
        loops = np.arange(self.num_nodes, dtype=np.int64)
        return edges_to_csr(
            np.concatenate([src, loops]), np.concatenate([dst, loops]), self.num_nodes, dedup=True
        )

    def without_self_loops(self) -> "CSR":
        """Copy with all self-edges removed."""
        src, dst = self.edge_list()
        keep = src != dst
        return edges_to_csr(src[keep], dst[keep], self.num_nodes, dedup=False)

    def reverse(self) -> "CSR":
        """Transposed adjacency (every edge flipped)."""
        src, dst = self.edge_list()
        return edges_to_csr(dst, src, self.num_nodes, dedup=False)

    def is_symmetric(self) -> bool:
        """True if the adjacency equals its transpose."""
        a = self.to_scipy()
        return (a != a.T).nnz == 0

    def has_self_loops(self) -> bool:
        """True if any node points at itself."""
        src, dst = self.edge_list()
        return bool(np.any(src == dst))

    # -- exports -----------------------------------------------------------------

    def to_scipy(self, values: np.ndarray | None = None) -> sp.csr_matrix:
        """Scipy CSR with optional per-edge values (default all-ones)."""
        data = np.ones(len(self.indices)) if values is None else np.asarray(values, dtype=np.float64)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(self.num_nodes, self.num_nodes))

    # -- normalised operators ------------------------------------------------------

    def gcn_matrix(self) -> sp.csr_matrix:
        """Kipf & Welling operator: ``D^{-1/2} (A + I) D^{-1/2}``."""
        with_loops = self.with_self_loops()
        deg = with_loops.in_degrees().astype(np.float64)
        d_inv_sqrt = 1.0 / np.sqrt(deg)  # every node has >= 1 (self loop)
        src, dst = with_loops.edge_list()
        values = d_inv_sqrt[dst] * d_inv_sqrt[src]
        return sp.csr_matrix((values, with_loops.indices, with_loops.indptr), shape=(self.num_nodes,) * 2)

    def mean_matrix(self, add_self_loops: bool = False) -> sp.csr_matrix:
        """Row-normalised ``D^{-1} A`` (GraphSAGE mean aggregator).

        Zero-in-degree rows stay all-zero (their aggregation contributes
        nothing; the SAGE self-path keeps them trainable).
        """
        base = self.with_self_loops() if add_self_loops else self
        deg = base.in_degrees().astype(np.float64)
        inv = np.zeros_like(deg)
        nz = deg > 0
        inv[nz] = 1.0 / deg[nz]
        values = np.repeat(inv, base.in_degrees())
        return sp.csr_matrix((values, base.indices, base.indptr), shape=(self.num_nodes,) * 2)

    # -- subgraphs ---------------------------------------------------------------------

    def induced_subgraph(self, nodes: np.ndarray) -> tuple["CSR", np.ndarray]:
        """Node-induced subgraph.

        Parameters
        ----------
        nodes:
            Unique node ids to keep (any order; output is relabelled in the
            given order).

        Returns
        -------
        (sub, nodes):
            ``sub`` has ``len(nodes)`` nodes; edge ``(u, v)`` survives iff
            both endpoints are kept — this is exactly the PLS semantics
            where edges *between selected partitions* (the formerly-cut
            edges) are preserved and edges to unselected partitions drop.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(np.unique(nodes)) != len(nodes):
            raise ValueError("induced_subgraph requires unique node ids")
        new_of_old = np.full(self.num_nodes, -1, dtype=np.int64)
        new_of_old[nodes] = np.arange(len(nodes), dtype=np.int64)
        # row-sliced: touch only the kept rows' index ranges instead of
        # materialising the full edge list — O(n + sum deg(nodes)), which is
        # what makes per-batch induced subgraphs cheap on large graphs
        flat, degs = row_slice_index(self.indptr, nodes)
        src_new = new_of_old[self.indices[flat]]
        dst_new = np.repeat(np.arange(len(nodes), dtype=np.int64), degs)
        keep = src_new >= 0
        return edges_to_csr(src_new[keep], dst_new[keep], len(nodes), dedup=False), nodes


class MessageStructure:
    """A :class:`CSR` plus the precomputed edge indexing fused kernels need.

    The attention path touches three derived arrays on every forward —
    the per-edge destination ids and (in backward) the transposed edge
    ordering. Recomputing them per layer per forward dominated small-graph
    GAT runtimes, so this wrapper computes ``dst_ids`` once and the
    transpose permutation lazily on first backward, then caches both on
    the graph object via :meth:`Graph.attention_structure`.

    Duck-compatible with :class:`CSR` for the read-only attributes the
    models use (``indptr``, ``indices``, ``num_nodes``, ``num_edges``).
    Rows are destinations; ``num_src`` (default ``num_nodes``) counts the
    source rows, which differ in a layered block
    (:mod:`repro.graph.blocks`).

    Attributes
    ----------
    indptr : int64 ``[n+1]`` — CSR row pointers (destination-major).
    indices : int64 ``[E]`` — source node id of every edge.
    dst_ids : int64 ``[E]`` — destination node id of every edge
        (``segment_ids_from_indptr(indptr)``, materialised once).
    dropout_rows : ``(edge_ids, total)`` or ``None`` — on a block, the
        edges' positions in the graph's ``total``-edge structure, where an
        attention-dropout mask is drawn and gathered.
    """

    __slots__ = ("indptr", "indices", "num_nodes", "num_src", "dst_ids", "dropout_rows", "_transpose")

    def __init__(
        self, csr: CSR, num_src: int | None = None, dropout_rows: tuple[np.ndarray, int] | None = None
    ) -> None:
        self.indptr = csr.indptr
        self.indices = csr.indices
        self.num_nodes = csr.num_nodes
        self.num_src = csr.num_nodes if num_src is None else int(num_src)
        self.dropout_rows = dropout_rows
        self.dst_ids = np.repeat(
            np.arange(csr.num_nodes, dtype=np.int64), np.diff(csr.indptr)
        )
        self._transpose: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def num_edges(self) -> int:
        """Directed edge count."""
        return int(len(self.indices))

    @property
    def src_ids(self) -> np.ndarray:
        """Alias for ``indices``: source node id of every edge."""
        return self.indices

    def transpose(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(perm, t_indptr, t_indices)`` of the source-major reordering.

        ``perm`` stably sorts edges by source node; ``t_indptr``/``t_indices``
        are the CSR structure of the transposed adjacency (rows = sources).
        Fused-kernel backward passes reuse this instead of re-sorting the
        edge list on every call.
        """
        if self._transpose is None:
            perm = np.argsort(self.indices, kind="stable")
            counts = np.bincount(self.indices, minlength=self.num_src)
            t_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            self._transpose = (perm, t_indptr, self.dst_ids[perm])
        return self._transpose

    def __repr__(self) -> str:
        return f"MessageStructure(nodes={self.num_nodes}, edges={self.num_edges})"


def edges_to_csr(src: np.ndarray, dst: np.ndarray, num_nodes: int, dedup: bool = True) -> CSR:
    """Build a CSR adjacency from parallel ``src``/``dst`` edge arrays.

    Edges are sorted by ``(dst, src)``; with ``dedup=True`` exact duplicate
    edges collapse to one.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src/dst length mismatch")
    if len(src) and (src.min() < 0 or src.max() >= num_nodes or dst.min() < 0 or dst.max() >= num_nodes):
        raise ValueError("edge endpoint out of range")
    order = np.lexsort((src, dst))
    src, dst = src[order], dst[order]
    if dedup and len(src):
        unique = np.ones(len(src), dtype=bool)
        unique[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[unique], dst[unique]
    counts = np.bincount(dst, minlength=num_nodes)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return CSR(indptr, src, num_nodes)


def build_csr(edge_list, num_nodes: int, symmetrize: bool = True, dedup: bool = True) -> CSR:
    """Convenience builder from an iterable of ``(u, v)`` pairs."""
    edges = np.asarray(list(edge_list), dtype=np.int64)
    if edges.size == 0:
        src = dst = np.empty(0, dtype=np.int64)
    else:
        src, dst = edges[:, 0], edges[:, 1]
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    return edges_to_csr(src, dst, num_nodes, dedup=dedup)
