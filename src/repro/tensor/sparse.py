"""Sparse-dense products with autograd, wrapping ``scipy.sparse``.

GCN and GraphSAGE aggregation are a single SpMM against a fixed,
pre-normalised adjacency. The adjacency never requires gradients, so the
only VJP needed is ``dX = A^T @ dY``; :class:`SparseAdj` transposes the
matrix on the first backward and keeps it, so no backward pays a
conversion and a forward that never runs one (no-grad serving, the
feature-input layer of an alpha descent) never transposes at all.
"""

from __future__ import annotations

import scipy.sparse as sp

from .tensor import Tensor

__all__ = ["SparseAdj", "spmm"]


class SparseAdj:
    """An immutable CSR operator with its transpose built once, on first use.

    Parameters
    ----------
    matrix:
        Any scipy sparse matrix; stored as CSR.  Rows index message
        *destinations*, columns message *sources*, so ``A @ H`` aggregates
        each node's in-neighbourhood.
    """

    __slots__ = ("csr", "_csr_t")

    def __init__(self, matrix: sp.spmatrix) -> None:
        self.csr = sp.csr_matrix(matrix)
        self.csr.sum_duplicates()
        self._csr_t: sp.csr_matrix | None = None

    @property
    def csr_t(self) -> sp.csr_matrix:
        """The transpose as CSR, built on first use (the backward's operand)."""
        if self._csr_t is None:
            self._csr_t = sp.csr_matrix(self.csr.T)
        return self._csr_t

    @property
    def shape(self) -> tuple:
        """``(rows, cols)`` of the operator."""
        return self.csr.shape

    @property
    def nnz(self) -> int:
        """Stored entry (edge) count."""
        return self.csr.nnz

    @property
    def nbytes(self) -> int:
        """Storage footprint of the operator (and of its transpose once built)."""
        total = 0
        for m in (self.csr, self._csr_t):
            if m is not None:
                total += m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        return total

    def __repr__(self) -> str:
        return f"SparseAdj(shape={self.shape}, nnz={self.nnz})"


def spmm(adj: SparseAdj, dense: Tensor) -> Tensor:
    """Differentiable sparse @ dense: ``out = A @ X``; ``dX = A^T @ dY``.

    Parameters
    ----------
    adj : SparseAdj (or any scipy sparse matrix, wrapped on the fly)
        Constant ``[n, n]`` message-passing operator — no gradient flows
        into the adjacency. Pass the cached :meth:`Graph.operator` result
        so the CSR conversion and transpose are paid at most once per
        graph, not per forward.
    dense : Tensor, float64 ``[n, F]``
        Node-feature matrix (gradient flows through).

    Returns the aggregated ``[n, F]`` tensor in a single tape node: the
    forward is one compiled CSR SpMM, the backward one SpMM against the
    transposed matrix (built on the first backward, then kept). Callers:
    ``GCNConv`` (``operator("gcn")``), ``SAGEConv`` (``operator("mean")``),
    ``GINConv`` (``operator("sum")``) and the serve/eval paths that reuse
    those layers.
    """
    if not isinstance(adj, SparseAdj):
        adj = SparseAdj(adj)
    out_data = adj.csr @ dense.data

    def vjp(g):
        return (adj.csr_t @ g,)

    return Tensor._make(out_data, (dense,), vjp)
