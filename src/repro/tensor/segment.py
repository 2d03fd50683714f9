"""Vectorised segment operations over CSR-ordered edge data.

GNN message passing repeatedly reduces *edge-aligned* arrays into
*node-aligned* arrays: "for each destination node, combine the values on its
incoming edges". When edges are stored in CSR order (all edges of
destination 0, then destination 1, ...) every segment is a contiguous run
delimited by ``indptr`` and the reductions vectorise:

* ``segment_sum`` and ``segment_max`` run ``np.add.reduceat`` /
  ``np.maximum.reduceat`` over the non-empty segments only (reduceat
  mishandles empty ones); each segment's value depends only on its own
  edges, so a layered block that keeps a destination's edges reproduces
  that destination's sum bit for bit;
* ``segment_softmax`` fuses max-shift / exp / normalise with an analytic
  backward, the core of the GAT attention layer.

All functions accept either 1-D ``[E]`` or 2-D ``[E, H]`` (multi-head)
edge arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .tensor import Tensor

__all__ = [
    "np_segment_sum",
    "np_segment_max",
    "np_gather_mul_segment_sum",
    "segment_ids_from_indptr",
    "segment_sum",
    "segment_mean",
    "gather",
    "segment_softmax",
    "gather_mul_segment_sum",
    "edge_attention_logits",
]


# ---------------------------------------------------------------------------
# raw NumPy kernels
# ---------------------------------------------------------------------------


def segment_ids_from_indptr(indptr: np.ndarray) -> np.ndarray:
    """Expand CSR ``indptr`` into a per-edge segment-id array.

    ``indptr = [0, 2, 2, 5]`` -> ``[0, 0, 2, 2, 2]``.
    """
    counts = np.diff(indptr)
    return np.repeat(np.arange(len(counts), dtype=np.int64), counts)


def np_segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Sum contiguous segments of ``values`` delimited by ``indptr``.

    Empty segments sum to exactly zero. Works on ``[E]`` and ``[E, ...]``
    arrays, reducing over axis 0. A segment's sum reads only its own
    edges (no running prefix across segments), so it does not depend on
    which other segments are present.
    """
    counts = np.diff(indptr)
    out = np.zeros((len(counts),) + values.shape[1:], dtype=values.dtype)
    nonempty = counts > 0
    if values.shape[0] == 0 or not nonempty.any():
        return out
    out[nonempty] = np.add.reduceat(values, indptr[:-1][nonempty], axis=0)
    return out


def np_gather_mul_segment_sum(
    values: np.ndarray,
    alpha: np.ndarray,
    src_ids: np.ndarray,
    indptr: np.ndarray,
) -> np.ndarray:
    """Fused gather–multiply–segment-reduce (raw kernel, no autograd).

    Computes, for every destination segment ``s`` delimited by ``indptr``::

        out[s] = sum_{e in s} alpha[e] * values[src_ids[e]]

    without materialising the per-edge ``[E, H, F]`` message array the
    unfused ``gather -> * -> segment_sum`` pipeline builds. Per head the
    reduction is exactly one CSR SpMM with ``alpha[:, h]`` as the matrix
    data, so it runs in scipy's compiled matmul with a working set of
    ``[n, F]`` instead of ``[E, H, F]``.

    Parameters
    ----------
    values : float ``[n, F]`` or ``[n, H, F]``
        Node-aligned source features (``H`` = attention heads).
    alpha : float ``[E]`` or ``[E, H]``
        Per-edge multipliers in CSR (destination-major) order. Must be
        1-D iff ``values`` is 2-D.
    src_ids : int ``[E]``
        Source node id of every edge (the CSR ``indices`` array).
    indptr : int ``[n_seg + 1]``
        CSR row pointers delimiting each destination's edges.

    Returns
    -------
    float ``[n_seg, F]`` or ``[n_seg, H, F]``
        Weighted in-neighbourhood sums. Empty segments are exactly zero.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    src_ids = np.asarray(src_ids, dtype=np.int64)
    n_seg = len(indptr) - 1
    single = alpha.ndim == 1
    if single != (values.ndim == 2):
        raise ValueError(
            f"values {values.shape} / alpha {alpha.shape}: expected [n,F] with [E] or [n,H,F] with [E,H]"
        )
    v3 = values[:, None, :] if single else values
    a2 = alpha[:, None] if single else alpha
    n, num_heads, feat = v3.shape
    out = np.empty((n_seg, num_heads, feat), dtype=np.result_type(v3.dtype, a2.dtype))
    for h in range(num_heads):
        op = sp.csr_matrix((a2[:, h], src_ids, indptr), shape=(n_seg, n))
        out[:, h, :] = op @ np.ascontiguousarray(v3[:, h, :])
    return out[:, 0, :] if single else out


def np_segment_max(values: np.ndarray, indptr: np.ndarray, empty_value: float = 0.0) -> np.ndarray:
    """Max over contiguous segments; empty segments get ``empty_value``.

    ``np.maximum.reduceat`` mishandles empty segments (it returns
    ``values[start]`` and shifts neighbours), so the reduction runs only
    over the *non-empty* segment starts: consecutive non-empty starts
    bracket exactly one segment's data (empty segments contribute no
    elements in between), making the compressed reduceat exact.
    """
    counts = np.diff(indptr)
    n_seg = len(counts)
    dtype = values.dtype if values.dtype.kind == "f" else np.float64
    out = np.full((n_seg,) + values.shape[1:], empty_value, dtype=dtype)
    nonempty = counts > 0
    if values.shape[0] == 0 or not nonempty.any():
        return out
    starts = indptr[:-1][nonempty]
    out[nonempty] = np.maximum.reduceat(values, starts, axis=0)
    return out


# ---------------------------------------------------------------------------
# autograd ops
# ---------------------------------------------------------------------------


def segment_sum(values: Tensor, indptr: np.ndarray) -> Tensor:
    """Differentiable per-segment sum: ``out[s] = sum(values[indptr[s]:indptr[s+1]])``.

    Parameters
    ----------
    values : Tensor, float64 ``[E]`` or ``[E, ...]``
        Edge-aligned data in CSR (destination-major) order.
    indptr : int ``[n_seg + 1]``
        Segment boundaries (constant w.r.t. autograd).

    Returns a ``[n_seg, ...]`` tensor; empty segments are exactly zero.
    Backward broadcasts the segment gradient back to each member edge
    (``d_values[e] = g[seg(e)]``). General-purpose reducer; the GAT hot
    path now uses the fused :func:`gather_mul_segment_sum` instead.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    seg_ids = segment_ids_from_indptr(indptr)
    out_data = np_segment_sum(values.data, indptr)

    def vjp(g):
        return (g[seg_ids],)

    return Tensor._make(out_data, (values,), vjp)


def segment_mean(values: Tensor, indptr: np.ndarray) -> Tensor:
    """Differentiable per-segment mean; empty segments yield zero."""
    indptr = np.asarray(indptr, dtype=np.int64)
    counts = np.diff(indptr).astype(np.float64)
    inv = np.zeros_like(counts)
    nonzero = counts > 0
    inv[nonzero] = 1.0 / counts[nonzero]
    inv = inv.reshape((-1,) + (1,) * (values.ndim - 1))
    return segment_sum(values, indptr) * inv


def gather(values: Tensor, index: np.ndarray) -> Tensor:
    """Differentiable row gather ``values[index]`` (index is constant).

    Parameters
    ----------
    values : Tensor, float64 ``[n, ...]``
        Node-aligned data.
    index : int ``[E]``
        Row ids to select (repeats allowed).

    Returns an ``[E, ...]`` tensor. Backward scatter-adds
    (``np.add.at``), so repeated indices accumulate — exactly the adjoint
    of message broadcast in message passing. Kept as the general
    edge-broadcast primitive; GAT's per-edge gathers are fused into
    :func:`edge_attention_logits` / :func:`gather_mul_segment_sum`.
    """
    index = np.asarray(index, dtype=np.int64)
    a = values.data
    out_data = a[index]

    def vjp(g):
        ga = np.zeros_like(a)
        np.add.at(ga, index, g)
        return (ga,)

    return Tensor._make(out_data, (values,), vjp)


def segment_softmax(scores: Tensor, indptr: np.ndarray) -> Tensor:
    """Softmax of edge scores within each destination segment.

    For every segment ``s`` (the incoming edges of one node):

    ``out[e] = exp(scores[e] - max_s) / sum_{e' in s} exp(scores[e'] - max_s)``

    This is the edge-attention normalisation of GAT
    (:class:`repro.models.gat.GATConv` is the only caller). ``scores`` is
    float64 ``[E]`` or ``[E, H]`` in CSR order; the output has the same
    shape and sums to 1 within every non-empty segment. The backward pass
    is the standard softmax VJP restricted to segments:
    ``d/ds = y * (g - seg_sum(g * y)[seg_ids])`` — already fused (max-shift,
    exp, normalise and the VJP all happen inside this one tape node).
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    seg_ids = segment_ids_from_indptr(indptr)
    a = scores.data
    seg_max = np_segment_max(a, indptr, empty_value=0.0)
    shifted = a - seg_max[seg_ids]
    e = np.exp(shifted)
    denom = np_segment_sum(e, indptr)
    # guard empty segments: no edges reference them, value is irrelevant
    denom = np.where(denom == 0.0, 1.0, denom)
    out_data = e / denom[seg_ids]

    def vjp(g):
        weighted = np_segment_sum(g * out_data, indptr)
        return (out_data * (g - weighted[seg_ids]),)

    return Tensor._make(out_data, (scores,), vjp)


# ---------------------------------------------------------------------------
# fused message-passing ops (one tape node instead of three)
# ---------------------------------------------------------------------------


def gather_mul_segment_sum(
    values: Tensor,
    alpha: Tensor,
    src_ids: np.ndarray,
    indptr: np.ndarray,
    dst_ids: np.ndarray | None = None,
    transpose: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> Tensor:
    """Differentiable fused attention aggregation: ``out[i] = Σ_e α_e · h_src(e)``.

    The fused replacement for the GAT aggregation pipeline
    ``gather(values, src_ids) * alpha -> segment_sum``: one tape node, no
    ``[E, H, F]`` per-edge intermediates in either direction. This is the
    hottest kernel of :class:`repro.models.gat.GATConv` (the only caller);
    forward is one CSR SpMM per head (:func:`np_gather_mul_segment_sum`).

    Parameters
    ----------
    values : Tensor, float64 ``[n, F]`` or ``[n, H, F]``
        Node-aligned projected features (gradient flows through).
    alpha : Tensor, float64 ``[E]`` or ``[E, H]``
        Per-edge attention weights in CSR (destination-major) order
        (gradient flows through). 1-D iff ``values`` is 2-D.
    src_ids : int ``[E]``
        Source node of every edge (the CSR ``indices`` array, constant).
    indptr : int ``[n_seg + 1]``
        CSR row pointers (constant).
    dst_ids : int ``[E]``, optional
        ``segment_ids_from_indptr(indptr)``; pass the cached copy from
        :class:`repro.graph.csr.MessageStructure` to skip recomputing it
        in backward.
    transpose : ``(perm, t_indptr, t_indices)``, optional
        Source-major edge reordering from ``MessageStructure.transpose()``;
        computed on the fly (and not cached) when omitted.

    Gradients
    ---------
    * ``d_values[j] = Σ_{e: src(e)=j} α_e · g[dst(e)]`` — one SpMM per head
      against the transposed operator.
    * ``d_alpha[e] = <g[dst(e)], values[src(e)]>`` — a per-edge sampled dot
      product (SDDMM), materialising only ``[E, F]`` per head.
    """
    src_ids = np.asarray(src_ids, dtype=np.int64)
    indptr = np.asarray(indptr, dtype=np.int64)
    v, a = values.data, alpha.data
    single = a.ndim == 1
    out_data = np_gather_mul_segment_sum(v, a, src_ids, indptr)

    def vjp(g):
        nonlocal dst_ids, transpose
        if dst_ids is None:
            dst_ids = segment_ids_from_indptr(indptr)
        if transpose is None:
            perm = np.argsort(src_ids, kind="stable")
            counts = np.bincount(src_ids, minlength=v.shape[0])
            t_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            transpose = (perm, t_indptr, dst_ids[perm])
        perm, t_indptr, t_indices = transpose
        g3 = g[:, None, :] if single else g
        v3 = v[:, None, :] if single else v
        a2 = a[:, None] if single else a
        n, num_heads, _ = v3.shape
        n_seg = len(indptr) - 1
        gv = np.empty_like(v3)
        ga = np.empty(a2.shape, dtype=g.dtype)
        for h in range(num_heads):
            g_h = np.ascontiguousarray(g3[:, h, :])
            op_t = sp.csr_matrix((a2[perm, h], t_indices, t_indptr), shape=(n, n_seg))
            gv[:, h, :] = op_t @ g_h
            v_h = np.ascontiguousarray(v3[:, h, :])
            ga[:, h] = np.einsum("ef,ef->e", g_h[dst_ids], v_h[src_ids])
        if single:
            return gv[:, 0, :], ga[:, 0]
        return gv, ga

    return Tensor._make(out_data, (values, alpha), vjp)


def edge_attention_logits(
    score_src: Tensor,
    score_dst: Tensor,
    src_ids: np.ndarray,
    dst_ids: np.ndarray,
    indptr: np.ndarray,
    negative_slope: float = 0.2,
) -> Tensor:
    """Fused GAT edge logits: ``leaky_relu(score_src[src] + score_dst[dst])``.

    Replaces the three-node pipeline ``gather + gather -> add -> leaky_relu``
    with one tape node producing bit-identical values and gradients (same
    ``a > 0`` mask and ``np.where`` formula as ``Tensor.leaky_relu``, same
    scatter-add adjoint as :func:`gather`). Called only by
    :class:`repro.models.gat.GATConv`.

    Parameters
    ----------
    score_src, score_dst : Tensor, float64 ``[n, H]``
        Per-node attention halves ``a_src·h_j`` / ``a_dst·h_i``.
    src_ids, dst_ids : int ``[E]``
        Edge endpoints in CSR order; ``dst_ids`` must equal
        ``segment_ids_from_indptr(indptr)`` (destination-major sort), which
        lets the destination gradient use the vectorised segment sum
        instead of a scatter.
    indptr : int ``[n + 1]``
        CSR row pointers.
    negative_slope : float
        Leaky-ReLU slope for negative logits.

    Returns
    -------
    Tensor ``[E, H]`` of pre-softmax attention logits.
    """
    src_ids = np.asarray(src_ids, dtype=np.int64)
    dst_ids = np.asarray(dst_ids, dtype=np.int64)
    indptr = np.asarray(indptr, dtype=np.int64)
    a = score_src.data[src_ids] + score_dst.data[dst_ids]
    mask = a > 0
    out_data = np.where(mask, a, negative_slope * a)
    src_shape = score_src.data.shape

    def vjp(g):
        ge = np.where(mask, g, negative_slope * g)
        g_src = np.zeros(src_shape, dtype=ge.dtype)
        np.add.at(g_src, src_ids, ge)
        # dst_ids are the sorted segment ids, so the scatter collapses to
        # the per-segment sum
        g_dst = np_segment_sum(ge, indptr)
        return g_src, g_dst

    return Tensor._make(out_data, (score_src, score_dst), vjp)
