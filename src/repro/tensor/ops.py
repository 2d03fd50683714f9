"""Composite autograd operations used across the library.

Notably :func:`weighted_combine`, the op that makes Learned Souping
differentiable: the soup's layer weights are an alpha-weighted sum over a
*constant* stack of ingredient weights, so only the (tiny) alpha vector
carries gradient while the heavy ingredient stack stays a raw ndarray.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _unbroadcast, rowwise_matmul

__all__ = ["weighted_combine", "dropout", "linear", "scale_add", "sparsemax", "np_sparsemax"]


def weighted_combine(weights: Tensor, stacked: np.ndarray) -> Tensor:
    """Combine ``stacked[i]`` arrays with scalar coefficients ``weights[i]``.

    Parameters
    ----------
    weights:
        Differentiable coefficient vector of shape ``[N]`` (one scalar per
        ingredient; in LS this is a softmax-normalised alpha column).
    stacked:
        Constant ndarray of shape ``[N, *param_shape]`` holding the same
        parameter from all N ingredients.

    Returns
    -------
    Tensor of shape ``param_shape``:
        ``out = sum_i weights[i] * stacked[i]`` — Eq. (3) of the paper.

    The VJP w.r.t. ``weights`` is ``dL/dw_i = <grad_out, stacked[i]>``: one
    dot product per ingredient, which is why LS scales so much better than
    GIS's exhaustive ratio search.
    """
    stacked = np.asarray(stacked)
    if weights.ndim != 1 or weights.shape[0] != stacked.shape[0]:
        raise ValueError(
            f"weights shape {weights.shape} incompatible with stack of {stacked.shape[0]} ingredients"
        )
    flat = stacked.reshape(stacked.shape[0], -1)
    out_data = (weights.data @ flat).reshape(stacked.shape[1:])

    def vjp(g):
        return (flat @ g.reshape(-1),)

    return Tensor._make(out_data, (weights,), vjp)


def dropout(
    x: Tensor,
    p: float,
    rng: np.random.Generator,
    training: bool = True,
    rows: tuple[np.ndarray, int] | None = None,
) -> Tensor:
    """Inverted dropout: zero with probability ``p``, scale survivors by 1/(1-p).

    The mask is drawn from the caller's RNG so each souping/training run is
    reproducible, and it is a constant w.r.t. autograd. With ``rows =
    (ids, total)``, ``x`` holds rows ``ids`` of a ``total``-row tensor: the
    mask is drawn over all ``total`` rows and gathered at ``ids``, so the
    RNG stream and every kept entry match dropout on the whole tensor.
    """
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    keep = 1.0 - p
    if rows is None:
        kept = rng.random(x.shape) < keep
    else:
        ids, total = rows
        kept = (rng.random((total,) + x.shape[1:]) < keep)[ids]
    mask = kept.astype(x.data.dtype) / keep
    return x * Tensor(mask)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ W + b`` (weight is ``[in, out]``) as one tape node.

    For the 2-D case every layer hits, the matmul and bias add fuse into a
    single autograd node (one fewer tape entry and intermediate per layer)
    with VJPs ``d_x = g @ W^T``, ``d_W = x^T @ g``, ``d_b = Σ_rows g`` —
    bit-identical values and gradients to the unfused ``x @ W + b``
    composition, which remains the fallback for higher-rank inputs. Both
    multiply through :func:`~repro.tensor.tensor.rowwise_matmul`, so a
    row's output does not depend on how many rows the call has.
    """
    if x.ndim != 2 or weight.ndim != 2:
        out = x @ weight
        if bias is not None:
            out = out + bias
        return out
    a, w = x.data, weight.data
    out_data = rowwise_matmul(a, w)
    if bias is None:

        def vjp(g):
            return g @ w.T, a.T @ g

        return Tensor._make(out_data, (x, weight), vjp)
    b_shape = bias.data.shape
    out_data = out_data + bias.data

    def vjp(g):
        return g @ w.T, a.T @ g, _unbroadcast(g, b_shape)

    return Tensor._make(out_data, (x, weight, bias), vjp)


def scale_add(x: Tensor, eps: Tensor, neigh: Tensor) -> Tensor:
    """GIN combine ``(1 + eps) * x + neigh`` fused into one tape node.

    ``eps`` is the learnable shape-``[1]`` scalar; ``x`` and ``neigh`` are
    ``[n, F]``. Bit-identical (values and gradients) to the unfused
    ``x * (eps + ones(1)) + neigh`` composition it replaces in
    ``GINConv.forward``: ``d_x = g * (1 + eps)``, ``d_eps = Σ g·x``
    (reduced exactly like broadcast unfolding), ``d_neigh = g``.
    """
    a, e = x.data, eps.data
    scale = e + 1.0
    out_data = a * scale + neigh.data
    e_shape = e.shape

    def vjp(g):
        return g * scale, _unbroadcast(g * a, e_shape), g

    return Tensor._make(out_data, (x, eps, neigh), vjp)


def np_sparsemax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sparsemax (Martins & Astudillo 2016): Euclidean projection of ``z``
    onto the probability simplex along ``axis``.

    Unlike softmax it produces **exact zeros** for sufficiently small
    logits — the property the paper's §V-A failure analysis wants from an
    alpha normaliser ("the softmax function is not able to assign a zero
    to the interpolation ratio").
    """
    z = np.asarray(z, dtype=np.float64)
    zm = np.moveaxis(z, axis, -1)
    n = zm.shape[-1]
    z_sorted = -np.sort(-zm, axis=-1)  # descending
    k = np.arange(1, n + 1, dtype=np.float64)
    cumsum = np.cumsum(z_sorted, axis=-1)
    # largest k with 1 + k*z_(k) > cumsum_k — the support size
    cond = 1.0 + k * z_sorted > cumsum
    k_z = np.count_nonzero(cond, axis=-1, keepdims=True)  # >= 1 always
    cumsum_kz = np.take_along_axis(cumsum, k_z - 1, axis=-1)
    tau = (cumsum_kz - 1.0) / k_z
    out = np.maximum(zm - tau, 0.0)
    return np.moveaxis(out, -1, axis)


def sparsemax(x: Tensor, axis: int = -1) -> Tensor:
    """Differentiable sparsemax over ``axis``.

    The VJP is the projection's Jacobian: gradients flow only through the
    support ``S = {out > 0}``, each reduced by the support mean —
    ``dz = 1[S] * (g - mean_S(g))``. Off-support logits get exactly zero
    gradient, which is why sparsemax-normalised LS can *permanently* drop
    an ingredient (see ``repro.soup`` ``normalize="sparsemax"``).
    """
    out_data = np_sparsemax(x.data, axis=axis)
    support = out_data > 0.0

    def vjp(g):
        masked = np.where(support, g, 0.0)
        count = support.sum(axis=axis, keepdims=True)
        mean = masked.sum(axis=axis, keepdims=True) / np.maximum(count, 1)
        return (np.where(support, g - mean, 0.0),)

    return Tensor._make(out_data, (x,), vjp)
