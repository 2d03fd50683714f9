"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the numerical substrate for the whole reproduction: a
tape-based autograd ``Tensor`` in the style of PyTorch, specialised for the
operations GNN souping needs (dense linear algebra, elementwise math,
reductions, fancy indexing) while staying fully vectorised — no Python
loops appear on any per-element path.

Design notes
------------
* Every operation records its parents and a closure computing the local
  vector-Jacobian product. ``Tensor.backward`` topologically sorts the tape
  and accumulates gradients once per node.
* Gradients are plain ``numpy.ndarray`` objects stored on ``Tensor.grad``;
  only leaves with ``requires_grad=True`` retain them (intermediate
  gradients are used transiently during the sweep).
* Broadcasting follows NumPy semantics; ``_unbroadcast`` reduces upstream
  gradients back to each parent's shape.
* ``no_grad`` disables tape recording globally, which both speeds up
  inference and keeps the peak-memory measurements of the souping
  benchmarks honest (no stray activation references).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "tensor",
    "zeros",
    "ones",
    "concat",
    "stack",
    "where",
    "maximum",
    "minimum",
    "register_alloc_hook",
    "unregister_alloc_hook",
    "clear_alloc_hooks",
]

# ---------------------------------------------------------------------------
# autograd mode switch (thread-local: Phase-1 worker threads must not see
# each other's no_grad() evaluation windows)
# ---------------------------------------------------------------------------


class _GradMode(threading.local):
    enabled: bool = True  # class attribute = per-thread default


_GRAD_MODE = _GradMode()


class no_grad(contextlib.ContextDecorator):
    """Context manager / decorator that disables gradient recording.

    Mirrors ``torch.no_grad``: operations executed inside build no tape, so
    results are detached constants. The mode is thread-local, so concurrent
    ingredient-training workers evaluating under ``no_grad`` cannot corrupt
    each other's tapes.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc) -> bool:
        _GRAD_MODE.enabled = self._prev
        return False


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd tape."""
    return _GRAD_MODE.enabled


# ---------------------------------------------------------------------------
# allocation hooks (used by repro.profiling.memory to measure peak memory)
# ---------------------------------------------------------------------------

_ALLOC_HOOKS: list = []


def register_alloc_hook(hook) -> None:
    """Register an object with ``on_alloc(tensor)`` called at Tensor creation.

    The profiling subsystem uses this to attribute every live tensor buffer
    to the currently-running souping phase (the NumPy-level analogue of
    ``torch.cuda.max_memory_allocated``).
    """
    _ALLOC_HOOKS.append(hook)


def unregister_alloc_hook(hook) -> None:
    """Remove a previously-registered allocation hook (no-op if absent)."""
    try:
        _ALLOC_HOOKS.remove(hook)
    except ValueError:
        pass


def clear_alloc_hooks() -> None:
    """Drop every registered allocation hook.

    Worker processes forked while a :class:`~repro.profiling.MemoryMeter`
    was active inherit the parent's hook list; their allocations belong to
    the worker, not the parent's measurement, so worker entry points clear
    the registry before doing any work.
    """
    _ALLOC_HOOKS.clear()


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so its shape matches the pre-broadcast ``shape``.

    NumPy broadcasting may have (a) prepended dimensions and (b) stretched
    size-1 dimensions; the VJP of broadcasting sums over both.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        raise TypeError("expected raw array-like, got Tensor")
    arr = np.asarray(value)
    if dtype is not None and arr.dtype != dtype:
        arr = arr.astype(dtype)
    if arr.dtype == np.float32 or arr.dtype == np.float64:
        return arr
    if np.issubdtype(arr.dtype, np.floating):
        return arr.astype(np.float64)
    if np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_:
        return arr.astype(np.float64)
    return arr


def _coerce(other) -> "Tensor":
    if isinstance(other, Tensor):
        return other
    return Tensor(_as_array(other), requires_grad=False)


#: Output widths the forward GEMM is padded to a multiple of (see
#: :func:`rowwise_matmul`).
GEMM_WIDTH_MULTIPLE = 8


def rowwise_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2-D ``a @ b`` whose every output row depends only on its own input row.

    A layered block (:mod:`repro.graph.blocks`) multiplies a few hundred
    rows where the full pass multiplies thousands, and its logits are
    bit-identical only if a row of the product comes out the same at any
    row count. OpenBLAS (measured on its SkylakeX kernels) keeps that for
    output widths that are multiples of 8 and for two or more rows; other
    widths take tail paths whose rounding depends on the row count, and a
    single row goes through GEMV. So ``b`` gets zero columns up to a
    multiple of :data:`GEMM_WIDTH_MULTIPLE` and a one-row ``a`` a zero
    row; the padding is sliced off the result.
    """
    m, n = a.shape[0], b.shape[1]
    pad = (-n) % GEMM_WIDTH_MULTIPLE
    if not pad and m != 1:
        return a @ b
    if pad:
        b = np.concatenate([b, np.zeros((b.shape[0], pad), dtype=b.dtype)], axis=1)
    if m == 1:
        a = np.concatenate([a, np.zeros_like(a)])
    return np.ascontiguousarray((a @ b)[:m, :n])


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------


class Tensor:
    """A NumPy array plus reverse-mode autodiff bookkeeping.

    Parameters
    ----------
    data:
        Array-like payload; floats are kept at their dtype, ints/bools are
        promoted to float64 (labels and masks stay raw arrays elsewhere).
    requires_grad:
        Whether this is a differentiable leaf. Non-leaf tensors get their
        ``requires_grad`` inferred from parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "name", "__weakref__")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _vjp: Callable | None = None,
        name: str | None = None,
    ) -> None:
        if isinstance(data, np.ndarray) and (data.dtype == np.float64 or data.dtype == np.float32):
            self.data = data  # fast path: op outputs arrive here
        else:
            self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = tuple(_parents)
        self._vjp = _vjp
        self.name = name
        if _ALLOC_HOOKS:
            for hook in _ALLOC_HOOKS:
                hook.on_alloc(self)

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        """Array shape."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total element count."""
        return self.data.size

    @property
    def dtype(self):
        """Underlying NumPy dtype."""
        return self.data.dtype

    @property
    def is_leaf(self) -> bool:
        """True for user-created tensors (no tape parents)."""
        return not self._parents

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """The Python scalar of a size-1 tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a constant tensor sharing this tensor's buffer."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Detached copy of the data as a fresh leaf tensor."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        """Reset the gradient buffer to None."""
        self.grad = None

    # -- graph construction ----------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"], vjp: Callable) -> "Tensor":
        """Build a non-leaf tensor, recording the tape only when needed."""
        if _GRAD_MODE.enabled and any(p.requires_grad for p in parents):
            out = Tensor(data, requires_grad=True, _parents=parents, _vjp=vjp)
        else:
            out = Tensor(data, requires_grad=False)
        return out

    # -- backward --------------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to ones (only valid to omit for scalars, matching
        PyTorch). Leaf tensors with ``requires_grad`` end up with ``.grad``
        populated; intermediate gradients are released as the sweep retires
        them so peak memory stays proportional to the live frontier.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.is_leaf:
                node.grad = g if node.grad is None else node.grad + g
                continue
            parent_grads = node._vjp(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _coerce(other)
        out_data = self.data + other.data
        a_shape, b_shape = self.data.shape, other.data.shape

        def vjp(g):
            return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

        return Tensor._make(out_data, (self, other), vjp)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = _coerce(other)
        out_data = self.data - other.data
        a_shape, b_shape = self.data.shape, other.data.shape

        def vjp(g):
            return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

        return Tensor._make(out_data, (self, other), vjp)

    def __rsub__(self, other) -> "Tensor":
        return _coerce(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = _coerce(other)
        a, b = self.data, other.data
        out_data = a * b

        def vjp(g):
            return _unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)

        return Tensor._make(out_data, (self, other), vjp)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _coerce(other)
        a, b = self.data, other.data
        out_data = a / b

        def vjp(g):
            ga = _unbroadcast(g / b, a.shape)
            gb = _unbroadcast(-g * a / (b * b), b.shape)
            return ga, gb

        return Tensor._make(out_data, (self, other), vjp)

    def __rtruediv__(self, other) -> "Tensor":
        return _coerce(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), lambda g: (-g,))

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        p = float(exponent)
        a = self.data
        out_data = a**p

        def vjp(g):
            return (g * p * a ** (p - 1.0),)

        return Tensor._make(out_data, (self,), vjp)

    def __matmul__(self, other) -> "Tensor":
        other = _coerce(other)
        a, b = self.data, other.data
        out_data = rowwise_matmul(a, b) if a.ndim == 2 and b.ndim == 2 else a @ b

        def vjp(g):
            if a.ndim == 1 and b.ndim == 1:  # dot product
                return g * b, g * a
            if a.ndim == 1:  # (k,) @ (k, n)
                return g @ b.T, np.outer(a, g)
            if b.ndim == 1:  # (m, k) @ (k,)
                return np.outer(g, b), a.T @ g
            ga = g @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ g
            return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

        return Tensor._make(out_data, (self, other), vjp)

    # -- reductions ----------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements by default)."""
        a = self.data
        out_data = a.sum(axis=axis, keepdims=keepdims)

        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, a.shape).copy() if np.ndim(g) == 0 else np.full(a.shape, g),)
            g_exp = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g_exp, a.shape),)

        return Tensor._make(out_data, (self,), vjp)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis`` (all elements by default)."""
        a = self.data
        count = a.size if axis is None else np.prod([a.shape[ax] for ax in np.atleast_1d(axis)])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis`` (all elements by default)."""
        a = self.data
        out_data = a.max(axis=axis, keepdims=keepdims)

        def vjp(g):
            if axis is None:
                mask = (a == out_data).astype(a.dtype)
            else:
                expanded = out_data if keepdims else np.expand_dims(out_data, axis)
                mask = (a == expanded).astype(a.dtype)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            g_exp = g if (axis is None or keepdims) else np.expand_dims(g, axis)
            return (mask * g_exp,)

        return Tensor._make(out_data, (self,), vjp)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Minimum over ``axis`` (all elements by default)."""
        return -((-self).max(axis=axis, keepdims=keepdims))

    # -- shape manipulation ------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        """View with a new shape (same data, gradient flows through)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a_shape = self.data.shape
        out_data = self.data.reshape(shape)

        def vjp(g):
            return (g.reshape(a_shape),)

        return Tensor._make(out_data, (self,), vjp)

    def transpose(self, *axes) -> "Tensor":
        """Permute axes (reversed by default)."""
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def vjp(g):
            return (g.transpose(inverse),)

        return Tensor._make(out_data, (self,), vjp)

    @property
    def T(self) -> "Tensor":
        """Two-axis transpose."""
        return self.transpose()

    def squeeze(self, axis=None) -> "Tensor":
        """Drop size-1 axes."""
        a_shape = self.data.shape
        out_data = self.data.squeeze(axis=axis)

        def vjp(g):
            return (g.reshape(a_shape),)

        return Tensor._make(out_data, (self,), vjp)

    def expand_dims(self, axis: int) -> "Tensor":
        """Insert a size-1 axis."""
        a_shape = self.data.shape
        out_data = np.expand_dims(self.data, axis)

        def vjp(g):
            return (g.reshape(a_shape),)

        return Tensor._make(out_data, (self,), vjp)

    def __getitem__(self, idx) -> "Tensor":
        """Differentiable indexing (slices, int arrays, boolean masks).

        The backward pass scatter-adds into a zero buffer, which makes
        gather-style indexing (``x[edge_src]``) the workhorse of the GAT
        implementation.
        """
        if isinstance(idx, Tensor):
            idx = idx.data.astype(np.int64)
        a = self.data
        out_data = a[idx]

        def vjp(g):
            ga = np.zeros_like(a)
            np.add.at(ga, idx, g)
            return (ga,)

        return Tensor._make(out_data, (self,), vjp)

    # -- elementwise nonlinearities ------------------------------------------------

    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)

        def vjp(g):
            return (g * out_data,)

        return Tensor._make(out_data, (self,), vjp)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        a = self.data

        def vjp(g):
            return (g / a,)

        return Tensor._make(np.log(a), (self,), vjp)

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        out_data = np.sqrt(self.data)

        def vjp(g):
            return (g * 0.5 / out_data,)

        return Tensor._make(out_data, (self,), vjp)

    def relu(self) -> "Tensor":
        """Elementwise ``max(x, 0)``."""
        a = self.data
        mask = a > 0
        out_data = np.where(mask, a, 0.0)

        def vjp(g):
            return (g * mask,)

        return Tensor._make(out_data, (self,), vjp)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        """Elementwise leaky ReLU."""
        a = self.data
        mask = a > 0
        out_data = np.where(mask, a, negative_slope * a)

        def vjp(g):
            return (np.where(mask, g, negative_slope * g),)

        return Tensor._make(out_data, (self,), vjp)

    def elu(self, alpha: float = 1.0) -> "Tensor":
        """Elementwise exponential linear unit."""
        a = self.data
        mask = a > 0
        neg = alpha * (np.exp(np.minimum(a, 0.0)) - 1.0)
        out_data = np.where(mask, a, neg)

        def vjp(g):
            return (np.where(mask, g, g * (neg + alpha)),)

        return Tensor._make(out_data, (self,), vjp)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid."""
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def vjp(g):
            return (g * out_data * (1.0 - out_data),)

        return Tensor._make(out_data, (self,), vjp)

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)

        def vjp(g):
            return (g * (1.0 - out_data * out_data),)

        return Tensor._make(out_data, (self,), vjp)

    def abs(self) -> "Tensor":
        """Elementwise absolute value."""
        a = self.data
        sign = np.sign(a)

        def vjp(g):
            return (g * sign,)

        return Tensor._make(np.abs(a), (self,), vjp)

    def clip(self, low: float | None = None, high: float | None = None) -> "Tensor":
        """Clamp values to ``[lo, hi]`` (gradient masked outside)."""
        a = self.data
        out_data = np.clip(a, low, high)
        mask = np.ones_like(a, dtype=bool)
        if low is not None:
            mask &= a >= low
        if high is not None:
            mask &= a <= high

        def vjp(g):
            return (g * mask,)

        return Tensor._make(out_data, (self,), vjp)

    # -- softmax family --------------------------------------------------------

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable ``log(softmax(x))`` along ``axis``."""
        a = self.data
        shifted = a - a.max(axis=axis, keepdims=True)
        logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - logsumexp
        softmax = np.exp(out_data)

        def vjp(g):
            return (g - softmax * g.sum(axis=axis, keepdims=True),)

        return Tensor._make(out_data, (self,), vjp)

    def softmax(self, axis: int = -1) -> "Tensor":
        """Softmax along ``axis``."""
        a = self.data
        shifted = a - a.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def vjp(g):
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            return (out_data * (g - dot),)

        return Tensor._make(out_data, (self,), vjp)


# ---------------------------------------------------------------------------
# free functions
# ---------------------------------------------------------------------------


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Construct a leaf tensor from array-like data."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    """All-zeros leaf tensor of the given shape."""
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    """All-ones leaf tensor of the given shape."""
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [_coerce(t) for t in tensors]
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(datas)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return Tensor._make(out_data, tuple(tensors), vjp)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    tensors = [_coerce(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def vjp(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return Tensor._make(out_data, tuple(tensors), vjp)


def where(condition: np.ndarray, a, b) -> Tensor:
    """Differentiable ``np.where`` with a constant boolean condition."""
    if isinstance(condition, Tensor):
        condition = condition.data
    condition = np.asarray(condition, dtype=bool)
    a, b = _coerce(a), _coerce(b)
    out_data = np.where(condition, a.data, b.data)
    a_shape, b_shape = a.data.shape, b.data.shape

    def vjp(g):
        ga = _unbroadcast(np.where(condition, g, 0.0), a_shape)
        gb = _unbroadcast(np.where(condition, 0.0, g), b_shape)
        return ga, gb

    return Tensor._make(out_data, (a, b), vjp)


def maximum(a, b) -> Tensor:
    """Differentiable elementwise maximum (subgradient splits ties evenly)."""
    a, b = _coerce(a), _coerce(b)
    out_data = np.maximum(a.data, b.data)
    a_mask = a.data >= b.data
    a_shape, b_shape = a.data.shape, b.data.shape

    def vjp(g):
        ga = _unbroadcast(np.where(a_mask, g, 0.0), a_shape)
        gb = _unbroadcast(np.where(a_mask, 0.0, g), b_shape)
        return ga, gb

    return Tensor._make(out_data, (a, b), vjp)


def minimum(a, b) -> Tensor:
    """Differentiable elementwise minimum."""
    return -maximum(-_coerce(a), -_coerce(b))
