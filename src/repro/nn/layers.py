"""Generic (non-graph) neural-network layers."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, init, ops
from .module import Module, Parameter

__all__ = ["Linear", "Dropout", "Sequential", "ReLU", "LeakyReLU", "ELU", "Tanh", "Identity"]


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with weight shape ``[in, out]``.

    Weights use Glorot-uniform initialisation (the convention of the DGL
    graph convolutions the paper builds on); bias starts at zero.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        if bias:
            self.bias = Parameter(np.zeros(out_features))
        object.__setattr__(self, "_has_bias", bias)

    def forward(self, x: Tensor) -> Tensor:
        """Apply ``x @ W + b`` (fused into one tape node via ``ops.linear``)."""
        return ops.linear(x, self.weight, self.bias if self._has_bias else None)

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self._has_bias})"


class Dropout(Module):
    """Inverted dropout; active only in training mode.

    The RNG is supplied per forward call so ingredient training stays
    deterministic per seed (dropout noise is part of what differentiates
    ingredients trained from the same initialisation).
    """

    def __init__(self, p: float = 0.5) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def forward(
        self, x: Tensor, rng: np.random.Generator | None = None, rows: tuple[np.ndarray, int] | None = None
    ) -> Tensor:
        """Inverted dropout during training; identity in eval mode.

        ``rows`` (a view's ``dropout_rows``) gathers a mask drawn over the
        whole graph, see :func:`~repro.tensor.ops.dropout`.
        """
        if not self.training or self.p == 0.0 or rng is None:
            return x
        return ops.dropout(x, self.p, rng, training=True, rows=rows)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class ReLU(Module):
    """Elementwise ``max(x, 0)``."""

    def forward(self, x: Tensor) -> Tensor:
        """Elementwise ``max(x, 0)``."""
        return x.relu()


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope (GAT's attention nonlinearity)."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        """Elementwise leaky ReLU with the layer's slope."""
        return x.leaky_relu(self.negative_slope)


class ELU(Module):
    """Exponential linear unit (GAT's inter-layer activation)."""

    def __init__(self, alpha: float = 1.0) -> None:
        super().__init__()
        self.alpha = alpha

    def forward(self, x: Tensor) -> Tensor:
        """Elementwise exponential linear unit."""
        return x.elu(self.alpha)


class Tanh(Module):
    """Elementwise hyperbolic tangent."""

    def forward(self, x: Tensor) -> Tensor:
        """Elementwise hyperbolic tangent."""
        return x.tanh()


class Identity(Module):
    """Pass-through module (placeholder in configurable stacks)."""

    def forward(self, x: Tensor) -> Tensor:
        """Return the input unchanged."""
        return x


class Sequential(Module):
    """Chain of modules applied in order (activations get no extra args)."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for i, module in enumerate(modules):
            setattr(self, str(i), module)

    def forward(self, x: Tensor) -> Tensor:
        """Apply the child modules in registration order."""
        for module in self._modules.values():
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, idx: int) -> Module:
        return self._modules[str(idx)]
