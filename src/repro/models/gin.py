"""Graph Isomorphism Network (Xu et al. 2019).

Layer rule: ``H' = MLP((1 + eps) * H + A H)`` — sum aggregation over raw
(unnormalised) neighbours plus an epsilon-weighted self term, the maximally
expressive aggregator of the WL hierarchy.

Not one of the paper's three evaluated architectures; included because
souping is architecture-agnostic (any shared-init family of models is
soupable) and GIN's learnable scalar ``eps`` exercises a parameter shape
(0-D-like) that the state-dict algebra and LS's per-layer alphas must
handle correctly.
"""

from __future__ import annotations

import numpy as np

from ..nn import Dropout, Linear, Module, ModuleList, Parameter
from ..tensor import Tensor, scale_add, spmm
from ..graph.graph import Graph

__all__ = ["GINConv", "GIN"]


class GINConv(Module):
    """Sum-aggregator GIN convolution with a learnable ``eps`` and 2-layer MLP."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.eps = Parameter(np.zeros(1))
        self.fc1 = Linear(in_features, out_features, rng, bias=True)
        self.fc2 = Linear(out_features, out_features, rng, bias=True)

    def forward(self, graph: Graph, x: Tensor) -> Tensor:
        """``MLP((1 + eps) * x + A x)`` with sum aggregation."""
        agg = spmm(graph.operator("sum"), x)
        h = scale_add(graph.dst_rows(x), self.eps, agg)  # (1 + eps) * x + agg, one tape node
        return self.fc2(self.fc1(h).relu())


class GIN(Module):
    """Multi-layer GIN for node classification."""

    arch_name = "gin"

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        out_dim: int,
        num_layers: int = 2,
        dropout: float = 0.5,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng if rng is not None else np.random.default_rng(0)
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]
        self.convs = ModuleList(GINConv(dims[i], dims[i + 1], rng) for i in range(num_layers))
        self.dropout = Dropout(dropout)
        self.num_layers = num_layers

    @property
    def num_hops(self) -> int:
        """Neighbourhood radius a row's logits depend on."""
        return self.num_layers

    def forward(self, graph: Graph, x: Tensor | None = None, rng: np.random.Generator | None = None) -> Tensor:
        """Logits ``[n, out_dim]`` of a graph, or of a row set's layered blocks."""
        h = x if x is not None else Tensor(graph.features)
        for i, conv in enumerate(self.convs):
            layer = graph.layer(i)
            h = self.dropout(h, rng, layer.dropout_rows)
            h = conv(layer, h)
            if i < self.num_layers - 1:
                h = h.relu()
        return h
