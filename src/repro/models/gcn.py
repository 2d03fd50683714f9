"""Graph Convolutional Network (Kipf & Welling 2017).

Layer rule: ``H' = D^{-1/2} (A + I) D^{-1/2} H W + b`` — the normalised
operator comes pre-computed from :meth:`Graph.operator`, so each layer is
one dense GEMM followed by one SpMM, the same kernel split DGL uses.
"""

from __future__ import annotations

import numpy as np

from ..nn import Dropout, Linear, Module, ModuleList
from ..tensor import Tensor, spmm
from ..graph.graph import Graph

__all__ = ["GCNConv", "GCN"]


class GCNConv(Module):
    """One graph convolution: linear transform then normalised aggregation."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True) -> None:
        super().__init__()
        self.linear = Linear(in_features, out_features, rng, bias=bias)

    def forward(self, graph: Graph, x: Tensor) -> Tensor:
        # transform first: cheaper when out_features < in_features, and the
        # SpMM then runs on the smaller matrix
        """One symmetric-normalised convolution: ``D^-1/2 A D^-1/2 X W``."""
        return spmm(graph.operator("gcn"), self.linear(x))


class GCN(Module):
    """Multi-layer GCN for full-graph node classification.

    Parameters follow the paper's ingredient recipes: ReLU between layers,
    feature dropout before every layer, logits out of the last layer.
    """

    arch_name = "gcn"

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
        self.convs = ModuleList(GCNConv(dims[i], dims[i + 1], rng) for i in range(num_layers))
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
