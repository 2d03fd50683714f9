"""GraphSAGE with mean aggregation (Hamilton et al. 2018).

Layer rule: ``H' = H W_self + (D^{-1} A) H W_neigh + b`` — the inductive
formulation, separating self features from the averaged neighbourhood so
zero-degree nodes (which subgraph sampling can create) remain trainable.
"""

from __future__ import annotations

import numpy as np

from ..nn import Dropout, Linear, Module, ModuleList
from ..tensor import Tensor, spmm
from ..graph.graph import Graph

__all__ = ["SAGEConv", "GraphSAGE"]


class SAGEConv(Module):
    """Mean-aggregator SAGE convolution with separate self/neighbour weights."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.self_linear = Linear(in_features, out_features, rng, bias=True)
        self.neigh_linear = Linear(in_features, out_features, rng, bias=False)

    def forward(self, graph: Graph, x: Tensor) -> Tensor:
        """Separate self and mean-neighbour transforms, summed.

        ``graph`` is a :class:`Graph` or one layer's
        :class:`~repro.graph.blocks.Block`: ``x`` holds its source rows and
        the output its destination rows.
        """
        neigh = spmm(graph.operator("mean"), x)
        return self.self_linear(graph.dst_rows(x)) + self.neigh_linear(neigh)


class GraphSAGE(Module):
    """Multi-layer GraphSAGE for node classification (full or minibatch)."""

    arch_name = "sage"

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
        self.convs = ModuleList(SAGEConv(dims[i], dims[i + 1], rng) for i in range(num_layers))
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
