"""Structure-blind MLP baseline.

Ignores the adjacency entirely; used in tests and the Fig-3 bench to
confirm the graph actually carries signal (GNN ingredients should beat the
MLP on homophilous datasets).
"""

from __future__ import annotations

import numpy as np

from ..nn import Dropout, Linear, Module, ModuleList
from ..tensor import Tensor
from ..graph.graph import Graph

__all__ = ["MLP"]


class MLP(Module):
    """Plain feed-forward classifier over node features."""

    arch_name = "mlp"

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
        self.layers = ModuleList(Linear(dims[i], dims[i + 1], rng) for i in range(num_layers))
        self.dropout = Dropout(dropout)
        self.num_layers = num_layers

    #: Rows depend on their own features only: a row set's blocks are the rows.
    num_hops = 0

    def forward(self, graph: Graph, x: Tensor | None = None, rng: np.random.Generator | None = None) -> Tensor:
        """Structure-blind logits from node features alone (of a graph's
        rows, or of a row set's blocks)."""
        h = x if x is not None else Tensor(graph.features)
        for i, layer in enumerate(self.layers):
            h = self.dropout(h, rng, graph.dropout_rows)
            h = layer(h)
            if i < self.num_layers - 1:
                h = h.relu()
        return h
