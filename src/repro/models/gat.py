"""Graph Attention Network (Velickovic et al. 2018).

Each head computes per-edge attention logits
``e_ij = LeakyReLU(a_src . h_j + a_dst . h_i)`` over the self-looped
adjacency, normalises them with a per-destination segment softmax, and
aggregates source projections weighted by the attention. Hidden layers
concatenate heads; the output layer averages them — the standard GAT
configuration and the one the paper's GAT ingredients use.

The implementation is fully fused: one tape node for the edge logits
(``edge_attention_logits``), one for the segment softmax, and one for the
attention-weighted aggregation (``gather_mul_segment_sum`` — a CSR SpMM
per head) — no ``[E, H, F]`` per-edge intermediates and no per-node
Python loops. Edge indexing (``dst_ids``, transpose permutation) comes
precomputed from ``Graph.attention_structure()``.
"""

from __future__ import annotations

import numpy as np

from ..nn import Dropout, Linear, Module, ModuleList, Parameter
from ..tensor import Tensor, edge_attention_logits, gather_mul_segment_sum, init, segment_softmax
from ..graph.graph import Graph

__all__ = ["GATConv", "GAT"]


class GATConv(Module):
    """One multi-head attention convolution.

    Parameters
    ----------
    concat:
        ``True`` concatenates head outputs (hidden layers); ``False``
        averages them (output layer).
    attn_dropout:
        Dropout on the normalised attention coefficients (regularises which
        edges each head listens to).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        num_heads: int,
        rng: np.random.Generator,
        negative_slope: float = 0.2,
        concat: bool = True,
        attn_dropout: float = 0.0,
    ) -> None:
        super().__init__()
        self.num_heads = num_heads
        self.out_features = out_features
        self.negative_slope = negative_slope
        self.concat = concat
        self.linear = Linear(in_features, num_heads * out_features, rng, bias=False)
        self.attn_src = Parameter(init.xavier_uniform((num_heads, out_features), rng))
        self.attn_dst = Parameter(init.xavier_uniform((num_heads, out_features), rng))
        bias_dim = num_heads * out_features if concat else out_features
        self.bias = Parameter(np.zeros(bias_dim))
        self.attn_drop = Dropout(attn_dropout)

    def forward(self, graph: Graph, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        """Multi-head attention convolution over the self-looped graph.

        On a :class:`~repro.graph.blocks.Block`, ``x`` holds the source
        rows and the output the destination rows.
        """
        structure = graph.attention_structure()  # self-looped edge structure
        n, h_heads, f = structure.num_nodes, self.num_heads, self.out_features
        src_ids = structure.indices
        indptr = structure.indptr
        dst_ids = structure.dst_ids

        h = self.linear(x).reshape(structure.num_src, h_heads, f)
        # per-node attention halves: s_src[j] = a_src . h_j, s_dst[i] = a_dst . h_i
        score_src = (h * self.attn_src).sum(axis=-1)  # [n_src, H]
        score_dst = graph.dst_rows((h * self.attn_dst).sum(axis=-1))  # [n, H]
        edge_logits = edge_attention_logits(
            score_src, score_dst, src_ids, dst_ids, indptr, self.negative_slope
        )
        alpha = segment_softmax(edge_logits, indptr)  # [E, H]
        alpha = self.attn_drop(alpha, rng, structure.dropout_rows)

        # fused gather * alpha -> segment reduce: one SpMM per head
        out = gather_mul_segment_sum(
            h, alpha, src_ids, indptr, dst_ids=dst_ids, transpose=structure.transpose()
        )  # [n, H, F]
        if self.concat:
            return out.reshape(n, h_heads * f) + self.bias
        return out.mean(axis=1) + self.bias


class GAT(Module):
    """Multi-layer GAT: ELU between layers, head-concat hidden, head-mean out."""

    arch_name = "gat"

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        out_dim: int,
        num_layers: int = 2,
        num_heads: int = 4,
        dropout: float = 0.5,
        attn_dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_layers = num_layers
        self.num_heads = num_heads
        convs = []
        for i in range(num_layers):
            last = i == num_layers - 1
            in_f = in_dim if i == 0 else hidden_dim * num_heads
            out_f = out_dim if last else hidden_dim
            convs.append(
                GATConv(
                    in_f,
                    out_f,
                    num_heads,
                    rng,
                    concat=not last,
                    attn_dropout=attn_dropout,
                )
            )
        self.convs = ModuleList(convs)
        self.dropout = Dropout(dropout)

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
            h = conv(layer, h, rng)
            if i < self.num_layers - 1:
                h = h.elu()
        return h
