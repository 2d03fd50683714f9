"""Shared fixtures: tiny graphs and pre-trained ingredient pools.

Everything here is deliberately small (hundreds of nodes, seconds of
training) — the heavy, paper-scale runs live in ``benchmarks/``. The
session-scoped pools are trained once and reused by every souping test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import GeneratorConfig, homophilous_graph
from repro.graph.blocks import forward_field
from repro.distributed import train_ingredients
from repro.train import TrainConfig


TINY_CFG = GeneratorConfig(
    num_nodes=160,
    num_classes=4,
    avg_degree=8.0,
    homophily=0.7,
    feature_dim=12,
    feature_noise=1.0,
    split=(0.5, 0.25, 0.25),
    name="tiny",
)

SMALL_CFG = GeneratorConfig(
    num_nodes=400,
    num_classes=5,
    avg_degree=10.0,
    homophily=0.6,
    feature_dim=16,
    feature_noise=1.5,
    split=(0.5, 0.25, 0.25),
    name="small",
)


@pytest.fixture(scope="session")
def tiny_graph():
    """160-node homophilous graph; fast enough for per-test training."""
    return homophilous_graph(TINY_CFG, seed=7)


@pytest.fixture(scope="session")
def small_graph():
    """400-node graph for partitioning / souping integration tests."""
    return homophilous_graph(SMALL_CFG, seed=11)


@pytest.fixture(scope="session")
def gcn_pool(tiny_graph):
    """Four GCN ingredients on the tiny graph (shared init, varied seeds)."""
    return train_ingredients(
        "gcn",
        tiny_graph,
        n_ingredients=4,
        train_cfg=TrainConfig(epochs=25, lr=0.02),
        base_seed=3,
        hidden_dim=16,
        epoch_jitter=5,
    )


@pytest.fixture(scope="session")
def gat_pool(tiny_graph):
    """Three GAT ingredients (exercises the attention souping path)."""
    return train_ingredients(
        "gat",
        tiny_graph,
        n_ingredients=3,
        train_cfg=TrainConfig(epochs=15, lr=0.02),
        base_seed=5,
        hidden_dim=8,
        num_heads=2,
    )


@pytest.fixture(scope="session")
def small_pool(small_graph):
    """Five GCN ingredients on the 400-node graph (PLS-scale tests)."""
    return train_ingredients(
        "gcn",
        small_graph,
        n_ingredients=5,
        train_cfg=TrainConfig(epochs=25, lr=0.02),
        base_seed=9,
        hidden_dim=16,
        epoch_jitter=8,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _crossing(graph, hops: int, backward: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Two row sets one node apart on either side of ``forward_field``'s
    crossover: the shorter runs on blocks, the longer on the whole graph."""

    def on_graph(k: int) -> bool:
        rows = np.unique(order[:k])
        return forward_field(graph, rows, hops, backward=backward, cached=False) is graph

    order = np.random.default_rng(5).permutation(graph.num_nodes)
    lo, hi = 1, graph.num_nodes
    assert on_graph(hi) and not on_graph(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if on_graph(mid):
            hi = mid
        else:
            lo = mid
    return np.unique(order[:lo]), np.unique(order[:hi])


@pytest.fixture
def crossing():
    """``crossing(graph, hops, backward=False)``: row sets either side of
    the blocks-vs-graph rule."""
    return _crossing
