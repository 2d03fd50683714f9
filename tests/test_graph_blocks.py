"""Layered blocks: forwards that compute only the rows a loss reads.

The contract (docs/architecture.md, determinism section): logits at the
requested rows are bit-identical to the full-graph pass for every
architecture, so every evaluator score is unchanged; alpha gradients
match the full pass only to float rounding. The full-graph reference
here is the same code with `build_blocks` swapped for the trivial
block (the whole graph), which is what every caller ran before blocks.
"""

from __future__ import annotations

import contextlib
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.graph.blocks as graph_blocks
from repro.distributed import train_ingredients
from repro.graph import Graph, GeneratorConfig, edges_to_csr, homophilous_graph, partition_graph
from repro.graph.csr import row_slice_index
from repro.models import build_model
from repro.soup import (
    PLSConfig,
    SoupConfig,
    gis_soup,
    learned_soup,
    make_evaluator,
    partition_learned_soup,
    score_candidate,
)
from repro.soup.engine import Candidate
from repro.tensor import no_grad
from repro.train import TrainConfig, accuracy, evaluate_logits, evaluate_rows

ARCHS = ("sage", "gcn", "gin", "gat", "mlp")

#: Sparse enough that the validation rows' 2-hop field is a strict subset
#: of the graph; hidden width 12 and 5 classes give GEMM output widths
#: that are not multiples of 8 (the padded path of ``rowwise_matmul``).
SPARSE_CFG = GeneratorConfig(
    num_nodes=600,
    num_classes=5,
    avg_degree=3.0,
    homophily=0.7,
    feature_dim=10,
    feature_noise=1.0,
    split=(0.5, 0.06, 0.44),
    name="sparse",
)


@pytest.fixture(scope="module")
def sparse_graph():
    return homophilous_graph(SPARSE_CFG, seed=3)


@pytest.fixture(scope="module")
def sparse_pool(sparse_graph):
    return train_ingredients(
        "sage",
        sparse_graph,
        n_ingredients=3,
        train_cfg=TrainConfig(epochs=8, lr=0.02),
        base_seed=4,
        hidden_dim=12,
    )


class _WholeGraph:
    """The trivial block: every layer is the whole graph, rows are node ids."""

    layers = ()  # no edge count for forward_field to weigh: always chosen
    num_edges = 0
    dropout_rows = None

    def __init__(self, graph) -> None:
        self.graph = graph
        self.features = graph.features

    def layer(self, _i):
        return self.graph

    def positions(self, nodes):
        return np.asarray(nodes, dtype=np.int64)


@contextlib.contextmanager
def full_graph_reference(monkeypatch, *graphs):
    """Swap `build_blocks` for the trivial block while the body runs."""
    for graph in graphs:
        graph._block_cache.clear()
    with monkeypatch.context() as patch:
        patch.setattr(graph_blocks, "build_blocks", lambda graph, rows, hops: _WholeGraph(graph))
        yield
    for graph in graphs:
        graph._block_cache.clear()


class TestBlockedLogits:
    @pytest.mark.parametrize("arch", ARCHS)
    def test_bit_identical_to_full_pass(self, sparse_graph, arch):
        model = build_model(arch, sparse_graph.feature_dim, sparse_graph.num_classes, hidden_dim=12, num_heads=3, seed=2)
        model.eval()
        full = evaluate_logits(model, sparse_graph)
        val = sparse_graph.val_idx
        blocks = sparse_graph.blocks(val, model.num_hops)
        n = sparse_graph.num_nodes
        for block in blocks.layers:  # every layer computes strictly fewer rows
            assert len(block.dst) < len(block.src) < n
        with no_grad():
            out = model(blocks).data
        assert out.shape == (len(val), sparse_graph.num_classes)
        assert np.array_equal(out[blocks.positions(val)], full[val])
        for rows in (val[:1], val[:2], np.array([val[3], val[0], val[3]]), sparse_graph.test_idx):
            assert np.array_equal(evaluate_rows(model, sparse_graph, rows), full[rows]), rows

    def test_mlp_blocks_are_the_rows(self, sparse_graph):
        model = build_model("mlp", sparse_graph.feature_dim, sparse_graph.num_classes, seed=0)
        blocks = sparse_graph.blocks(sparse_graph.val_idx, model.num_hops)
        assert blocks.layers == ()
        assert np.array_equal(blocks.input_rows, sparse_graph.val_idx)

    def test_operators_keep_global_values(self, sparse_graph):
        """Sliced operators carry the global entries (exact degrees, GCN's
        source-degree norm included) in each row's global order."""
        block = sparse_graph.blocks(sparse_graph.val_idx, 2).layer(1)
        for kind in ("mean", "gcn", "sum"):
            full = sparse_graph.operator(kind).csr
            sliced = block.operator(kind).csr
            dense_full = full[block.dst][:, block.src].toarray()
            assert np.array_equal(sliced.toarray(), dense_full)
            assert full[block.dst].nnz == sliced.nnz  # no edge left outside the sources
        full = sparse_graph.attention_structure()
        structure = block.attention_structure()
        assert structure.num_nodes == len(block.dst) and structure.num_src == len(block.src)
        neighbours = [full.indices[full.indptr[i] : full.indptr[i + 1]] for i in block.dst]
        assert np.array_equal(block.src[structure.indices], np.concatenate(neighbours))


def _union1d_layers(graph, rows, hops):
    """``(dst, src)`` per layer as ``build_blocks`` first built them: each
    layer's sources by ``np.union1d``."""
    csr = graph.csr
    layers, dst = [], rows
    for _ in range(hops):
        flat, _degs = row_slice_index(csr.indptr, dst)
        src = np.union1d(dst, csr.indices[flat])
        layers.append((dst, src))
        dst = src
    return layers[::-1]


def _searchsorted_slice(dst, src, indptr, indices):
    """``Block._slice`` as first written: columns located by ``np.searchsorted``."""
    flat, degs = row_slice_index(indptr, dst)
    cols = indices[flat]
    local = np.searchsorted(src, cols)
    if len(cols) and not np.array_equal(src[np.minimum(local, len(src) - 1)], cols):
        raise ValueError("block sources do not cover the destination rows' neighbours")
    sub_indptr = np.zeros(len(dst) + 1, dtype=np.int64)
    np.cumsum(degs, out=sub_indptr[1:])
    return flat, sub_indptr, local.astype(np.int64)


def _random_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, n, size=(2, m))
    keep = src != dst
    csr = edges_to_csr(src[keep], dst[keep], n)
    zeros = np.zeros(n, dtype=bool)
    return Graph(csr, np.ones((n, 1)), np.zeros(n, dtype=np.int64), zeros, zeros, zeros, 1), rng


def _sliced_structures(graph):
    """``(indptr, indices)`` of every structure a block slices."""
    out = [(graph.operator(kind).csr.indptr, graph.operator(kind).csr.indices) for kind in ("mean", "gcn", "sum")]
    attention = graph.attention_structure()
    return out + [(attention.indptr, attention.indices)]


class TestBlockConstructionExactness:
    """The mask-built sources and the table-remapped slices equal the
    ``union1d``/``searchsorted`` construction they replaced."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 30), m=st.integers(0, 90), hops=st.integers(0, 3), seed=st.integers(0, 2**31 - 1))
    def test_layers_and_slices_match_the_search_based_build(self, n, m, hops, seed):
        graph, rng = _random_graph(n, m, seed)
        rows = np.flatnonzero(rng.random(n) < rng.random())
        blocks = graph_blocks.build_blocks(graph, rows, hops)
        expected = _union1d_layers(graph, rows, hops)
        assert len(blocks.layers) == len(expected) == hops
        for block, (dst, src) in zip(blocks.layers, expected):
            assert block.src.dtype == np.int64
            assert np.array_equal(block.dst, dst) and np.array_equal(block.src, src)
            assert np.array_equal(block.dst_pos, np.searchsorted(src, dst))
            for indptr, indices in _sliced_structures(graph):
                got = block._slice(indptr, indices)
                want = _searchsorted_slice(dst, src, indptr, indices)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
            full = graph.operator("mean").csr
            sliced = block.operator("mean").csr
            assert np.array_equal(sliced.data, full.data[_searchsorted_slice(dst, src, full.indptr, full.indices)[0]])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 30), m=st.integers(0, 90), seed=st.integers(0, 2**31 - 1))
    def test_uncovered_neighbours_still_raise(self, n, m, seed):
        graph, rng = _random_graph(n, m, seed)
        dst = np.flatnonzero(rng.random(n) < 0.4)
        src = np.union1d(dst, np.flatnonzero(rng.random(n) < 0.3))
        block = graph_blocks.Block(graph, dst, src)
        for indptr, indices in _sliced_structures(graph):
            try:
                want = _searchsorted_slice(dst, src, indptr, indices)
            except ValueError:
                with pytest.raises(ValueError, match="do not cover"):
                    block._slice(indptr, indices)
            else:
                for a, b in zip(block._slice(indptr, indices), want):
                    assert np.array_equal(a, b)


class TestBlockCache:
    def test_reused_across_calls(self, sparse_graph, sparse_pool, monkeypatch):
        sparse_graph._block_cache.clear()
        builds = []
        real = graph_blocks.build_blocks
        monkeypatch.setattr(
            graph_blocks, "build_blocks", lambda *args: builds.append(args[1]) or real(*args)
        )
        model = sparse_pool.make_model()
        for state in sparse_pool.states[:2]:
            score_candidate(model, sparse_graph, state, "val")
        assert len(builds) == 1
        val = sparse_graph.val_idx
        assert sparse_graph.blocks(val[::-1], 2) is sparse_graph.blocks(val, 2)
        assert len(builds) == 1
        sparse_graph._block_cache.clear()

    def test_least_recently_used_row_set_is_dropped(self, sparse_graph):
        sparse_graph._block_cache.clear()
        first = sparse_graph.blocks([0, 1], 1)
        for i in range(graph_blocks.BLOCK_CACHE_SIZE):
            sparse_graph.blocks([i + 2], 1)
        assert len(sparse_graph._block_cache) == graph_blocks.BLOCK_CACHE_SIZE
        assert sparse_graph.blocks([0, 1], 1) is not first
        sparse_graph._block_cache.clear()

    def test_cached_blocks_do_not_keep_their_graph_alive(self):
        """No graph -> blocks -> graph cycle: a dropped graph is freed at
        once, with its cached blocks, not at the next cyclic collection."""
        graph = homophilous_graph(SPARSE_CFG, seed=4)
        blocks = graph.blocks(graph.val_idx, 2)
        blocks.layers[0].operator("mean")
        assert blocks.features.shape[0] == len(blocks.input_rows)
        ref = weakref.ref(graph)
        del graph, blocks
        assert ref() is None

    def test_pickles_without_its_caches(self, sparse_graph):
        sparse_graph.blocks(sparse_graph.val_idx, 2).layers[0].operator("mean")
        copy = pickle.loads(pickle.dumps(sparse_graph))
        assert not copy._block_cache and not copy._operators
        assert np.array_equal(copy.features, sparse_graph.features)
        assert np.array_equal(copy.csr.indices, sparse_graph.csr.indices)
        rebuilt = copy.blocks(copy.val_idx, 2)
        assert np.array_equal(rebuilt.input_rows, sparse_graph.blocks(sparse_graph.val_idx, 2).input_rows)


class TestSoupsMatchFullGraph:
    def test_gis_result_is_bit_identical(self, sparse_graph, sparse_pool, monkeypatch):
        blocked = gis_soup(sparse_pool, sparse_graph, granularity=5)
        with full_graph_reference(monkeypatch, sparse_graph):
            full = gis_soup(sparse_pool, sparse_graph, granularity=5)
        assert blocked.val_acc == full.val_acc and blocked.test_acc == full.test_acc
        assert blocked.state_dict.keys() == full.state_dict.keys()
        for name in full.state_dict:
            assert np.array_equal(blocked.state_dict[name], full.state_dict[name]), name

    def test_ls_alphas_match_to_rounding(self, sparse_graph, sparse_pool, monkeypatch):
        cfg = SoupConfig(epochs=12, lr=0.5, seed=1)
        blocked = learned_soup(sparse_pool, sparse_graph, cfg)
        with full_graph_reference(monkeypatch, sparse_graph):
            full = learned_soup(sparse_pool, sparse_graph, cfg)
        assert np.abs(blocked.extras["alphas"] - full.extras["alphas"]).max() <= 1e-12
        assert [h[2] for h in blocked.extras["history"]] == [h[2] for h in full.extras["history"]]

    def test_pls_alphas_match_to_rounding(self, sparse_graph, sparse_pool, monkeypatch):
        cfg = PLSConfig(epochs=10, lr=0.5, num_partitions=4, partition_budget=2, seed=1)
        partition = partition_graph(sparse_graph, 4, node_weights="val", seed=0)
        blocked = partition_learned_soup(sparse_pool, sparse_graph, cfg, partition=partition)
        with full_graph_reference(monkeypatch, sparse_graph):
            full = partition_learned_soup(sparse_pool, sparse_graph, cfg, partition=partition)
        assert np.abs(blocked.extras["alphas"] - full.extras["alphas"]).max() <= 1e-12
        assert [h[2] for h in blocked.extras["history"]] == [h[2] for h in full.extras["history"]]

    def test_ls_dropout_and_batched_ls_run_on_blocks(self, sparse_graph, sparse_pool, monkeypatch):
        from repro.soup.extensions import DropoutSoupConfig, ingredient_dropout_soup

        dcfg = DropoutSoupConfig(epochs=6, lr=0.5, seed=2)
        bcfg = replace(SoupConfig(epochs=6, lr=0.5, seed=2), val_batch_size=10)
        blocked = (ingredient_dropout_soup(sparse_pool, sparse_graph, dcfg), learned_soup(sparse_pool, sparse_graph, bcfg))
        with full_graph_reference(monkeypatch, sparse_graph):
            full = (ingredient_dropout_soup(sparse_pool, sparse_graph, dcfg), learned_soup(sparse_pool, sparse_graph, bcfg))
        for b, f in zip(blocked, full):
            assert np.abs(b.extras["weights"] - f.extras["weights"]).max() <= 1e-12
            assert b.test_acc == f.test_acc


class TestEvaluatorOnBlocks:
    def test_scores_match_the_full_pass(self, sparse_graph, sparse_pool):
        n = len(sparse_pool)
        rows = np.array([sparse_graph.test_idx[5], sparse_graph.val_idx[0], sparse_graph.test_idx[5]])
        candidates = [
            Candidate(weights=np.full(n, 1.0 / n), split="val"),
            Candidate(weights=np.array([0.2, 0.5, 0.3]), split="test"),
            Candidate(weights=np.array([1.0, 0.0, 0.0]), indices=rows[:1]),
            Candidate(weights=np.array([0.1, 0.1, 0.8]), indices=rows, kind="logits"),
        ]
        selections = [sparse_graph.val_idx, sparse_graph.test_idx, rows[:1]]
        with make_evaluator(sparse_pool, sparse_graph) as ev:
            got = ev.evaluate(candidates)
            full = [evaluate_logits(_loaded(sparse_pool, ev.mix(c.weights)), sparse_graph) for c in candidates]
        for i, idx in enumerate(selections):
            assert got[i] == accuracy(full[i][idx], sparse_graph.labels[idx])
        assert np.array_equal(got[3], full[3][rows])


def _loaded(pool, state):
    model = pool.make_model()
    model.load_state_dict(state)
    return model
