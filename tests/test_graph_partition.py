"""Partitioner: validity invariants, balance, cut quality, determinism."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import _partition_reference as reference
from repro import load_dataset
from repro.graph import (
    GeneratorConfig,
    edge_cut,
    edges_to_csr,
    homophilous_graph,
    partition_graph,
    val_balanced_weights,
)
from repro.graph import partition as partition_module


@pytest.fixture(scope="module")
def medium_graph():
    cfg = GeneratorConfig(
        num_nodes=500, num_classes=4, avg_degree=8.0, homophily=0.8, feature_dim=8, feature_noise=1.0, name="m"
    )
    return homophilous_graph(cfg, seed=13)


@pytest.fixture(scope="module")
def pls_graph():
    """products at scale 0.25: the size where PLS partitions into K=32."""
    return load_dataset("ogbn-products", seed=0, scale=0.25)


#: Partitioner configurations every invariant is checked on. ``spectral``
#: is the multilevel pipeline with coarsening disabled: every bisection
#: runs the Fiedler and greedy seed cuts and FM refinement on the full
#: subgraph.
ALL_METHODS = (
    pytest.param({"method": "metis"}, id="metis"),
    pytest.param({"method": "metis", "coarsen_to": 1 << 30}, id="spectral"),
    pytest.param({"method": "random"}, id="random"),
    pytest.param({"method": "bfs"}, id="bfs"),
)


class TestValidity:
    @pytest.mark.parametrize("spec", ALL_METHODS)
    def test_every_node_assigned(self, medium_graph, spec):
        result = partition_graph(medium_graph, 8, **spec, seed=0)
        assert result.labels.shape == (medium_graph.num_nodes,)
        assert result.labels.min() >= 0 and result.labels.max() <= 7

    @pytest.mark.parametrize("spec", ALL_METHODS)
    def test_all_parts_nonempty(self, medium_graph, spec):
        result = partition_graph(medium_graph, 8, **spec, seed=0)
        assert len(np.unique(result.labels)) == 8

    @pytest.mark.parametrize("spec", ALL_METHODS)
    def test_cut_edges_consistent(self, medium_graph, spec):
        result = partition_graph(medium_graph, 4, **spec, seed=0)
        assert result.cut_edges == edge_cut(medium_graph.csr, result.labels)

    def test_k1_trivial(self, medium_graph):
        result = partition_graph(medium_graph, 1)
        assert result.cut_edges == 0
        assert np.all(result.labels == 0)

    def test_k_equals_n(self):
        g = homophilous_graph(
            GeneratorConfig(num_nodes=12, num_classes=2, avg_degree=3.0, homophily=0.5, feature_dim=4, feature_noise=1.0),
            seed=0,
        )
        result = partition_graph(g, 12, method="random", seed=0)
        assert len(np.unique(result.labels)) == 12

    def test_invalid_k(self, medium_graph):
        with pytest.raises(ValueError):
            partition_graph(medium_graph, 0)
        with pytest.raises(ValueError):
            partition_graph(medium_graph, medium_graph.num_nodes + 1)

    def test_unknown_method(self, medium_graph):
        with pytest.raises(ValueError):
            partition_graph(medium_graph, 4, method="spectral-banana")

    def test_bad_weights_shape(self, medium_graph):
        with pytest.raises(ValueError):
            partition_graph(medium_graph, 4, node_weights=np.ones(3))

    def test_nonpositive_weights_rejected(self, medium_graph):
        w = np.ones(medium_graph.num_nodes)
        w[0] = 0.0
        with pytest.raises(ValueError):
            partition_graph(medium_graph, 4, node_weights=w)


class TestBalance:
    @pytest.mark.parametrize("spec", ALL_METHODS)
    def test_size_balance(self, medium_graph, spec):
        result = partition_graph(medium_graph, 8, **spec, seed=0)
        sizes = np.bincount(result.labels, minlength=8)
        ideal = medium_graph.num_nodes / 8
        assert sizes.max() <= 1.5 * ideal

    def test_val_balanced_weights_structure(self, medium_graph):
        w = val_balanced_weights(medium_graph)
        assert np.all(w >= 1.0)
        assert np.all(w[medium_graph.val_mask] > w[~medium_graph.val_mask].max() - 1e-9)

    def test_val_nodes_balanced_across_parts(self, medium_graph):
        result = partition_graph(medium_graph, 4, method="metis", node_weights="val", seed=0)
        val_per_part = np.bincount(result.labels[medium_graph.val_mask], minlength=4)
        ideal = medium_graph.val_mask.sum() / 4
        # §III-C requirement: validation nodes spread across partitions
        assert val_per_part.min() >= 0.4 * ideal
        assert val_per_part.max() <= 1.6 * ideal

    def test_imbalance_metric(self, medium_graph):
        result = partition_graph(medium_graph, 4, method="random", seed=0)
        assert result.imbalance >= 1.0

    def test_part_nodes_accessor(self, medium_graph):
        result = partition_graph(medium_graph, 4, method="metis", seed=0)
        collected = np.concatenate([result.part_nodes(p) for p in range(4)])
        assert len(collected) == medium_graph.num_nodes


class TestQuality:
    def test_spectral_quality_comparable_to_metis(self, medium_graph):
        """The uncoarsened spectral pipeline (coarsening disabled) is the
        quality reference: its edge cut should be in the same band as
        multilevel METIS (and far below random)."""
        metis = partition_graph(medium_graph, 8, method="metis", seed=2)
        spectral = partition_graph(medium_graph, 8, method="metis", coarsen_to=medium_graph.num_nodes + 1, seed=2)
        random = partition_graph(medium_graph, 8, method="random", seed=2)
        assert spectral.cut_edges < random.cut_edges
        assert spectral.cut_edges <= metis.cut_edges * 2.0

    def test_bfs_sweep_fallback_invariants(self, medium_graph):
        """The sparse seed-cut fallback (used when the coarsest graph is too
        large to densify) must produce a balanced two-sided boolean
        split."""
        from repro.graph.partition import _bfs_sweep_bisect

        adj = medium_graph.csr.without_self_loops().to_scipy()
        adj = ((adj + adj.T) > 0).astype(np.float64).tocsr()
        weights = np.ones(medium_graph.num_nodes)
        target = weights.sum() / 2
        side = _bfs_sweep_bisect(adj, weights, target, np.random.default_rng(0))
        assert side.dtype == bool and side.shape == (medium_graph.num_nodes,)
        assert 0 < side.sum() < medium_graph.num_nodes
        assert abs(weights[side].sum() - target) <= weights.max() + 1e-9

    def test_metis_beats_random_cut(self, medium_graph):
        metis = partition_graph(medium_graph, 8, method="metis", seed=0)
        rand = partition_graph(medium_graph, 8, method="random", seed=0)
        assert metis.cut_edges < rand.cut_edges

    def test_metis_finds_planted_bisection(self):
        # two dense 30-node cliques joined by one edge: the optimal bisection
        # cuts exactly that bridge
        edges = [(i, j) for i in range(30) for j in range(i + 1, 30)]
        edges += [(30 + i, 30 + j) for i in range(30) for j in range(i + 1, 30)]
        edges += [(0, 30)]
        src = np.array([e[0] for e in edges])
        dst = np.array([e[1] for e in edges])
        csr = edges_to_csr(np.concatenate([src, dst]), np.concatenate([dst, src]), 60)
        result = partition_graph(csr, 2, method="metis", seed=1)
        assert result.cut_edges == 2  # the bridge, counted in both directions

    def test_deterministic_given_seed(self, medium_graph):
        a = partition_graph(medium_graph, 8, method="metis", seed=4)
        b = partition_graph(medium_graph, 8, method="metis", seed=4)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_deterministic_through_spectral_path(self, medium_graph):
        """Regression: ARPACK's shift-invert eigsh (since removed) drew its
        start vector from numpy's GLOBAL RandomState unless v0 was pinned,
        which made repeated same-seed partitions differ whenever the
        spectral seed cut ran. Perturb the global state between calls to
        prove no step reads it."""
        a = partition_graph(medium_graph, 16, method="metis", node_weights="val", seed=0)
        np.random.random(1234)  # advance the global legacy RandomState between calls
        b = partition_graph(medium_graph, 16, method="metis", node_weights="val", seed=0)
        c = partition_graph(medium_graph, 16, method="metis", node_weights="val", seed=0)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(b.labels, c.labels)

    def test_deterministic_at_pls_scale(self, pls_graph):
        """Regression: at products scale 0.25 with K=32 (the size where
        coarsening stalls above ``coarsen_to`` and ARPACK's ``eigsh`` gave
        a different seed cut on identical inputs), every call in one
        process and a fresh process must give the same labels."""
        script = (
            "import hashlib\n"
            "from repro import load_dataset\n"
            "from repro.graph import partition_graph\n"
            "g = load_dataset('ogbn-products', seed=0, scale=0.25)\n"
            "p = partition_graph(g, 32, 'metis', node_weights='val', seed=0)\n"
            "print(hashlib.blake2b(p.labels.tobytes(), digest_size=16).hexdigest())\n"
        )
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"}
        # the fresh process runs while this one partitions twice
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
        )
        digests = [
            hashlib.blake2b(
                partition_graph(pls_graph, 32, "metis", node_weights="val", seed=0).labels.tobytes(), digest_size=16
            ).hexdigest()
            for _ in range(2)
        ]
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert digests[0] == digests[1] == out.strip()

    def test_works_on_bare_csr(self, medium_graph):
        result = partition_graph(medium_graph.csr, 4, method="metis", seed=0)
        assert len(np.unique(result.labels)) == 4

    def test_string_weights_need_graph(self, medium_graph):
        with pytest.raises(ValueError):
            partition_graph(medium_graph.csr, 4, node_weights="val")

    def test_disconnected_graph_handled(self):
        # two components, no inter-edges
        edges = [(0, 1), (1, 2), (5, 6), (6, 7)]
        csr = edges_to_csr(
            np.array([e[0] for e in edges] + [e[1] for e in edges]),
            np.array([e[1] for e in edges] + [e[0] for e in edges]),
            8,
        )
        result = partition_graph(csr, 2, method="metis", seed=0)
        assert len(np.unique(result.labels)) == 2


@settings(max_examples=10, deadline=None)
@given(k=st.integers(2, 6), seed=st.integers(0, 10_000))
def test_property_partition_covers_all_nodes(k, seed):
    """Hypothesis: for random graphs and any K, the partition is a total,
    K-valued labelling whose parts are non-empty."""
    rng = np.random.default_rng(seed)
    n = 60
    src = rng.integers(0, n, size=240)
    dst = rng.integers(0, n, size=240)
    csr = edges_to_csr(np.concatenate([src, dst]), np.concatenate([dst, src]), n)
    result = partition_graph(csr, k, method="metis", seed=seed)
    assert result.labels.shape == (n,)
    assert set(np.unique(result.labels)) == set(range(k))
    assert result.part_weights.sum() == pytest.approx(n)


class TestSpectralSeed:
    def test_spectral_bisect_balanced(self):
        """Direct test of the Fiedler seed cut on a two-clique graph."""
        from repro.graph.partition import _spectral_bisect

        n = 20
        dense = np.zeros((n, n))
        dense[:10, :10] = 1.0
        dense[10:, 10:] = 1.0
        np.fill_diagonal(dense, 0.0)
        dense[0, 10] = dense[10, 0] = 1.0  # bridge
        adj = sp.csr_matrix(dense)
        side = _spectral_bisect(adj, np.ones(n), target_left=10.0)
        assert side is not None
        # the Fiedler cut must separate the cliques exactly
        assert len(np.unique(side[:10])) == 1
        assert len(np.unique(side[10:])) == 1
        assert side[0] != side[10]

    def test_spectral_bisect_tiny_graph_returns_none(self):
        from repro.graph.partition import _spectral_bisect

        adj = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert _spectral_bisect(adj, np.ones(2), 1.0) is None

    def test_spectral_bisect_skips_graphs_too_large_to_densify(self):
        from repro.graph.partition import DENSE_MAX, _spectral_bisect

        n = DENSE_MAX + 1
        ring = sp.csr_matrix((np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)), shape=(n, n))
        assert _spectral_bisect((ring + ring.T).tocsr(), np.ones(n), n / 2) is None


# ---------------------------------------------------------------------------
# edge cases: isolated nodes, degenerate k, cross-strategy invariants
# ---------------------------------------------------------------------------


def _graph_with_isolates(num_nodes: int = 40, num_isolated: int = 6, seed: int = 0):
    """A connected ring over the prefix plus a tail of isolated nodes."""
    from repro.graph import Graph

    rng = np.random.default_rng(seed)
    connected = num_nodes - num_isolated
    src = np.arange(connected, dtype=np.int64)
    dst = (src + 1) % connected
    csr = edges_to_csr(np.concatenate([src, dst]), np.concatenate([dst, src]), num_nodes)
    features = rng.normal(size=(num_nodes, 4))
    labels = rng.integers(0, 2, num_nodes).astype(np.int64)
    train = np.zeros(num_nodes, dtype=bool)
    val = np.zeros(num_nodes, dtype=bool)
    test = np.zeros(num_nodes, dtype=bool)
    train[0::3], val[1::3], test[2::3] = True, True, True
    return Graph(csr, features, labels, train, val, test, 2, name="isolates")


class TestEdgeCases:
    @pytest.mark.parametrize("spec", ALL_METHODS)
    def test_isolated_nodes_all_assigned(self, spec):
        g = _graph_with_isolates()
        result = partition_graph(g, 4, **spec, seed=0)
        assert result.labels.shape == (g.num_nodes,)
        assert result.labels.min() >= 0 and result.labels.max() < 4
        # isolated nodes (the tail) must be assigned like everyone else
        assert np.all(result.labels[-6:] >= 0)

    @pytest.mark.parametrize("spec", ALL_METHODS)
    def test_isolated_nodes_invariants(self, spec):
        """edge_cut / imbalance / part_weights stay consistent when the
        graph has zero-degree nodes, for every bisect strategy."""
        g = _graph_with_isolates()
        result = partition_graph(g, 4, **spec, seed=0)
        assert result.cut_edges == edge_cut(g.csr, result.labels)
        assert 0 <= result.cut_edges <= g.num_edges
        assert result.imbalance >= 1.0
        np.testing.assert_allclose(
            result.part_weights, np.bincount(result.labels, minlength=4).astype(float)
        )

    @pytest.mark.parametrize("spec", ALL_METHODS)
    def test_k1_isolated(self, spec):
        g = _graph_with_isolates()
        result = partition_graph(g, 1, **spec, seed=0)
        assert result.cut_edges == 0
        assert result.imbalance == pytest.approx(1.0)
        assert np.all(result.labels == 0)

    @pytest.mark.parametrize("spec", ALL_METHODS)
    def test_k_equals_n_all_methods(self, spec):
        """k == num_nodes stays valid for every strategy.

        Recursive bisection may leave an empty part at this degenerate k
        (a 1-node region asked to split), so the contract is label
        validity and metric consistency, not strict non-emptiness — only
        the direct assignment of ``random`` guarantees all singletons.
        """
        g = _graph_with_isolates(num_nodes=16, num_isolated=3)
        result = partition_graph(g, 16, **spec, seed=0)
        assert result.labels.min() >= 0 and result.labels.max() < 16
        sizes = np.bincount(result.labels, minlength=16)
        assert sizes.sum() == 16 and sizes.max() <= 2
        assert result.cut_edges == edge_cut(g.csr, result.labels)
        assert result.imbalance >= 1.0
        if spec["method"] == "random":
            assert len(np.unique(result.labels)) == 16
            assert result.cut_edges == g.num_edges

    @pytest.mark.parametrize("spec", ALL_METHODS)
    def test_k_above_n_rejected(self, spec):
        g = _graph_with_isolates(num_nodes=16, num_isolated=3)
        with pytest.raises(ValueError):
            partition_graph(g, 17, **spec, seed=0)

    @pytest.mark.parametrize("spec", ALL_METHODS)
    def test_weighted_part_weights_sum(self, spec):
        """part_weights must account for every node's weight exactly."""
        g = _graph_with_isolates()
        weights = np.linspace(1.0, 2.0, g.num_nodes)
        result = partition_graph(g, 4, **spec, node_weights=weights, seed=0)
        np.testing.assert_allclose(result.part_weights.sum(), weights.sum())
        for p in range(4):
            np.testing.assert_allclose(
                result.part_weights[p], weights[result.labels == p].sum()
            )


# ---------------------------------------------------------------------------
# exactness oracle: the heap-driven FM refinement and list-based coarsening
# against the per-step numpy formulation in tests/_partition_reference.py
# ---------------------------------------------------------------------------


def _random_adjacency(rng: np.random.Generator, n: int, avg_degree: float, max_weight: int) -> sp.csr_matrix:
    """Canonical symmetric CSR without self loops and with integer-valued
    edge weights, like every level the partitioner builds."""
    m = int(n * avg_degree / 2)
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    keep = src != dst
    data = rng.integers(1, max_weight + 1, int(keep.sum())).astype(np.float64)
    half = sp.coo_matrix((data, (src[keep], dst[keep])), shape=(n, n))
    adj = (half + half.T).tocsr()
    adj.sum_duplicates()
    return adj


def _random_weights(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    if kind == "uniform":
        return np.ones(n)
    if kind == "val":  # two values, like val_balanced_weights
        return 1.0 + (n / 7) * (rng.random(n) < 1 / 7)
    if kind == "integers":  # many (side, weight) groups
        return rng.integers(1, 40, n).astype(np.float64)
    return rng.uniform(0.5, 3.0, n)  # every node its own group


WEIGHT_KINDS = st.sampled_from(["uniform", "val", "integers", "continuous"])


def _assert_same_csr(actual: sp.csr_matrix, expected: sp.csr_matrix) -> None:
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.indptr, expected.indptr)
    np.testing.assert_array_equal(actual.indices, expected.indices)
    np.testing.assert_array_equal(actual.data, expected.data)


class TestExactnessOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 120),
        avg_degree=st.floats(0.0, 12.0),
        max_weight=st.integers(1, 4),
        kind=WEIGHT_KINDS,
    )
    def test_coarsen_matches_reference(self, seed, n, avg_degree, max_weight, kind):
        """Two levels of contraction: same mapping, same canonical coarse
        CSR (indptr, indices and data), same coarse weights, same RNG use."""
        rng = np.random.default_rng(seed)
        adj = _random_adjacency(rng, n, avg_degree, max_weight)
        weights = _random_weights(rng, n, kind)
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            mapping, coarse, coarse_w = partition_module._coarsen(adj, weights, rng_new)
            ref_mapping, ref_coarse, ref_w = reference._coarsen(adj, weights, rng_ref)
            np.testing.assert_array_equal(mapping, ref_mapping)
            _assert_same_csr(coarse, ref_coarse)
            np.testing.assert_array_equal(coarse_w, ref_w)
            adj, weights = coarse, coarse_w
        assert rng_new.random() == rng_ref.random()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 150),
        avg_degree=st.floats(0.0, 12.0),
        max_weight=st.integers(1, 4),
        kind=WEIGHT_KINDS,
        left_share=st.floats(0.1, 0.9),
        target_share=st.floats(0.2, 0.8),
        passes=st.integers(1, 4),
        imbalance_tol=st.sampled_from([0.0, 0.01, 0.05, 0.3]),
    )
    def test_fm_refine_matches_reference(
        self, seed, n, avg_degree, max_weight, kind, left_share, target_share, passes, imbalance_tol
    ):
        rng = np.random.default_rng(seed)
        adj = _random_adjacency(rng, n, avg_degree, max_weight)
        weights = _random_weights(rng, n, kind)
        side = rng.random(n) < left_share
        target_left = weights.sum() * target_share
        refined = partition_module._fm_refine(adj, weights, side, target_left, passes, imbalance_tol)
        expected = reference._fm_refine(adj, weights, side, target_left, None, passes, imbalance_tol)
        np.testing.assert_array_equal(refined, expected)

    def test_labels_match_reference_at_pls_scale(self, pls_graph, monkeypatch):
        """products 0.25, K=32, val weights: the whole partitioner gives the
        same labels with the reference routines patched in. Compared on
        this machine rather than against stored digests, since the seed
        cut's ``eigh`` may differ between BLAS builds."""
        labels = partition_graph(pls_graph, 32, "metis", node_weights="val", seed=0).labels
        monkeypatch.setattr(partition_module, "_coarsen", reference._coarsen)
        monkeypatch.setattr(
            partition_module,
            "_fm_refine",
            lambda adj, weights, side, target_left, passes, tol: reference._fm_refine(
                adj, weights, side, target_left, None, passes, tol
            ),
        )
        expected = partition_graph(pls_graph, 32, "metis", node_weights="val", seed=0).labels
        np.testing.assert_array_equal(labels, expected)


def test_bfs_order_draws_one_permutation(medium_graph):
    """``method="bfs"`` and the sweep fallback share one BFS helper; it
    starts components in ``rng.permutation(n)`` order and draws nothing
    else, so both keep their labels."""
    from repro.graph.partition import _bfs_order

    adj = medium_graph.csr.to_scipy()
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    order = _bfs_order(adj, rng)
    roots = twin.permutation(medium_graph.num_nodes)
    assert rng.random() == twin.random()
    np.testing.assert_array_equal(np.sort(order), np.arange(medium_graph.num_nodes))
    assert order[0] == roots[0]
