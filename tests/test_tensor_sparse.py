"""Sparse-dense products (the GCN/SAGE aggregation kernel)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.tensor import SparseAdj, Tensor, gradcheck, spmm


@pytest.fixture
def adj(rng):
    dense = (rng.random((6, 6)) < 0.4).astype(float)
    return SparseAdj(sp.csr_matrix(dense)), dense


class TestSparseAdj:
    def test_shape_nnz(self, adj):
        wrapped, dense = adj
        assert wrapped.shape == (6, 6)
        assert wrapped.nnz == int(dense.sum())

    def test_transpose_cached(self, adj):
        wrapped, dense = adj
        np.testing.assert_allclose(wrapped.csr_t.toarray(), dense.T)

    def test_transpose_built_on_first_backward_only(self, adj, rng):
        wrapped, _ = adj
        before = wrapped.nbytes
        x = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        out = spmm(wrapped, x)
        assert wrapped._csr_t is None  # a forward never transposes
        out.backward(np.ones(out.shape))
        built = wrapped._csr_t
        assert built is not None and wrapped.nbytes > before
        assert wrapped.csr_t is built  # kept, not rebuilt
        expected = wrapped.csr.T.tocsr()
        assert np.array_equal(built.indptr, expected.indptr)
        assert np.array_equal(built.indices, expected.indices)
        assert np.array_equal(built.data, expected.data)

    def test_duplicate_entries_summed(self):
        m = sp.coo_matrix((np.ones(2), ([0, 0], [1, 1])), shape=(2, 2))
        wrapped = SparseAdj(m)
        assert wrapped.csr[0, 1] == 2.0

    def test_nbytes_positive(self, adj):
        assert adj[0].nbytes > 0

    def test_repr(self, adj):
        assert "SparseAdj" in repr(adj[0])


class TestSpmm:
    def test_forward_matches_dense(self, adj, rng):
        wrapped, dense = adj
        x = rng.normal(size=(6, 3))
        np.testing.assert_allclose(spmm(wrapped, Tensor(x)).data, dense @ x)

    def test_accepts_raw_scipy(self, rng):
        dense = (rng.random((4, 4)) < 0.5).astype(float)
        x = rng.normal(size=(4, 2))
        out = spmm(sp.csr_matrix(dense), Tensor(x))
        np.testing.assert_allclose(out.data, dense @ x)

    def test_gradcheck(self, adj, rng):
        wrapped, _ = adj
        x = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        gradcheck(lambda x: (spmm(wrapped, x) ** 2).sum(), [x])

    def test_backward_is_transpose_product(self, adj, rng):
        wrapped, dense = adj
        x = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        out = spmm(wrapped, x)
        g = rng.normal(size=out.shape)
        out.backward(g)
        np.testing.assert_allclose(x.grad, dense.T @ g)

    def test_weighted_adjacency(self, rng):
        dense = rng.random((5, 5)) * (rng.random((5, 5)) < 0.5)
        x = rng.normal(size=(5, 4))
        out = spmm(SparseAdj(sp.csr_matrix(dense)), Tensor(x))
        np.testing.assert_allclose(out.data, dense @ x, atol=1e-12)

    def test_chained_spmm_gradcheck(self, adj, rng):
        wrapped, _ = adj
        x = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
        gradcheck(lambda x: spmm(wrapped, spmm(wrapped, x)).sum(), [x])
