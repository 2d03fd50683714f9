"""Reference copies of the partitioner's coarsening and FM refinement.

The per-step numpy formulation ``repro.graph.partition`` used before its
heap-driven FM refinement and list-based coarsening, kept verbatim (only
FM's unused ``rng`` argument survives here) as an exactness oracle: the
production routines must return bit-identical mappings, coarse
adjacencies and refined sides. Slow by design; tests only.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.partition import FM_PATIENCE


def _coarsen(
    adj: sp.csr_matrix, weights: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, sp.csr_matrix, np.ndarray]:
    """Heavy-edge matching contraction.

    Returns ``(mapping, coarse_adj, coarse_weights)`` where ``mapping[v]``
    is the coarse id of fine node ``v``. Unmatched nodes map to singleton
    coarse nodes.
    """
    n = adj.shape[0]
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    match = np.full(n, -1, dtype=np.int64)
    for u in rng.permutation(n):
        if match[u] >= 0:
            continue
        lo, hi = indptr[u], indptr[u + 1]
        nbrs = indices[lo:hi]
        free = match[nbrs] < 0
        free &= nbrs != u
        if free.any():
            cand = nbrs[free]
            v = cand[np.argmax(data[lo:hi][free])]
            match[u], match[v] = v, u
        else:
            match[u] = u
    rep = np.minimum(np.arange(n), match)
    coarse_ids, mapping = np.unique(rep, return_inverse=True)
    nc = len(coarse_ids)
    assign = sp.csr_matrix(
        (np.ones(n), (np.arange(n), mapping)), shape=(n, nc)
    )
    coarse_adj = (assign.T @ adj @ assign).tocsr()
    coarse_adj.setdiag(0)
    coarse_adj.eliminate_zeros()
    coarse_weights = np.bincount(mapping, weights=weights, minlength=nc)
    return mapping.astype(np.int64), coarse_adj, coarse_weights


def _cut_weight(adj: sp.csr_matrix, side: np.ndarray) -> float:
    s = side.astype(np.float64)
    return float(s @ (adj @ (1.0 - s)))


def _fm_refine(
    adj: sp.csr_matrix,
    weights: np.ndarray,
    side: np.ndarray,
    target_left: float,
    rng: np.random.Generator,
    passes: int,
    imbalance_tol: float,
) -> np.ndarray:
    """Fiduccia–Mattheyses boundary refinement.

    Per pass: repeatedly move the feasible node with the best gain
    (``2 * external - degree``), lock it, and keep the best configuration
    seen (hill climbing escapes shallow local minima). Feasibility keeps
    the left-side weight within ``imbalance_tol`` of its target.
    """
    n = adj.shape[0]
    if n <= 2:
        return side
    side = side.copy()
    total = weights.sum()
    tol = max(imbalance_tol * total, weights.max())
    deg = np.asarray(adj.sum(axis=1)).ravel()
    max_moves = min(n, 512)

    for _ in range(passes):
        in_left = side.astype(np.float64)
        to_left = adj @ in_left  # weighted neighbours on the left side
        left_w = float(weights[side].sum())
        cut = _cut_weight(adj, side)
        best_cut, best_at = cut, 0
        locked = np.zeros(n, dtype=bool)
        improved = False
        trail: list[int] = []

        for move_idx in range(1, max_moves + 1):
            ext = np.where(side, deg - to_left, to_left)
            gains = 2.0 * ext - deg
            gains[locked] = -np.inf
            # balance feasibility of moving each node to the other side
            new_left = np.where(side, left_w - weights, left_w + weights)
            feasible = np.abs(new_left - target_left) <= tol
            gains[~feasible] = -np.inf
            v = int(np.argmax(gains))
            if not np.isfinite(gains[v]):
                break
            # apply the move
            cut -= gains[v]
            delta = -1.0 if side[v] else 1.0
            left_w += delta * weights[v]
            side[v] = not side[v]
            locked[v] = True
            trail.append(v)
            row = slice(adj.indptr[v], adj.indptr[v + 1])
            to_left[adj.indices[row]] += delta * adj.data[row]
            if cut < best_cut - 1e-12:
                best_cut, best_at = cut, move_idx
                improved = True
            elif move_idx - best_at >= FM_PATIENCE:
                break  # the hill climb found nothing better in a while

        # roll back to the best prefix of the move trail
        for v in trail[best_at:]:
            side[v] = not side[v]
        if not improved:
            break
    return side
