"""Graph partitioning: a from-scratch multilevel METIS-style partitioner.

Partition Learned Souping (§III-C) requires the graph "partitioned into a
set of P partitions using a partitioning algorithm such as Metis, which
balances the number of validation nodes across partitions". libmetis is
not available offline, so this module implements the textbook multilevel
scheme METIS popularised:

1. **Coarsening** — heavy-edge matching collapses matched pairs until the
   graph is small (node/edge weights accumulate);
2. **Initial partitioning** — greedy region growing on the coarsest graph
   (several seeds, keep the best balanced cut);
3. **Uncoarsening + refinement** — project the bisection back level by
   level, running Fiduccia–Mattheyses boundary refinement (gain-driven
   single-node moves with hill-climbing and a balance constraint);
4. **K-way** — recursive bisection with proportional weight targets, so
   any K >= 2 (not just powers of two) is supported.

The two hot loops run over Python lists, not numpy calls per step.
Matching reads each visited row once, and contraction is one COO sum.
FM refinement keeps the unlocked nodes in one lazy max-heap per
``(side, weight)`` group. A move's balance feasibility depends only on
those two, so it is tested once per group, and a move re-scores only the
moved node's neighbours: O(deg log n) per move instead of O(n) numpy
work. The labels are bit-identical to the per-step numpy formulation,
with the same RNG draws and the same ``argmax`` first-index tie-breaks;
``tests/_partition_reference.py`` keeps that formulation as the oracle.

Balancing is on arbitrary node weights; :func:`val_balanced_weights`
produces the paper's validation-node balancing. ``random`` and ``bfs``
partitioners are included as baselines for the partition-quality tests and
the R/K ablation bench.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .csr import CSR
from .graph import Graph

__all__ = ["PartitionResult", "partition_graph", "val_balanced_weights", "edge_cut"]

#: Largest graph a bisection densifies: the dense eigensolver and greedy
#: region growing run up to this size, sparse methods beyond it.
DENSE_MAX = 2048

#: Moves an FM pass may make past its best cut before it stops climbing.
FM_PATIENCE = 64


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of a K-way partitioning.

    Attributes
    ----------
    labels : int64 ``[n]`` part id of every node (0..k-1)
    k : requested part count
    cut_edges : number of directed edges crossing parts
    part_weights : float ``[k]`` summed node weight per part
    """

    labels: np.ndarray
    k: int
    cut_edges: int
    part_weights: np.ndarray

    @property
    def imbalance(self) -> float:
        """max part weight / ideal part weight (1.0 == perfectly balanced)."""
        ideal = self.part_weights.sum() / self.k
        return float(self.part_weights.max() / ideal) if ideal > 0 else 1.0

    def part_nodes(self, part: int) -> np.ndarray:
        """Node ids assigned to one part."""
        return np.flatnonzero(self.labels == part)


def val_balanced_weights(graph: Graph, emphasis: float | None = None) -> np.ndarray:
    """Node weights that balance validation-node counts across parts.

    Every node gets weight 1; validation nodes get an additional weight
    chosen so the validation mass dominates (``emphasis`` defaults to
    ``n / n_val``), matching the paper's requirement that partitions carry
    comparable validation sets for the PLS loss.
    """
    n_val = int(graph.val_mask.sum())
    if n_val == 0:
        return np.ones(graph.num_nodes)
    if emphasis is None:
        emphasis = graph.num_nodes / n_val
    return 1.0 + emphasis * graph.val_mask.astype(np.float64)


def edge_cut(csr: CSR, labels: np.ndarray) -> int:
    """Count directed edges whose endpoints lie in different parts."""
    src, dst = csr.edge_list()
    return int(np.count_nonzero(labels[src] != labels[dst]))


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------


def partition_graph(
    graph: Graph | CSR,
    k: int,
    method: str = "metis",
    node_weights: np.ndarray | str | None = None,
    seed: int = 0,
    coarsen_to: int = 64,
    refine_passes: int = 4,
    imbalance_tol: float = 0.05,
) -> PartitionResult:
    """Partition a graph into ``k`` parts.

    Parameters
    ----------
    graph:
        A :class:`Graph` or bare :class:`CSR` (assumed symmetric).
    method:
        ``"metis"`` (multilevel KL, default) | ``"random"`` | ``"bfs"``.
    node_weights:
        ``None`` (uniform), the string ``"val"`` (validation-balanced, needs
        a ``Graph``), or an explicit float array.
    imbalance_tol:
        Allowed relative deviation from each side's weight target during
        refinement.
    """
    if isinstance(graph, Graph):
        csr = graph.csr
        if isinstance(node_weights, str):
            if node_weights != "val":
                raise ValueError(f"unknown weight spec {node_weights!r}")
            node_weights = val_balanced_weights(graph)
    else:
        csr = graph
        if isinstance(node_weights, str):
            raise ValueError("string node_weights require a Graph input")
    n = csr.num_nodes
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, num_nodes], got {k} for {n} nodes")
    weights = np.ones(n) if node_weights is None else np.asarray(node_weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ValueError(f"node_weights shape {weights.shape} != ({n},)")
    if np.any(weights <= 0):
        raise ValueError("node weights must be positive")

    rng = np.random.default_rng(seed)
    if k == 1:
        labels = np.zeros(n, dtype=np.int64)
    elif method == "random":
        labels = _random_partition(weights, k, rng)
    elif method == "bfs":
        labels = _bfs_partition(csr, weights, k, rng)
    elif method == "metis":
        adj = csr.without_self_loops().to_scipy()
        adj = ((adj + adj.T) > 0).astype(np.float64).tocsr()  # symmetric unit weights
        labels = np.zeros(n, dtype=np.int64)
        _recursive_bisect(
            adj,
            weights,
            np.arange(n, dtype=np.int64),
            labels,
            0,
            k,
            rng,
            coarsen_to=coarsen_to,
            refine_passes=refine_passes,
            imbalance_tol=imbalance_tol,
        )
    else:
        raise ValueError(f"unknown partitioning method {method!r}")

    part_weights = np.bincount(labels, weights=weights, minlength=k)
    return PartitionResult(labels=labels, k=k, cut_edges=edge_cut(csr, labels), part_weights=part_weights)


# ---------------------------------------------------------------------------
# baseline partitioners
# ---------------------------------------------------------------------------


def _random_partition(weights: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Weight-balanced random assignment (greedy bin packing on shuffled nodes)."""
    n = len(weights)
    order = rng.permutation(n)
    labels = np.empty(n, dtype=np.int64)
    loads = np.zeros(k)
    # longest-processing-time style: heaviest nodes first within the shuffle
    order = order[np.argsort(-weights[order], kind="stable")]
    for node in order:
        part = int(np.argmin(loads))
        labels[node] = part
        loads[part] += weights[node]
    return labels


def _bfs_partition(csr: CSR, weights: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Chunk a BFS ordering into k weight-balanced contiguous slabs."""
    n = csr.num_nodes
    order = _bfs_order(csr.to_scipy(), rng)
    cum = np.cumsum(weights[order])
    total = cum[-1]
    boundaries = np.searchsorted(cum, total * np.arange(1, k) / k, side="left")
    labels = np.empty(n, dtype=np.int64)
    start = 0
    for part, end in enumerate(list(boundaries) + [n]):
        labels[order[start:end]] = part
        start = end
    # guard: searchsorted can produce empty trailing slabs on tiny graphs
    present = np.unique(labels)
    if len(present) < k:
        missing = np.setdiff1d(np.arange(k), present)
        donors = rng.choice(n, size=len(missing), replace=False)
        labels[donors] = missing
    return labels


def _bfs_order(adj: sp.csr_matrix, rng: np.random.Generator) -> np.ndarray:
    """BFS visitation order covering all components (vectorised frontier).

    Components are started from the nodes of one ``rng.permutation(n)``
    in turn; each frontier is visited in ascending node order.
    """
    n = adj.shape[0]
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    for root in rng.permutation(n):
        if visited[root]:
            continue
        visited[root] = True
        frontier = np.array([root], dtype=np.int64)
        while len(frontier):
            order[pos : pos + len(frontier)] = frontier
            pos += len(frontier)
            neighbours = adj[frontier].indices
            fresh = np.unique(neighbours[~visited[neighbours]])
            visited[fresh] = True
            frontier = fresh
    return order


# ---------------------------------------------------------------------------
# multilevel bisection
# ---------------------------------------------------------------------------


def _recursive_bisect(
    adj: sp.csr_matrix,
    weights: np.ndarray,
    node_ids: np.ndarray,
    labels_out: np.ndarray,
    first_part: int,
    k: int,
    rng: np.random.Generator,
    coarsen_to: int,
    refine_passes: int,
    imbalance_tol: float,
) -> None:
    """Assign parts ``first_part .. first_part+k-1`` to ``node_ids``."""
    if k == 1:
        labels_out[node_ids] = first_part
        return
    k_left = (k + 1) // 2
    target_left = weights.sum() * (k_left / k)
    side = _multilevel_bisect(adj, weights, target_left, rng, coarsen_to, refine_passes, imbalance_tol)
    for is_left, sub_k, part0 in ((True, k_left, first_part), (False, k - k_left, first_part + k_left)):
        sel = np.flatnonzero(side == is_left)
        if len(sel) == 0:
            continue  # degenerate split; the other side covers everything
        sub_adj = adj[sel][:, sel].tocsr()
        _recursive_bisect(
            sub_adj,
            weights[sel],
            node_ids[sel],
            labels_out,
            part0,
            sub_k,
            rng,
            coarsen_to,
            refine_passes,
            imbalance_tol,
        )


def _multilevel_bisect(
    adj: sp.csr_matrix,
    weights: np.ndarray,
    target_left: float,
    rng: np.random.Generator,
    coarsen_to: int,
    refine_passes: int,
    imbalance_tol: float,
) -> np.ndarray:
    """One bisection: coarsen, split the coarsest graph, project & refine."""
    levels: list[tuple[sp.csr_matrix, np.ndarray, np.ndarray]] = []  # (adj, weights, mapping to coarser)
    cur_adj, cur_w = adj, weights
    while cur_adj.shape[0] > coarsen_to:
        mapping, coarse_adj, coarse_w = _coarsen(cur_adj, cur_w, rng)
        if coarse_adj.shape[0] >= cur_adj.shape[0] * 0.95:
            break  # matching stalled (e.g. star graphs); stop coarsening
        levels.append((cur_adj, cur_w, mapping))
        cur_adj, cur_w = coarse_adj, coarse_w

    # initial cut: try both spectral and greedy-growing seeds, keep the better.
    # Both densify the adjacency, so past DENSE_MAX nodes (reachable when
    # matching stalls) they are replaced by a sparse BFS-order sweep.
    candidates = []
    spectral = _spectral_bisect(cur_adj, cur_w, target_left)
    if spectral is not None:
        candidates.append(spectral)
    if cur_adj.shape[0] <= DENSE_MAX:
        candidates.append(_greedy_grow_bisect(cur_adj, cur_w, target_left, rng))
    if not candidates:
        candidates.append(_bfs_sweep_bisect(cur_adj, cur_w, target_left, rng))
    side = min(candidates, key=lambda s: _cut_weight(cur_adj, s))
    side = _fm_refine(cur_adj, cur_w, side, target_left, refine_passes, imbalance_tol)
    for fine_adj, fine_w, mapping in reversed(levels):
        side = side[mapping]  # project to the finer level
        side = _fm_refine(fine_adj, fine_w, side, target_left, refine_passes, imbalance_tol)
    return side


def _coarsen(
    adj: sp.csr_matrix, weights: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, sp.csr_matrix, np.ndarray]:
    """Heavy-edge matching contraction.

    Returns ``(mapping, coarse_adj, coarse_weights)`` where ``mapping[v]``
    is the coarse id of fine node ``v``. Unmatched nodes map to singleton
    coarse nodes. Nodes are visited in ``rng.permutation`` order and each
    takes its heaviest free neighbour, the first in stored order on ties.
    That tie-break is why every level must be canonical CSR (sorted
    indices, no duplicates): the COO sum builds ``coarse_adj`` that way.
    Edge weights are integer-valued (1 at the finest level, summed edge
    counts above), so the sums are exact in any order.
    """
    n = adj.shape[0]
    indptr, indices, data = adj.indptr.tolist(), adj.indices, adj.data  # rows sliced when visited
    match = [-1] * n
    for u in rng.permutation(n).tolist():
        if match[u] >= 0:
            continue
        lo, hi = indptr[u], indptr[u + 1]
        best, best_w = u, -np.inf
        for v, w in zip(indices[lo:hi].tolist(), data[lo:hi].tolist()):
            if w > best_w and match[v] < 0 and v != u:
                best, best_w = v, w
        match[u] = best
        match[best] = u
    rep = np.minimum(np.arange(n), match)
    is_rep = rep == np.arange(n)
    mapping = (np.cumsum(is_rep) - 1)[rep]
    nc = int(np.count_nonzero(is_rep))
    src = np.repeat(mapping, np.diff(adj.indptr))
    dst = mapping[adj.indices]
    keep = src != dst
    coarse_adj = sp.csr_matrix((adj.data[keep], (src[keep], dst[keep])), shape=(nc, nc))
    coarse_weights = np.bincount(mapping, weights=weights, minlength=nc)
    return mapping, coarse_adj, coarse_weights


def _spectral_bisect(adj: sp.csr_matrix, weights: np.ndarray, target_left: float) -> np.ndarray | None:
    """Fiedler-vector bisection of the coarsest graph (optional seed cut).

    Sorts nodes by the second-smallest Laplacian eigenvector and sweeps the
    weight-balanced threshold. Only graphs of 4 to :data:`DENSE_MAX` nodes
    are cut, with the dense symmetric eigensolver, which is deterministic
    (ARPACK's shift-invert ``eigsh`` returned different cuts from
    identical Laplacians across calls). Returns ``None`` otherwise, or
    when the eigensolver fails; the other seed cuts are used then.
    """
    n = adj.shape[0]
    if not 4 <= n <= DENSE_MAX:
        return None
    deg = np.asarray(adj.sum(axis=1)).ravel()
    laplacian = sp.diags(deg) - adj
    try:
        _, vectors = np.linalg.eigh(laplacian.toarray())
    except np.linalg.LinAlgError:
        return None
    fiedler = vectors[:, 1]
    order = np.argsort(fiedler)
    cumulative = np.cumsum(weights[order])
    split_at = int(np.searchsorted(cumulative, target_left, side="left")) + 1
    split_at = min(max(split_at, 1), n - 1)
    side = np.zeros(n, dtype=bool)
    side[order[:split_at]] = True
    return side


def _greedy_grow_bisect(
    adj: sp.csr_matrix, weights: np.ndarray, target_left: float, rng: np.random.Generator, trials: int = 6
) -> np.ndarray:
    """Initial bisection by greedy region growing (dense — coarsest graph only)."""
    n = adj.shape[0]
    dense = np.asarray(adj.todense(), dtype=np.float64)
    best_side: np.ndarray | None = None
    best_cut = np.inf
    total = weights.sum()
    target_left = min(target_left, total)
    for _ in range(trials):
        side = np.zeros(n, dtype=bool)
        seed = int(rng.integers(n))
        side[seed] = True
        left_w = weights[seed]
        conn = dense[seed].copy()  # connection strength of every node to the region
        conn[seed] = -np.inf
        while left_w < target_left and not side.all():
            # strongest-connected unassigned node; random among untouched ties
            nxt = int(np.argmax(conn + rng.random(n) * 1e-9)) if np.isfinite(conn).any() else -1
            if nxt < 0 or not np.isfinite(conn[nxt]):
                nxt = int(rng.choice(np.flatnonzero(~side)))
            side[nxt] = True
            left_w += weights[nxt]
            conn += dense[nxt]
            conn[side] = -np.inf
        cut = _cut_weight(adj, side)
        if cut < best_cut:
            best_cut, best_side = cut, side.copy()
    assert best_side is not None
    return best_side


def _bfs_sweep_bisect(
    adj: sp.csr_matrix, weights: np.ndarray, target_left: float, rng: np.random.Generator
) -> np.ndarray:
    """Sparse fallback seed cut: BFS order from a random root, weight-swept.

    Locality of the BFS order keeps the cut reasonable without ever
    densifying the adjacency; FM refinement cleans it up afterwards.
    """
    n = adj.shape[0]
    order = _bfs_order(adj, rng)
    cumulative = np.cumsum(weights[order])
    split_at = int(np.searchsorted(cumulative, target_left, side="left")) + 1
    split_at = min(max(split_at, 1), n - 1)
    side = np.zeros(n, dtype=bool)
    side[order[:split_at]] = True
    return side


def _cut_weight(adj: sp.csr_matrix, side: np.ndarray) -> float:
    s = side.astype(np.float64)
    return float(s @ (adj @ (1.0 - s)))


def _fm_refine(
    adj: sp.csr_matrix,
    weights: np.ndarray,
    side: np.ndarray,
    target_left: float,
    passes: int,
    imbalance_tol: float,
) -> np.ndarray:
    """Fiduccia–Mattheyses boundary refinement.

    Per pass: repeatedly move the feasible node with the best gain
    (``2 * external - degree``), lock it, and keep the best configuration
    seen (hill climbing escapes shallow local minima). Feasibility keeps
    the left-side weight within ``imbalance_tol`` of its target.

    Whether a move is feasible depends only on the node's side and weight,
    and an unlocked node keeps its side for the whole pass, so the
    unlocked nodes fall into fixed ``(side, weight)`` groups that are
    feasible or not as a whole: one evaluation of the balance test per
    group per move is exactly the per-node test (the same float
    expression). Each group is a lazy min-heap of ``(-gain, node)``,
    seeded in sorted order at the start of a pass; a move pushes the new
    entries of the moved node's neighbours, the only gains it changes.
    Entries of locked nodes, and entries whose gain is no longer current,
    are dropped when they reach the top. The smallest top over the
    feasible groups is the highest gain with the lowest node id: the node
    ``np.argmax`` over all gains would pick.
    """
    n = adj.shape[0]
    if n <= 2:
        return side
    side = side.copy()
    total = weights.sum()
    tol = float(max(imbalance_tol * total, weights.max()))
    target_left = float(target_left)
    deg = np.asarray(adj.sum(axis=1)).ravel()
    max_moves = min(n, 512)
    indptr, indices, data = adj.indptr.tolist(), adj.indices, adj.data  # rows sliced per move
    deg_l, weights_l = deg.tolist(), weights.tolist()
    group_weights, weight_rank = np.unique(weights, return_inverse=True)
    group_weights = group_weights.tolist()

    for _ in range(passes):
        in_left = side.astype(np.float64)
        to_left = adj @ in_left  # weighted neighbours on the left side
        left_w = float(weights[side].sum())
        cut = _cut_weight(adj, side)
        best_cut, best_at = cut, 0
        improved = False
        trail: list[int] = []

        # group g = 2 * weight rank + side; each group's (-gain, node) entries
        # in sorted order, which is a valid min-heap
        neg_gain = deg - 2.0 * np.where(side, deg - to_left, to_left)
        group = 2 * weight_rank + side
        order = np.lexsort((neg_gain, group))
        bounds = np.searchsorted(group[order], np.arange(2 * len(group_weights) + 1)).tolist()
        entries = list(zip(neg_gain[order].tolist(), order.tolist()))
        heaps = [entries[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        live = [(g, group_weights[g >> 1], g & 1) for g, heap in enumerate(heaps) if heap]
        tops: list[tuple[float, int] | None] = [None] * len(heaps)  # cached valid top; None: recompute
        neg_gain_l, to_left_l, side_l = neg_gain.tolist(), to_left.tolist(), side.tolist()
        group_l = group.tolist()
        locked = [False] * n

        for move_idx in range(1, max_moves + 1):
            best = None
            for g, w, from_left in live:
                new_left = left_w - w if from_left else left_w + w
                if not abs(new_left - target_left) <= tol:
                    continue  # the whole group would break the balance
                top = tops[g]
                if top is None:
                    heap = heaps[g]  # drop entries of locked nodes and outdated gains
                    while heap and (locked[heap[0][1]] or neg_gain_l[heap[0][1]] != heap[0][0]):
                        heapq.heappop(heap)
                    if not heap:  # every node of the group is locked
                        live = [entry for entry in live if entry[0] != g]
                        continue
                    top = tops[g] = heap[0]
                if best is None or top < best:
                    best = top
            if best is None:
                break
            key, v = best
            # apply the move
            cut += key
            delta = -1.0 if side_l[v] else 1.0
            left_w += delta * weights_l[v]
            side_l[v] = not side_l[v]
            locked[v] = True
            tops[group_l[v]] = None
            trail.append(v)
            lo, hi = indptr[v], indptr[v + 1]
            for u, weight in zip(indices[lo:hi].tolist(), data[lo:hi].tolist()):
                if locked[u]:
                    continue
                to_left_l[u] += delta * weight
                ext = deg_l[u] - to_left_l[u] if side_l[u] else to_left_l[u]
                key = deg_l[u] - 2.0 * ext
                neg_gain_l[u] = key
                g = group_l[u]
                heapq.heappush(heaps[g], (key, u))
                top = tops[g]
                if top is not None:
                    if top[1] == u:
                        tops[g] = None  # the top's own gain moved
                    elif (key, u) < top:
                        tops[g] = (key, u)
            if cut < best_cut - 1e-12:
                best_cut, best_at = cut, move_idx
                improved = True
            elif move_idx - best_at >= FM_PATIENCE:
                break  # the hill climb found nothing better in a while

        # keep the best prefix of the move trail (moves went to side_l only)
        for v in trail[:best_at]:
            side[v] = not side[v]
        if not improved:
            break
    return side
