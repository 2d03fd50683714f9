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

Balancing is on arbitrary node weights; :func:`val_balanced_weights`
produces the paper's validation-node balancing. ``random`` and ``bfs``
partitioners are included as baselines for the partition-quality tests and
the R/K ablation bench.
"""

from __future__ import annotations

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
        ``"metis"`` (multilevel KL, default) | ``"spectral"`` (recursive
        Fiedler bisection with FM refinement, no coarsening) | ``"random"``
        | ``"bfs"``.
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
    elif method in ("metis", "spectral"):
        adj = csr.without_self_loops().to_scipy()
        adj = ((adj + adj.T) > 0).astype(np.float64).tocsr()  # symmetric unit weights
        labels = np.zeros(n, dtype=np.int64)
        # "spectral" is the multilevel pipeline with coarsening disabled:
        # every bisection runs the Fiedler sweep (+FM refinement) on the
        # full subgraph — slower but a useful quality reference for the
        # multilevel heuristics.
        _recursive_bisect(
            adj,
            weights,
            np.arange(n, dtype=np.int64),
            labels,
            0,
            k,
            rng,
            coarsen_to=n + 1 if method == "spectral" else coarsen_to,
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
    order = _bfs_order(csr, rng)
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


def _bfs_order(csr: CSR, rng: np.random.Generator) -> np.ndarray:
    """BFS visitation order covering all components (vectorised frontier)."""
    n = csr.num_nodes
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    adj = csr.to_scipy()
    seeds = rng.permutation(n)
    for seed in seeds:
        if visited[seed]:
            continue
        frontier = np.array([seed], dtype=np.int64)
        visited[seed] = True
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
    # Greedy growing densifies the adjacency, so past a few thousand nodes
    # (reachable when coarsening is disabled or matching stalls) it is
    # replaced by a sparse BFS-order sweep.
    candidates = []
    spectral = _spectral_bisect(cur_adj, cur_w, target_left, rng)
    if spectral is not None:
        candidates.append(spectral)
    if cur_adj.shape[0] <= DENSE_MAX:
        candidates.append(_greedy_grow_bisect(cur_adj, cur_w, target_left, rng))
    if not candidates:
        candidates.append(_bfs_sweep_bisect(cur_adj, cur_w, target_left, rng))
    side = min(candidates, key=lambda s: _cut_weight(cur_adj, s))
    side = _fm_refine(cur_adj, cur_w, side, target_left, rng, refine_passes, imbalance_tol)
    for fine_adj, fine_w, mapping in reversed(levels):
        side = side[mapping]  # project to the finer level
        side = _fm_refine(fine_adj, fine_w, side, target_left, rng, refine_passes, imbalance_tol)
    return side


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


def _spectral_bisect(
    adj: sp.csr_matrix, weights: np.ndarray, target_left: float, rng: np.random.Generator
) -> np.ndarray | None:
    """Fiedler-vector bisection of the coarsest graph (optional seed cut).

    Sorts nodes by the second-smallest Laplacian eigenvector and sweeps the
    weight-balanced threshold. Graphs of at most :data:`DENSE_MAX` nodes —
    the coarsest graph of every multilevel bisection, including those
    where matching stalled above ``coarsen_to`` — use the dense symmetric
    eigensolver, which is deterministic: ARPACK's shift-invert ``eigsh``
    returned different cuts from identical coarse Laplacians across calls.
    Returns ``None`` when the eigensolver fails, in which case greedy
    growing is used instead.
    """
    n = adj.shape[0]
    if n < 4:
        return None
    deg = np.asarray(adj.sum(axis=1)).ravel()
    laplacian = sp.diags(deg) - adj
    try:
        if n <= DENSE_MAX:
            _, vectors = np.linalg.eigh(laplacian.toarray())
        else:
            # shift-invert around 0 finds the smallest eigenpairs quickly.
            # v0 MUST be pinned to the partitioner's generator: without it
            # ARPACK draws its starting vector from numpy's *global*
            # RandomState.
            v0 = rng.standard_normal(n)
            _, vectors = sp.linalg.eigsh(laplacian.tocsc(), k=2, sigma=-1e-6, which="LM", v0=v0)
    except (RuntimeError, np.linalg.LinAlgError):
        # ARPACK's errors and SuperLU's singular-factor error are RuntimeErrors
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
