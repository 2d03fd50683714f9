"""Greedy Interpolated Souping (GIS) — Algorithm 2 (Graph Ladling).

The state-of-the-art baseline the paper measures against. Starting from
the best-validation ingredient, each remaining ingredient (in accuracy
order) is considered through an **exhaustive line search** over ``g``
interpolation ratios ``alpha ∈ linspace(0, 1, g)``; the mix
``(1 - alpha) * soup + alpha * ingredient`` replaces the soup whenever it
does not reduce validation accuracy.

Cost: exactly ``(N - 1) * g`` full validation forward passes —
``O(N g F_v)`` (§III-E) — which is the scaling LS's gradient descent
eliminates. Since ``alpha = 0`` reproduces the current soup, validation
accuracy is monotone non-decreasing across iterations (a property the
test suite asserts).

Because every GIS soup is a running linear combination of ingredients,
the soup is tracked as a weight vector over the pool and each
ingredient's whole ratio grid is scored as **one evaluator batch** of mix
specs, each scored on the validation rows' layered blocks only.
"""

from __future__ import annotations

import numpy as np

from ..distributed.ingredients import IngredientPool
from ..graph.graph import Graph
from .base import SoupResult, instrumented
from .engine import Candidate, Evaluator, basis_weights, evaluation

__all__ = ["gis_soup"]


def gis_soup(
    pool: IngredientPool,
    graph: Graph,
    granularity: int = 20,
    evaluator: Evaluator | None = None,
) -> SoupResult:
    """Algorithm 2 with ``granularity`` interpolation ratios per ingredient."""
    if granularity < 2:
        raise ValueError("granularity must be >= 2 (need at least {0, 1})")
    n = len(pool)
    ratios = np.linspace(0.0, 1.0, granularity)

    with evaluation(evaluator, pool, graph) as ev:
        forward_passes = 0
        with instrumented("gis", pool, graph) as probe:
            order = pool.order_by_val()
            soup_w = basis_weights(n, int(order[0]))
            soup_val = ev.accuracy_of(weights=soup_w)
            forward_passes += 1
            chosen_ratios: list[float] = []
            for idx in order[1:]:
                ingredient_w = basis_weights(n, int(idx))
                grid = [(1.0 - alpha) * soup_w + alpha * ingredient_w for alpha in ratios]
                accs = ev.evaluate([Candidate(weights=w, split="val") for w in grid])
                forward_passes += granularity
                best_alpha, best_val, best_w = 0.0, soup_val, soup_w
                for alpha, cand_w, cand_val in zip(ratios, grid, accs):
                    if cand_val >= best_val:
                        best_val, best_alpha, best_w = cand_val, float(alpha), cand_w
                soup_w, soup_val = best_w, best_val
                chosen_ratios.append(best_alpha)
            soup = ev.mix(soup_w)
            probe.track_state_dict(soup)
        test_acc = ev.accuracy_of(weights=soup_w, split="test")

    return SoupResult(
        method="gis",
        state_dict=soup,
        val_acc=soup_val,
        test_acc=test_acc,
        soup_time=probe.elapsed,
        peak_memory=probe.peak,
        extras={
            "granularity": granularity,
            "chosen_ratios": chosen_ratios,
            "forward_passes": forward_passes,
            "n_ingredients": n,
            "soup_weights": soup_w,
        },
    )
