"""Greedy Souping — Algorithm 1 of the paper (after Wortsman et al.).

Sort ingredients by validation accuracy; iterate best-first, adding an
ingredient to the soup whenever the *uniform average of the tentative
members* does not hurt validation accuracy. Unlike GIS there is no
interpolation-ratio search — membership is all-or-nothing.
"""

from __future__ import annotations

from ..distributed.ingredients import IngredientPool
from ..graph.graph import Graph
from .base import SoupResult, instrumented
from .engine import Evaluator, evaluation, member_weights

__all__ = ["greedy_soup"]


def greedy_soup(pool: IngredientPool, graph: Graph, evaluator: Evaluator | None = None) -> SoupResult:
    """Algorithm 1: accuracy-ordered greedy membership with uniform mixing."""
    n = len(pool)
    with evaluation(evaluator, pool, graph) as ev:
        with instrumented("greedy", pool, graph) as probe:
            order = [int(i) for i in pool.order_by_val()]
            members: list[int] = [order[0]]
            best_val = ev.accuracy_of(weights=member_weights(n, members))
            for idx in order[1:]:
                acc = ev.accuracy_of(weights=member_weights(n, members + [idx]))
                if acc >= best_val:
                    members, best_val = members + [idx], acc
            soup_state = ev.mix(member_weights(n, members))
            probe.track_state_dict(soup_state)
        test_acc = ev.accuracy_of(weights=member_weights(n, members), split="test")

    return SoupResult(
        method="greedy",
        state_dict=soup_state,
        val_acc=best_val,
        test_acc=test_acc,
        soup_time=probe.elapsed,
        peak_memory=probe.peak,
        extras={"members": members, "n_ingredients": n},
    )
