"""Budget-constrained souping via ensemble approximation (§II-B, ref [40]).

RADIN ("souping on a budget", Menes & Risser-Maroix 2024) observes that
greedy soup construction spends almost all its time on *candidate
evaluation*: every tentative member set needs a full forward pass of the
averaged model. But the logit-ensemble of the candidate members — whose
per-ingredient logits can be cached after exactly N forward passes — is a
cheap, well-correlated proxy for the soup's accuracy (soups and ensembles
approximate each other to first order in the weight spread; that
first-order argument is the original Model Soups motivation).

:func:`radin_greedy_soup` is Algorithm 1 with that substitution:

* N cached forward passes up front (one per ingredient — the floor any
  informed method pays), issued as **one evaluator batch** of
  logits-kind candidates;
* greedy membership scored on the **cached-logit ensemble** at zero
  additional forward passes,
* an optional *true-evaluation budget*: up to ``eval_budget`` forward
  passes may be spent to confirm accepted candidates on the real averaged
  model (most valuable late in the greedy pass, where the ensemble
  approximation drifts most). ``eval_budget=0`` is the pure-proxy variant.

The ``extras`` record both the proxy and true scores plus the number of
forward passes consumed, so benches can plot accuracy-vs-budget against
GIS's ``O(N·g)`` forward-pass bill.
"""

from __future__ import annotations

import numpy as np

from ..distributed.ingredients import IngredientPool
from ..graph.graph import Graph
from ..train import accuracy
from .base import SoupResult, instrumented
from .engine import Candidate, Evaluator, basis_weights, evaluation, member_weights

__all__ = ["radin_greedy_soup"]


def radin_greedy_soup(
    pool: IngredientPool,
    graph: Graph,
    eval_budget: int = 0,
    evaluator: Evaluator | None = None,
) -> SoupResult:
    """Greedy soup with ensemble-approximated candidate scoring.

    Parameters
    ----------
    eval_budget:
        Maximum *additional* true-soup forward passes (beyond the N
        logit-caching passes). Each accepted candidate is confirmed with a
        true evaluation while budget remains; a confirmation that shows
        the true soup got *worse* vetoes the acceptance.
    """
    if eval_budget < 0:
        raise ValueError("eval_budget cannot be negative")
    n = len(pool)
    val_labels = graph.labels[graph.val_idx]
    forward_passes = 0

    with evaluation(evaluator, pool, graph) as ev:
        with instrumented("radin", pool, graph) as probe:
            # -- N caching passes: per-ingredient validation logits, as one
            # evaluator batch ------------------------------------------------
            cached = ev.evaluate(
                [Candidate(weights=basis_weights(n, i), split="val", kind="logits") for i in range(n)]
            )
            forward_passes += n
            for arr in cached:
                probe.track_array(arr)

            def proxy_acc(members: list[int]) -> float:
                """Accuracy of the cached-logit ensemble of ``members``."""
                mean_logits = np.mean([cached[i] for i in members], axis=0)
                return accuracy(mean_logits, val_labels)

            def true_acc(members: list[int]) -> float:
                nonlocal forward_passes
                forward_passes += 1
                return ev.accuracy_of(weights=member_weights(n, members), split="val")

            order = pool.order_by_val()
            members: list[int] = [int(order[0])]
            best_proxy = proxy_acc(members)
            best_true: float | None = None
            budget_left = eval_budget
            confirmations = vetoes = 0
            for idx in order[1:]:
                candidate = members + [int(idx)]
                cand_proxy = proxy_acc(candidate)
                if cand_proxy < best_proxy:
                    continue
                if budget_left > 0:
                    # confirm on the real averaged model before committing
                    if best_true is None:
                        best_true = true_acc(members)
                        budget_left -= 1
                    if budget_left == 0:
                        members, best_proxy = candidate, cand_proxy
                        continue
                    cand_true = true_acc(candidate)
                    budget_left -= 1
                    confirmations += 1
                    if cand_true >= best_true:
                        members, best_proxy, best_true = candidate, cand_proxy, cand_true
                    else:
                        vetoes += 1
                else:
                    members, best_proxy = candidate, cand_proxy
            soup_w = member_weights(n, members)
            soup_state = ev.mix(soup_w)
            probe.track_state_dict(soup_state)
        val_acc, test_acc = ev.final_scores(weights=soup_w)

    return SoupResult(
        method="radin",
        state_dict=soup_state,
        val_acc=val_acc,
        test_acc=test_acc,
        soup_time=probe.elapsed,
        peak_memory=probe.peak,
        extras={
            "members": members,
            "proxy_val_acc": best_proxy,
            "forward_passes": forward_passes,
            "eval_budget": eval_budget,
            "confirmations": confirmations,
            "vetoes": vetoes,
            "n_ingredients": n,
        },
    )
