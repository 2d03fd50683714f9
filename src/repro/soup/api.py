"""Unified dispatch over all souping methods.

``soup(method, pool, graph, **kwargs)`` gives the experiment harness and
examples one entry point; per-method keyword arguments pass through to the
underlying implementation.
"""

from __future__ import annotations

from typing import Callable

from ..distributed.ingredients import IngredientPool
from ..graph.graph import Graph
from ..telemetry import build_report, metrics
from .base import SoupResult
from .engine import Evaluator
from .budget import radin_greedy_soup
from .ensemble import logit_ensemble, vote_ensemble
from .extensions import diversity_weighted_soup, finetuned_soup, ingredient_dropout_soup
from .gis import gis_soup
from .greedy import greedy_soup
from .learned import learned_soup
from .partition_learned import partition_learned_soup
from .sparse import sparse_soup
from .uniform import uniform_soup

__all__ = ["SOUP_METHODS", "soup", "soup_method_names"]


SOUP_METHODS: dict[str, Callable[..., SoupResult]] = {
    "us": uniform_soup,
    "greedy": greedy_soup,
    "gis": gis_soup,
    "ls": learned_soup,
    "pls": partition_learned_soup,
    "ls-dropout": ingredient_dropout_soup,
    "ls-finetune": finetuned_soup,
    "diversity": diversity_weighted_soup,
    "radin": radin_greedy_soup,
    "sparse": sparse_soup,
    "ensemble-logit": logit_ensemble,
    "ensemble-vote": vote_ensemble,
}


def soup_method_names(paper_only: bool = False) -> list[str]:
    """All registered methods; ``paper_only`` restricts to Table II's four."""
    if paper_only:
        return ["us", "gis", "ls", "pls"]
    return list(SOUP_METHODS.keys())


def soup(
    method: str,
    pool: IngredientPool,
    graph: Graph,
    evaluator: Evaluator | None = None,
    **kwargs,
) -> SoupResult:
    """Run one souping method by name.

    ``evaluator`` is the shared candidate-evaluation engine (see
    :func:`repro.soup.engine.make_evaluator`); every registered method
    accepts it, so one evaluator (and its score cache) can serve a whole
    sweep.
    """
    if method not in SOUP_METHODS:
        raise KeyError(f"unknown souping method {method!r}; available: {soup_method_names()}")
    result = SOUP_METHODS[method](pool, graph, evaluator=evaluator, **kwargs)
    if metrics.enabled:
        result.extras["telemetry"] = build_report(phase="soup", method=method).to_dict()
        if evaluator is not None:
            result.extras["cache_info"] = evaluator.cache_info()
    return result
