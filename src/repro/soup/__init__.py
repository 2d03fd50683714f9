"""Model souping for GNNs — the paper's core contribution.

Baselines: :func:`uniform_soup` (US), :func:`greedy_soup` (Algorithm 1),
:func:`gis_soup` (Greedy Interpolated Souping, Algorithm 2), classic
ensembles. Contributions: :func:`learned_soup` (LS, Algorithm 3) and
:func:`partition_learned_soup` (PLS, Algorithm 4). §VIII extensions in
:mod:`repro.soup.extensions`.
"""

from .base import SoupResult, eval_state
from .engine import (
    DEFAULT_SCORE_CACHE,
    Candidate,
    Evaluator,
    basis_weights,
    make_evaluator,
    member_weights,
    mix_candidate,
    score_candidate,
    stack_flat_states,
    uniform_weights,
)
from .state import (
    average,
    interpolate,
    weighted_sum,
    flatten_state,
    unflatten_state,
    state_distance,
    layer_groups,
    GRANULARITIES,
)
from .uniform import uniform_soup
from .greedy import greedy_soup
from .gis import gis_soup
from .learned import SoupConfig, learned_soup
from .partition_learned import PLSConfig, partition_learned_soup
from .ensemble import logit_ensemble, vote_ensemble
from .extensions import (
    DropoutSoupConfig,
    ingredient_dropout_soup,
    diversity_weighted_soup,
    prune_soup_state,
    finetuned_soup,
)
from .budget import radin_greedy_soup
from .sparse import magnitude_mask, sparse_soup
from .api import SOUP_METHODS, soup, soup_method_names

__all__ = [
    "SoupResult",
    "eval_state",
    "DEFAULT_SCORE_CACHE",
    "basis_weights",
    "member_weights",
    "uniform_weights",
    "Candidate",
    "Evaluator",
    "make_evaluator",
    "mix_candidate",
    "score_candidate",
    "stack_flat_states",
    "average",
    "interpolate",
    "weighted_sum",
    "flatten_state",
    "unflatten_state",
    "state_distance",
    "layer_groups",
    "GRANULARITIES",
    "uniform_soup",
    "greedy_soup",
    "gis_soup",
    "SoupConfig",
    "learned_soup",
    "PLSConfig",
    "partition_learned_soup",
    "logit_ensemble",
    "vote_ensemble",
    "DropoutSoupConfig",
    "ingredient_dropout_soup",
    "diversity_weighted_soup",
    "prune_soup_state",
    "radin_greedy_soup",
    "sparse_soup",
    "magnitude_mask",
    "finetuned_soup",
    "SOUP_METHODS",
    "soup",
    "soup_method_names",
]
