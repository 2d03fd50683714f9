"""The served model and the ``"serve"`` worker role.

A :class:`ServedModel` wraps what Phase 2 produced — a single souped
state dict, or (for the ensemble baselines) every ingredient state —
behind one scoring entry point, :meth:`ServedModel.scores_at`. The
models are full-graph transductive GNNs, so one forward pass scores
*every* node; ``scores_at`` runs that single pass and slices out the
requested rows. That is the whole serving determinism contract: a node's
score row never depends on which other nodes share its batch, so any
coalescing/arrival order produces bit-identical predictions.

The module also defines ``SERVE_ROLE``, the worker role the cluster
runtime runs in serving backends. It is registered under the name
``"serve"`` in :data:`repro.distributed.cluster._ROLES`, so a remote
``python -m repro cluster start-worker`` process resolves exactly this
code path — one worker binary serves training, souping and inference
sessions alike.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from ..models import build_model
from ..train import evaluate_logits
from .cache import NodeCache

# no cycle: cluster.py resolves this module lazily by name (via _ROLES),
# never at import time
from ..distributed.cluster import WorkerRole
from ..distributed.shm import attach_graph_ref

__all__ = ["SERVE_ROLE", "ServedModel", "state_digest", "state_to_wire", "state_from_wire"]


def state_to_wire(state: dict) -> tuple:
    """A picklable ``((name, float64 array), ...)`` image of a state dict.

    Arrays are contiguous float64 — the same canonical form the soup
    engine digests — so the wire image round-trips bit-exactly.
    """
    return tuple(
        (str(name), np.ascontiguousarray(value, dtype=np.float64))
        for name, value in state.items()
    )


def state_from_wire(wire: tuple) -> "OrderedDict[str, np.ndarray]":
    """Rebuild a state dict from :func:`state_to_wire`'s image."""
    return OrderedDict((name, np.asarray(value)) for name, value in wire)


def state_digest(states) -> str:
    """Hex blake2b digest identifying a served parameter set.

    Mirrors the souping engine's candidate-score-cache digest: blake2b
    (16-byte) over each parameter's name and contiguous float64 bytes, in
    state-dict order, across every state. Two servers return the same
    digest iff they serve bit-identical parameters — the client-visible
    model identity, and the key the serving cache is invalidated on.
    """
    h = hashlib.blake2b(digest_size=16)
    for state in states:
        items = state.items() if hasattr(state, "items") else state
        for name, value in items:
            h.update(str(name).encode())
            h.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
    return h.hexdigest()


def _softmax(logits: np.ndarray) -> np.ndarray:
    # bit-identical to soup.ensemble._softmax — the served ensemble must
    # reproduce `repro soup -m ensemble-logit` scores exactly
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class ServedModel:
    """One soup (or ensemble) loaded for inference on one graph.

    ``states`` holds one state dict for a souped model, or every
    ingredient's state for ``ensemble=True``, in which case scoring
    averages the per-ingredient softmax probabilities — bit-identical to
    :func:`repro.soup.ensemble.logit_ensemble` (N forward passes per
    call; the N-fold inference cost is the ensemble trade-off the paper's
    soups exist to remove, and the serving benches make it visible).

    Score rows are float64: raw logits for a single state, mean softmax
    probabilities for an ensemble. ``argmax`` of a row is the predicted
    class either way.
    """

    def __init__(self, model_config: dict, graph, states, ensemble: bool = False) -> None:
        states = [
            state if hasattr(state, "items") else state_from_wire(state) for state in states
        ]
        if not states:
            raise ValueError("a served model needs at least one state dict")
        if not ensemble and len(states) != 1:
            raise ValueError(f"a non-ensemble served model takes exactly one state, got {len(states)}")
        self.model_config = dict(model_config)
        self.graph = graph
        self.states = states
        self.ensemble = bool(ensemble)
        self.digest = state_digest(states)
        self._model = build_model(**self.model_config)
        if not self.ensemble:
            # the single-soup fast path loads parameters once, not per call
            self._model.load_state_dict(states[0])

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_classes(self) -> int:
        return self.graph.num_classes

    def full_scores(self) -> np.ndarray:
        """``[num_nodes, num_classes]`` float64 scores of every node.

        The single scoring path every request goes through — one full
        forward pass (N for an ensemble), independent of which nodes a
        request asked for.
        """
        if not self.ensemble:
            return evaluate_logits(self._model, self.graph)
        per_state = []
        for state in self.states:
            self._model.load_state_dict(state)
            per_state.append(evaluate_logits(self._model, self.graph))
        return _softmax(np.stack(per_state)).mean(axis=0)

    def scores_at(self, node_ids) -> dict[int, np.ndarray]:
        """Score rows for the requested nodes, keyed by node id.

        Computes :meth:`full_scores` once and slices — a row is the same
        bytes whether the node arrived alone or in a 10 000-node batch.
        Out-of-range ids raise ``ValueError`` (the serving frontend turns
        that into a per-request error reply).
        """
        ids = np.asarray(list(node_ids), dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_nodes):
            bad = ids[(ids < 0) | (ids >= self.num_nodes)]
            raise ValueError(
                f"node id(s) {bad[:8].tolist()} outside [0, {self.num_nodes}) "
                f"for graph {self.graph.name!r}"
            )
        scores = self.full_scores()
        return {int(node): np.ascontiguousarray(scores[int(node)]) for node in ids}


# ---------------------------------------------------------------------------
# worker role
# ---------------------------------------------------------------------------


class _ServeWorkerState:
    """Per-worker state: the served model plus a worker-local row cache.

    The worker cache short-circuits the forward pass for rows this worker
    has already computed — the driver's frontend cache catches repeats
    across workers, this one catches repeats a single worker sees (and
    keeps a ``start-worker`` node cheap when the same hot set is routed
    to it). The shared-memory attachment handle is kept alive for as long
    as the graph views borrow its buffer.
    """

    __slots__ = ("model", "cache", "_handle")

    def __init__(self, model: ServedModel, cache: NodeCache, handle) -> None:
        self.model = model
        self.cache = cache
        self._handle = handle


def _serve_role_init(context: dict) -> _ServeWorkerState:
    """Attach the graph through its ref and load the served states shipped
    in the worker context."""
    graph, handle = attach_graph_ref(context["graph_ref"])
    model = ServedModel(
        context["model_config"],
        graph,
        context["states"],
        ensemble=context["ensemble"],
    )
    cache = NodeCache(int(context.get("worker_cache_nodes", 0)))
    return _ServeWorkerState(model, cache, handle)


def _serve_role_run(state: _ServeWorkerState, node_ids) -> dict[int, np.ndarray]:
    hits, misses = state.cache.lookup(node_ids)
    if misses:
        computed = state.model.scores_at(misses)
        state.cache.insert(computed)
        hits.update(computed)
    return hits


#: The serving worker role on the shared cluster runtime, resolved by
#: name ("serve") so tcp workers on other hosts find the same code path.
SERVE_ROLE = WorkerRole(name="serve", init=_serve_role_init, run=_serve_role_run)
