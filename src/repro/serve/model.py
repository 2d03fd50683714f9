"""The served model and the ``"serve"`` worker role.

A :class:`ServedModel` wraps what Phase 2 produced — a single souped
state dict, or (for the ensemble baselines) every ingredient state —
behind one scoring entry point, :meth:`ServedModel.scores_at`. An
``L``-layer GNN's logits at a set of nodes depend only on their ``L``-hop
field, so ``scores_at`` runs the forward on layered blocks built for the
flush's rows (:mod:`repro.graph.blocks`): a flush of 8 nodes computes
their field, not the whole graph. When the field is so wide that blocks
would cost more than the full pass, the flush runs on the whole graph,
the trivial block, instead; :func:`~repro.graph.blocks.forward_field`
makes that choice for serving and training alike. Either way a row's
logits are bit-identical to the full-graph pass. That is the whole
serving determinism contract: a node's score row never depends on which
other nodes share its batch, so any coalescing/arrival order produces
bit-identical predictions.

The module also defines ``SERVE_ROLE``, the worker role the cluster
runtime runs in serving backends. It is registered under the name
``"serve"`` in :data:`repro.distributed.cluster._ROLES`, so a remote
``python -m repro cluster start-worker`` process resolves exactly this
code path — one worker binary serves training, souping and inference
sessions alike.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict

import numpy as np

from ..graph.blocks import forward_field
from ..models import build_model
from ..telemetry import metrics
from ..train import evaluate_logits

# no cycle: cluster.py resolves this module lazily by name (via _ROLES),
# never at import time
from ..distributed.cluster import WorkerRole
from ..distributed.shm import attach_graph_ref

__all__ = [
    "SERVE_ROLE",
    "ServedModel",
    "state_digest",
    "state_to_wire",
    "state_from_wire",
]

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
    :func:`repro.soup.ensemble.logit_ensemble` (N forwards per call on
    one set of blocks; the N-fold inference cost is the ensemble
    trade-off the paper's soups exist to remove, and the serving benches
    make it visible).

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

    def scores_at(self, node_ids) -> tuple[np.ndarray, np.ndarray]:
        """Score rows for the requested nodes as ``(rows, scores)``.

        ``rows`` are the sorted unique int64 node ids and ``scores`` the
        ``[len(rows), C]`` float64 block, row ``i`` scoring ``rows[i]``.
        One forward on the flush's :func:`~repro.graph.blocks.forward_field`
        (N for an ensemble, sharing the blocks; built per call, outside the
        graph's block cache, so serving never evicts the souping row sets),
        bit-identical to the full-graph pass at every row — a row
        is the same bytes whether the node arrived alone or in a 10 000-node
        batch. Out-of-range ids raise ``ValueError`` (the serving frontend
        turns that into a per-request error reply).
        """
        ids = np.asarray(list(node_ids), dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_nodes):
            bad = ids[(ids < 0) | (ids >= self.num_nodes)]
            raise ValueError(
                f"node id(s) {bad[:8].tolist()} outside [0, {self.num_nodes}) "
                f"for graph {self.graph.name!r}"
            )
        start = time.monotonic()
        rows = np.unique(ids)
        field = forward_field(self.graph, rows, self._model.num_hops, cached=False)
        at = field.positions(rows)
        if not self.ensemble:
            scores = evaluate_logits(self._model, field)[at]
        else:
            per_state = []
            for state in self.states:
                self._model.load_state_dict(state)
                per_state.append(evaluate_logits(self._model, field)[at])
            scores = _softmax(np.stack(per_state)).mean(axis=0)
        if metrics.enabled:
            metrics.record_span(
                "serve.score", start, time.monotonic() - start,
                rows=len(rows), input_rows=len(field.features), blocked=field is not self.graph,
            )
        return rows, np.ascontiguousarray(scores, dtype=np.float64)


# ---------------------------------------------------------------------------
# worker role
# ---------------------------------------------------------------------------


class _ServeWorkerState:
    """Per-worker state: the served model, plus the shared-memory
    attachment handle, kept alive for as long as the graph views borrow
    its buffer. Repeat rows are caught by the driver's frontend cache.
    """

    __slots__ = ("model", "_handle")

    def __init__(self, model: ServedModel, handle) -> None:
        self.model = model
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
    return _ServeWorkerState(model, handle)


def _serve_role_run(state: _ServeWorkerState, node_ids) -> tuple[np.ndarray, np.ndarray]:
    return state.model.scores_at(node_ids)


#: The serving worker role on the shared cluster runtime, resolved by
#: name ("serve") so tcp workers on other hosts find the same code path.
SERVE_ROLE = WorkerRole(name="serve", init=_serve_role_init, run=_serve_role_run)
