"""Shared candidate-evaluation engine for every souping method (Phase 2).

Every Phase-2 algorithm reduces its inner loop to "score this candidate
on a node split": GIS line-searches an interpolation-ratio grid, greedy
souping scores tentative member sets, RADIN confirms accepted candidates,
LS/PLS select among restarts, the extensions score per-epoch mixtures.
This module gives all of them one in-process :class:`Evaluator`: one
lazily built model scores each candidate on the layered blocks of its
node selection, so a score costs a few milliseconds of work and nothing
else.

Every evaluator additionally carries a **candidate-score cache**: scalar
accuracies are memoized by a digest of ``(weights, groups, node
selection)``, so a mix that has been scored once — GIS's ``alpha = 0``
grid endpoint reproducing the current soup, identical candidates across
an experiment cell's method × rotation jobs — costs a dictionary lookup
instead of a forward pass. Cached values are the exact floats the
scoring returned, so results are untouched; ``cache_info()`` exposes
hit/miss counters and ``cache_size=0`` disables the cache.

Candidates are preferentially expressed as **mix specs** — an ``[N]`` (or
``[N, G]`` + groups) weight vector over the ingredient pool — because
every linear soup is one; explicit state dicts are the fallback for
non-linear candidates (masked sparse soups, fine-tuned states).

Determinism contract: every candidate is mixed by one kernel
(:func:`mix_candidate`) and scored by one routine
(:func:`score_candidate`), so for a fixed seed every souping method
returns bit-identical ``SoupResult.state_dict`` / ``val_acc`` whether
the score came from the model or from the cache.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..distributed.ingredients import IngredientPool
from ..graph.graph import Graph
from ..telemetry import current_label, metrics
from ..train import accuracy, evaluate_logits, evaluate_rows

__all__ = [
    "DEFAULT_SCORE_CACHE",
    "EVAL_KINDS",
    "Candidate",
    "Evaluator",
    "make_evaluator",
    "evaluation",
    "basis_weights",
    "member_weights",
    "uniform_weights",
    "mix_candidate",
    "score_candidate",
    "stack_flat_states",
]

#: Default capacity (entries) of the evaluator-side candidate-score
#: cache. Entries are 16-byte digests mapping to scalar accuracies, so
#: even the full cache is a few hundred KB.
DEFAULT_SCORE_CACHE = 8192

#: Result kinds a candidate may request.
EVAL_KINDS = ("acc", "logits")

_SPLITS = ("train", "val", "test")


def stack_flat_states(states: list[dict]) -> tuple[np.ndarray, tuple[tuple[str, tuple[int, ...]], ...]]:
    """``([N, D] float64 stack, ((name, shape), ...))`` of a pool's states.

    Row ``i`` is ingredient ``i``'s parameters flattened in state-dict
    order — the working representation :func:`mix_candidate` operates on.
    """
    if not states:
        raise ValueError("cannot stack zero states")
    names = list(states[0].keys())
    params = tuple(
        (str(name), tuple(int(s) for s in np.asarray(states[0][name]).shape)) for name in names
    )
    flats = np.stack(
        [
            np.concatenate(
                [np.ascontiguousarray(sd[name], dtype=np.float64).ravel() for name in names]
            )
            for sd in states
        ]
    )
    return flats, params


def mix_candidate(
    flats: np.ndarray,
    params: tuple[tuple[str, tuple[int, ...]], ...],
    weights: np.ndarray,
    groups: np.ndarray | None = None,
) -> "OrderedDict[str, np.ndarray]":
    """Materialise a candidate state dict from the flat-state stack.

    ``weights`` is either ``[N]`` (one scalar per ingredient — Eq. (3)
    with a single group) or ``[N, G]`` paired with ``groups``, the
    per-parameter group-id vector (``len(params)`` entries), in which case
    each parameter's slice is mixed with its group's weight column.

    This is the one mixing kernel every candidate goes through — the
    determinism contract rides on it.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n, total = flats.shape
    if weights.ndim == 1:
        if weights.shape[0] != n:
            raise ValueError(f"weights length {weights.shape[0]} != pool size {n}")
        vec = weights @ flats
    elif weights.ndim == 2:
        if groups is None:
            raise ValueError("[N, G] weights need the per-parameter groups vector")
        groups = np.asarray(groups, dtype=np.int64)
        if weights.shape[0] != n:
            raise ValueError(f"weights rows {weights.shape[0]} != pool size {n}")
        if len(groups) != len(params):
            raise ValueError(f"groups length {len(groups)} != parameter count {len(params)}")
        vec = np.empty(total, dtype=np.float64)
        offset = 0
        for (_name, shape), g in zip(params, groups):
            size = int(np.prod(shape, dtype=np.int64)) if shape else 1
            vec[offset : offset + size] = weights[:, int(g)] @ flats[:, offset : offset + size]
            offset += size
    else:
        raise ValueError(f"weights must be [N] or [N, G], got ndim={weights.ndim}")

    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    offset = 0
    for name, shape in params:
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        out[name] = vec[offset : offset + size].reshape(shape)
        offset += size
    if offset != total:
        raise ValueError(f"parameter spec covers {offset} values, stack rows hold {total}")
    return out


def score_candidate(
    model,
    graph: Graph,
    state: dict,
    split: str | None = "val",
    indices: np.ndarray | None = None,
    kind: str = "acc",
):
    """Load ``state`` into ``model`` and score it on one node selection.

    ``kind="acc"`` returns the accuracy at ``indices`` (or the named
    ``split``); ``kind="logits"`` returns the logits there — the full
    logits matrix when neither is given. A node selection is scored on
    its layered blocks (:func:`~repro.train.evaluate_rows`), which compute
    only the rows the selection depends on and give the full pass's bits.
    The model is owned by the evaluator, so no caller-visible state is
    mutated.
    """
    if kind not in EVAL_KINDS:
        raise ValueError(f"unknown eval kind {kind!r}; choose from {EVAL_KINDS}")
    if indices is not None:
        idx = np.asarray(indices)
    elif split is not None:
        if split not in _SPLITS:
            raise ValueError(f"unknown split {split!r}; choose from {_SPLITS}")
        idx = {"train": graph.train_idx, "val": graph.val_idx, "test": graph.test_idx}[split]
    elif kind == "logits":
        model.load_state_dict(state)
        return evaluate_logits(model, graph)
    else:
        raise ValueError("accuracy scoring needs a split or an indices array")
    model.load_state_dict(state)
    logits = evaluate_rows(model, graph, idx)
    if kind == "logits":
        return logits
    return accuracy(logits, graph.labels[idx])


def basis_weights(n: int, index: int) -> np.ndarray:
    """Mix spec selecting exactly ingredient ``index`` (one-hot)."""
    weights = np.zeros(n)
    weights[index] = 1.0
    return weights


def uniform_weights(n: int) -> np.ndarray:
    """Mix spec of the uniform soup: equal mass on every ingredient."""
    return np.full(n, 1.0 / n)


def member_weights(n: int, members: list[int]) -> np.ndarray:
    """Mix spec of the uniform average over a member subset."""
    weights = np.zeros(n)
    weights[members] = 1.0 / len(members)
    return weights


@dataclass(frozen=True)
class Candidate:
    """One evaluation request: a candidate state and a node selection.

    Exactly one of ``weights`` (mix spec over the evaluator's pool) or
    ``state`` (explicit state dict) must be given. ``[N, G]`` weights need
    ``groups``, the per-parameter group-id vector. ``indices`` overrides
    the named ``split``; ``kind="logits"`` returns logits at the selected
    nodes instead of the scalar accuracy.
    """

    weights: np.ndarray | None = None
    groups: np.ndarray | None = None
    state: dict | None = None
    split: str | None = "val"
    indices: np.ndarray | None = None
    kind: str = "acc"

    def __post_init__(self) -> None:
        if (self.weights is None) == (self.state is None):
            raise ValueError("exactly one of weights/state must be set")
        if self.weights is not None:
            w = np.asarray(self.weights)
            if w.ndim not in (1, 2):
                raise ValueError(f"weights must be [N] or [N, G], got ndim={w.ndim}")
            if w.ndim == 2 and self.groups is None:
                raise ValueError("[N, G] weights need the per-parameter groups vector")
        if self.kind not in EVAL_KINDS:
            raise ValueError(f"unknown eval kind {self.kind!r}; choose from {EVAL_KINDS}")
        if self.indices is None:
            if self.split is None and self.kind == "acc":
                raise ValueError("accuracy candidates need a split or an indices array")
            if self.split is not None and self.split not in _SPLITS:
                raise ValueError(f"unknown split {self.split!r}; choose from {_SPLITS}")


class Evaluator:
    """In-process evaluator: the pool's flat-state stack, one lazily built
    model, the score cache and a scoring lock.

    It validates candidates, mixes them, scores them and hands out the
    subset views used by leave-one-out rotations. Evaluators own their
    models, so no caller-held model is ever mutated by souping.
    """

    def __init__(
        self,
        pool: IngredientPool,
        graph: Graph,
        cache_size: int = DEFAULT_SCORE_CACHE,
        cache_path=None,
    ) -> None:
        self.pool = pool
        self.graph = graph
        self._flats: np.ndarray | None = None
        self._params = None
        self._model = None
        self._lock = threading.RLock()
        self._closed = False
        if isinstance(cache_size, bool) or not isinstance(cache_size, (int, np.integer)):
            raise ValueError(f"cache_size must be an integer, got {cache_size!r}")
        self._cache_size = max(0, int(cache_size))
        self._cache: "OrderedDict[bytes, float]" = OrderedDict()
        self._cache_path = Path(cache_path) if cache_path else None
        self.cache_hits = 0
        self.cache_misses = 0
        self.backend_evals = 0  # candidates actually scored (cache misses)
        self._load_cache()

    # -- pool views ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.pool)

    def _ensure_flats(self) -> None:
        if self._flats is None:
            self._flats, self._params = stack_flat_states(self.pool.states)

    @property
    def flats(self) -> np.ndarray:
        """The pool's ``[N, D]`` stacked flat states (built lazily once)."""
        self._ensure_flats()
        return self._flats

    @property
    def param_spec(self):
        """``((name, shape), ...)`` unflattening spec for :attr:`flats`."""
        self._ensure_flats()
        return self._params

    def subset(self, indices) -> "SubsetEvaluator":
        """A view evaluating candidates over a sub-pool (e.g. a
        leave-one-out rotation) on this evaluator — sub-pool weight
        vectors are zero-expanded to the full pool, so the flat-state
        stack, the model and the score cache are reused as-is."""
        return SubsetEvaluator(self, indices)

    # -- mixing --------------------------------------------------------------

    def mix(self, weights: np.ndarray, groups: np.ndarray | None = None) -> dict:
        """Materialise the state dict of a mix spec (driver-side)."""
        return mix_candidate(self.flats, self.param_spec, weights, groups)

    # -- candidate-score cache -----------------------------------------------

    def _cache_key(self, cand: Candidate) -> bytes | None:
        """Digest of a cacheable candidate, ``None`` when uncacheable.

        Only scalar-accuracy mix-spec candidates are memoized: explicit
        state dicts are large and rarely repeated, and logits results are
        whole matrices. Weights are digested in the float64 form
        :func:`mix_candidate` mixes with, so equal-valued specs hit
        regardless of the caller's dtype.
        """
        if self._cache_size <= 0 or cand.state is not None or cand.kind != "acc":
            return None
        digest = hashlib.blake2b(digest_size=16)
        weights = np.ascontiguousarray(np.asarray(cand.weights, dtype=np.float64))
        digest.update(str(weights.shape).encode())
        digest.update(weights.tobytes())
        if cand.groups is not None:
            digest.update(b"g")
            digest.update(np.ascontiguousarray(np.asarray(cand.groups, dtype=np.int64)).tobytes())
        if cand.indices is not None:  # indices override the named split
            digest.update(b"i")
            digest.update(np.ascontiguousarray(np.asarray(cand.indices, dtype=np.int64)).tobytes())
        else:
            digest.update(b"s")
            digest.update(str(cand.split).encode())
        return digest.digest()

    def cache_info(self) -> dict:
        """Hit/miss counters and occupancy of the candidate-score cache."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "size": len(self._cache),
            "capacity": self._cache_size,
        }

    def _load_cache(self) -> None:
        """Warm the score cache from ``cache_path`` (best-effort).

        Persisted entries are ``[hexdigest, value, tag]`` triples; the tag
        restores the score's exact scalar type (``"np"`` →
        ``np.float64``) so a warm-started run returns bit-identical floats
        to the run that populated the file. A corrupt or unreadable file
        degrades to an empty cache with a warning, never an error.
        """
        path = self._cache_path
        if path is None or self._cache_size <= 0 or not path.exists():
            return
        try:
            entries = json.loads(path.read_text())["entries"]
            # keep the newest entries when the file outgrew the capacity
            for hexdigest, value, tag in entries[-self._cache_size :]:
                key = bytes.fromhex(hexdigest)
                self._cache[key] = np.float64(value) if tag == "np" else float(value)
        except Exception as exc:
            self._cache.clear()
            warnings.warn(
                f"ignoring unreadable candidate-score cache {path} ({exc!r})",
                RuntimeWarning,
                stacklevel=2,
            )

    def _save_cache(self) -> None:
        """Persist the score cache to ``cache_path`` (atomic, best-effort)."""
        path = self._cache_path
        if path is None or self._cache_size <= 0:
            return
        entries = []
        for key, value in self._cache.items():  # oldest -> newest (LRU order)
            if isinstance(value, np.floating):
                entries.append([key.hex(), float(value), "np"])
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                entries.append([key.hex(), float(value), "py"])
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(json.dumps({"version": 1, "entries": entries}))
            tmp.replace(path)
        except OSError as exc:  # pragma: no cover - filesystem-dependent
            warnings.warn(
                f"could not persist candidate-score cache to {path} ({exc!r})",
                RuntimeWarning,
                stacklevel=2,
            )

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, candidates) -> list:
        """Score a batch of :class:`Candidate`; results in request order.

        Thread-safe: concurrent callers serialise at the batch level on
        the evaluator's lock. Candidates whose score is already cached are
        not scored again; the returned floats are bit-identical either
        way.
        """
        candidates = list(candidates)
        for cand in candidates:
            if cand.weights is not None and np.asarray(cand.weights).shape[0] != len(self):
                raise ValueError(
                    f"candidate weights are over {np.asarray(cand.weights).shape[0]} "
                    f"ingredients, evaluator pool holds {len(self)}"
                )
        with self._lock:
            if self._closed:
                raise RuntimeError("evaluator is closed")
            if not candidates:
                return []
            hits_before, misses_before = self.cache_hits, self.cache_misses
            keys = [self._cache_key(cand) for cand in candidates]
            out: list = [None] * len(candidates)
            missing: list[int] = []
            scoring: dict[bytes, int] = {}  # key -> index already being scored
            duplicate_of: dict[int, int] = {}
            for i, key in enumerate(keys):
                if key is not None and key in self._cache:
                    self._cache.move_to_end(key)
                    out[i] = self._cache[key]
                    self.cache_hits += 1
                elif key is not None and key in scoring:
                    # identical candidate earlier in this batch: score once
                    duplicate_of[i] = scoring[key]
                    self.cache_hits += 1
                else:
                    if key is not None:
                        scoring[key] = i
                        self.cache_misses += 1
                    missing.append(i)
            if missing:
                self.backend_evals += len(missing)
                with metrics.span(
                    "soup.score_batch", n=len(missing), method=current_label() or ""
                ):
                    scored = self._evaluate([candidates[i] for i in missing])
                for i, value in zip(missing, scored):
                    out[i] = value
                    key = keys[i]
                    if key is not None:
                        self._cache[key] = value
                        while len(self._cache) > self._cache_size:
                            self._cache.popitem(last=False)
            for i, source in duplicate_of.items():
                out[i] = out[source]
            if metrics.enabled:
                # per-method attribution rides the thread-local label the
                # souping context manager pushes around each method run
                method = current_label() or "unattributed"
                metrics.inc("soup.candidates", len(candidates))
                metrics.inc(f"soup.candidates.{method}", len(candidates))
                metrics.inc("soup.cache_hits", self.cache_hits - hits_before)
                metrics.inc("soup.cache_misses", self.cache_misses - misses_before)
                metrics.inc("soup.backend_evals", len(missing))
            return out

    def _evaluate(self, candidates: list[Candidate]) -> list:
        if self._model is None:
            self._model = self.pool.make_model()
        out = []
        for cand in candidates:
            state = cand.state if cand.state is not None else self.mix(cand.weights, cand.groups)
            out.append(
                score_candidate(self._model, self.graph, state, cand.split, cand.indices, cand.kind)
            )
        return out

    # -- conveniences --------------------------------------------------------

    def accuracy_of(self, weights=None, state=None, groups=None, split="val", indices=None) -> float:
        """Score one candidate (sugar around a single-element batch)."""
        return self.evaluate(
            [Candidate(weights=weights, state=state, groups=groups, split=split, indices=indices)]
        )[0]

    def final_scores(self, weights=None, state=None, groups=None) -> tuple[float, float]:
        """``(val_acc, test_acc)`` of a finished soup, as one batch."""
        return tuple(
            self.evaluate(
                [
                    Candidate(weights=weights, state=state, groups=groups, split="val"),
                    Candidate(weights=weights, state=state, groups=groups, split="test"),
                ]
            )
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Persist the score cache when a ``cache_path`` was configured
        and refuse further batches (idempotent)."""
        if not self._closed:
            self._save_cache()
        self._closed = True

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SubsetEvaluator(Evaluator):
    """View over a base evaluator restricted to a sub-pool.

    Weight vectors over the subset are zero-expanded to the base pool —
    exact in floating point (adding ``0.0 * x`` terms is lossless for
    finite values) — so rotations share the base evaluator's flat-state
    stack, model and score cache instead of building their own.
    """

    def __init__(self, base: Evaluator, indices) -> None:
        self._base = base
        self._indices = np.asarray(list(indices), dtype=np.int64)
        if len(np.unique(self._indices)) != len(self._indices):
            raise ValueError("subset indices must be unique")
        if self._indices.size and (
            self._indices.min() < 0 or self._indices.max() >= len(base)
        ):
            raise ValueError("subset indices out of range for the base pool")
        # the view delegates scoring (and therefore caching) to the base:
        # identical mixes hit one shared cache across every rotation
        super().__init__(base.pool.subset(self._indices), base.graph, cache_size=0)

    def _expand_weights(self, weights) -> np.ndarray:
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim == 1:
            full = np.zeros(len(self._base), dtype=np.float64)
        else:
            full = np.zeros((len(self._base), w.shape[1]), dtype=np.float64)
        full[self._indices] = w
        return full

    def _expand(self, cand: Candidate) -> Candidate:
        if cand.weights is None:
            return cand
        return replace(cand, weights=self._expand_weights(cand.weights))

    def evaluate(self, candidates) -> list:
        candidates = list(candidates)
        for cand in candidates:
            if cand.weights is not None and np.asarray(cand.weights).shape[0] != len(self):
                raise ValueError(
                    f"candidate weights are over {np.asarray(cand.weights).shape[0]} "
                    f"ingredients, subset holds {len(self)}"
                )
        return self._base.evaluate([self._expand(c) for c in candidates])

    def mix(self, weights: np.ndarray, groups: np.ndarray | None = None) -> dict:
        return self._base.mix(self._expand_weights(weights), groups)

    def cache_info(self) -> dict:
        """The shared cache lives on the base evaluator."""
        return self._base.cache_info()

    def close(self) -> None:
        # a view never owns the base evaluator; only mark itself closed
        self._closed = True


def make_evaluator(
    pool: IngredientPool,
    graph: Graph,
    cache_size: int = DEFAULT_SCORE_CACHE,
    cache_path=None,
) -> Evaluator:
    """Construct an evaluator for ``(pool, graph)``.

    ``cache_size`` bounds the candidate-score cache (0 disables it).
    ``cache_path`` persists that cache across runs: scores load from the
    file on construction and save back on ``close()`` — a re-run of the
    same experiment cell turns repeat evaluations into lookups while
    returning bit-identical floats.
    """
    return Evaluator(pool, graph, cache_size=cache_size, cache_path=cache_path)


@contextlib.contextmanager
def evaluation(evaluator: Evaluator | None, pool: IngredientPool, graph: Graph):
    """Resolve the evaluator a souping method runs on.

    ``None`` (the default everywhere) builds a throwaway evaluator. A caller-provided evaluator is validated
    against the method's pool/graph and **not** closed here: its owner
    (CLI, runner, benchmark) manages its lifetime across methods.
    """
    if evaluator is None:
        ev = Evaluator(pool, graph)
        try:
            yield ev
        finally:
            ev.close()
        return
    if len(evaluator) != len(pool):
        raise ValueError(
            f"evaluator pool holds {len(evaluator)} ingredients, method pool {len(pool)}"
        )
    if evaluator.graph is not graph:
        raise ValueError("evaluator was built for a different graph object")
    yield evaluator
