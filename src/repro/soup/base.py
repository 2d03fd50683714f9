"""Shared souping result/record types and evaluation plumbing.

Every souping algorithm returns a :class:`SoupResult` carrying the mixed
state dict plus the three quantities the paper's evaluation tables report:
test accuracy (Table II), souping wall-time (Table III) and peak memory
(Fig. 4b). :class:`instrumented` bundles the timer and memory meter every
method runs inside, so the methods are measured identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..distributed.ingredients import IngredientPool
from ..graph.graph import Graph
from ..nn import Module
from ..profiling import MemoryMeter, Timer
from ..telemetry import metrics, pop_label, push_label
from ..train import accuracy, evaluate_logits

__all__ = ["SoupResult", "eval_state", "instrumented"]


@dataclass
class SoupResult:
    """Outcome of one souping run."""

    method: str
    state_dict: dict
    val_acc: float
    test_acc: float
    soup_time: float  # seconds spent mixing (Table III quantity)
    peak_memory: int  # bytes live during mixing (Fig. 4b quantity)
    extras: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.soup_time < 0:
            raise ValueError("soup_time cannot be negative")
        if self.peak_memory < 0:
            raise ValueError("peak_memory cannot be negative")


def eval_state(
    model: Module, state: dict, graph: Graph, split: str = "test", restore: bool = True
) -> float:
    """Accuracy of a state dict on one split of the graph.

    The model is only borrowed: its prior parameters are restored before
    returning (``restore=False`` skips the snapshot/restore round-trip for
    callers that own the model and do not care what it holds afterwards).
    """
    if split not in ("train", "val", "test"):
        raise ValueError(f"unknown split {split!r}")
    idx = {"train": graph.train_idx, "val": graph.val_idx, "test": graph.test_idx}[split]
    previous = model.state_dict() if restore else None
    model.load_state_dict(state)
    try:
        logits = evaluate_logits(model, graph)
    finally:
        if previous is not None:
            model.load_state_dict(previous)
    return accuracy(logits[idx], graph.labels[idx])


class instrumented:
    """Context manager bundling the timer + memory meter for a souping run.

    ``track_pool`` / ``track_graph`` register the resident inputs every
    method holds (ingredient states; the graph it evaluates on), then
    tensor activations accumulate automatically. Usage::

        with instrumented("gis", pool, graph) as probe:
            ...mixing...
        result_time, result_peak = probe.elapsed, probe.peak
    """

    def __init__(self, label: str, pool: IngredientPool | None = None, graph: Graph | None = None) -> None:
        self.label = label
        self._pool = pool
        self._graph = graph
        self.meter = MemoryMeter(label)
        self.timer = Timer(label)

    def __enter__(self) -> "instrumented":
        self.meter.__enter__()
        if self._pool is not None:
            self.meter.track_bytes(self._pool.state_nbytes())
        if self._graph is not None:
            self.meter.track_graph(self._graph)
        # every souping method runs inside this context, so it is the one
        # hook where telemetry learns which method drives the evaluator
        push_label(self.label)
        self._span = metrics.span(f"soup.method:{self.label}")
        self._span.__enter__()
        self.timer.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        self.timer.__exit__(*exc)
        self._span.__exit__(*exc)
        pop_label()
        self.meter.__exit__(*exc)
        return False

    @property
    def elapsed(self) -> float:
        """Seconds spent inside the context."""
        return self.timer.elapsed

    @property
    def peak(self) -> int:
        """Peak live bytes observed inside the context."""
        return self.meter.peak

    def track_graph(self, graph: Graph) -> None:
        """Register the graph's buffers as resident memory."""
        self.meter.track_graph(graph)

    def track_array(self, arr: np.ndarray) -> None:
        """Register an ndarray as resident memory."""
        self.meter.track_array(arr)

    def track_state_dict(self, state: dict) -> None:
        """Register every tensor of a state dict as resident memory."""
        self.meter.track_state_dict(state)
