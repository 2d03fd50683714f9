"""Benchmark-side tracing for the ``--trace 1`` run.

The untraced run measures with telemetry off. The traced run turns on
:data:`repro.telemetry.metrics` and wraps a few public functions from the
outside, so each layer's busy time lands in the same registry as the
program's own counters, spans and histograms. Forked cluster workers
inherit both the wrappers and the enabled flag and ship their registry
back to the driver, so a phase's :class:`~repro.telemetry.RunReport`
holds driver and worker numbers together.
"""

from __future__ import annotations

import contextlib
import functools
import time

from repro.optim import optimizers
from repro.telemetry import RunReport, build_report, metrics
from repro.tensor import Tensor

# histogram names the wrappers record into
BACKWARD = "bench.tensor.backward_s"
OPTIM_STEP = "bench.optim.step_s"
EVALUATE = "bench.soup.evaluate_s"
MIX = "bench.soup.mix_s"


def _timed(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not metrics.enabled:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            metrics.observe(name, time.perf_counter() - t0)

    return wrapper


def _class_targets() -> list[tuple[type, str, str]]:
    """``(class, method, histogram)`` for every class-level wrapper."""
    targets = [(Tensor, "backward", BACKWARD)]
    for obj in vars(optimizers).values():
        if isinstance(obj, type) and issubclass(obj, optimizers.Optimizer) and "step" in vars(obj):
            targets.append((obj, "step", OPTIM_STEP))
    return targets


class Capture:
    """What one traced block recorded; ``report`` is set when it closes."""

    report: RunReport | None = None

    @classmethod
    def from_dicts(cls, reports: list[dict | None]) -> "Capture":
        """One capture over several single-process reports shipped as dicts
        (``None`` entries, from an untraced run, are skipped)."""
        capture = cls()
        snapshots = {str(i): data["driver"] for i, data in enumerate(reports) if data}
        capture.report = RunReport(workers=snapshots) if snapshots else None
        return capture

    def _hist(self, name: str) -> dict | None:
        return self.report.histogram_total(name) if self.report else None

    def hist_sum(self, name: str) -> float:
        hist = self._hist(name)
        return float(hist["sum"]) if hist else 0.0

    def hist_mean(self, name: str) -> float:
        hist = self._hist(name)
        return float(hist["sum"] / hist["count"]) if hist and hist["count"] else 0.0

    def counter(self, name: str) -> float:
        return float(self.report.counters_total().get(name, 0.0)) if self.report else 0.0

    def worker_span_mean(self, name: str) -> float:
        """Mean duration of span ``name`` over every worker snapshot."""
        durations = [
            span[2]
            for snap in (self.report.workers.values() if self.report else ())
            for span in snap.get("spans", ())
            if span[0] == name
        ]
        return sum(durations) / len(durations) if durations else 0.0


class Tracer:
    """Switches telemetry and the wrappers on for the blocks it traces."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._targets = _class_targets() if enabled else []

    @contextlib.contextmanager
    def traced(self, on: bool = True):
        """Trace the block when tracing is enabled and ``on``; yields a
        :class:`Capture` whose report covers exactly this block."""
        capture = Capture()
        if not (self.enabled and on):
            yield capture
            return
        originals = [(cls, attr, vars(cls)[attr]) for cls, attr, _ in self._targets]
        for (cls, attr, name), (_, _, fn) in zip(self._targets, originals):
            setattr(cls, attr, _timed(name, fn))
        metrics.reset()
        metrics.set_enabled(True)
        try:
            yield capture
        finally:
            capture.report = build_report()
            metrics.set_enabled(False)
            metrics.reset()
            for cls, attr, fn in originals:
                setattr(cls, attr, fn)

    def wrap_evaluator(self, evaluator) -> None:
        """Time one evaluator's candidate scoring and mixing; the wrappers
        record only inside a traced block and are not installed at all
        when tracing is off."""
        if self.enabled:
            evaluator.evaluate = _timed(EVALUATE, evaluator.evaluate)
            evaluator.mix = _timed(MIX, evaluator.mix)
