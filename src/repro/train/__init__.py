"""Training substrate: single-model loops and metrics."""

from .metrics import predictions, accuracy, macro_f1, confusion_matrix
from .pipeline import PrefetchPipeline
from .trainer import (
    EpochTrainState,
    TrainConfig,
    TrainResult,
    train_model,
    evaluate,
    evaluate_blocked,
    evaluate_logits,
    evaluate_rows,
)

__all__ = [
    "predictions",
    "accuracy",
    "macro_f1",
    "confusion_matrix",
    "EpochTrainState",
    "TrainConfig",
    "TrainResult",
    "PrefetchPipeline",
    "train_model",
    "evaluate",
    "evaluate_blocked",
    "evaluate_logits",
    "evaluate_rows",
]
