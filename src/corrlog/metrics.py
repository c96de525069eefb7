"""Multilabel evaluation measures over {-1,+1} label vectors.

Positive-set conventions: an example whose true and predicted positive sets
are both empty scores 1 on Jaccard accuracy and example-F1 (and 0 when exactly
one side is empty, which the formulas already give).  A label with no true and
no predicted positives across the whole evaluation set contributes F1 = 1 to
macro-F1 and is flagged as degenerate in the report.

Every measure comes from four counts of positives: per example, the shared
ones and both sides' summed (the union is their difference); per label, the
true ones and the true plus predicted ones (2 tp + fp + fn).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .model import check_signs

DISPLAY_NAMES = {
    "hamming_loss": "Hamming loss",
    "zero_one_loss": "0-1 loss",
    "accuracy": "Accuracy",
    "f1_example": "F1-Score",
    "macro_f1": "Macro-F1",
    "micro_f1": "Micro-F1",
}
METRIC_NAMES = tuple(DISPLAY_NAMES)  # in report order


@dataclass(frozen=True)
class MetricsReport:
    hamming_loss: float
    zero_one_loss: float
    accuracy: float
    f1_example: float
    macro_f1: float
    micro_f1: float
    n_eval: int
    degenerate_labels: tuple[int, ...] = field(default=())

    def as_dict(self) -> dict:
        """The eval document: the six measures and the number of rows scored."""
        return {name: getattr(self, name) for name in (*METRIC_NAMES, "n_eval")}


def _positives(vectors, what: str) -> np.ndarray:
    """The ``== 1`` mask of a matrix of -1/+1 label vectors; anything else is a DataError."""
    try:
        mat = np.asarray(vectors)
    except ValueError as exc:  # ragged rows
        raise DataError(f"{what} must be a list of equal-length label vectors") from exc
    if mat.ndim != 2:
        raise DataError(f"{what} must be a list of equal-length label vectors")
    return check_signs(mat, f"{what} entries") == 1


def compute_metrics(y_true, y_pred) -> MetricsReport:
    """Six standard multilabel measures of predictions against ground truth."""
    true_pos = _positives(y_true, "y_true")
    pred_pos = _positives(y_pred, "y_pred")
    if true_pos.shape != pred_pos.shape:
        raise DataError(
            f"shape mismatch: y_true {true_pos.shape} vs y_pred {pred_pos.shape}"
        )
    n, m = true_pos.shape
    if n == 0 or m == 0:
        raise DataError("need at least one example and one label")

    shared = true_pos & pred_pos
    inter = shared.sum(axis=1)
    size_sum = true_pos.sum(axis=1) + pred_pos.sum(axis=1)
    union = size_sum - inter
    tp = shared.sum(axis=0)
    denom = true_pos.sum(axis=0) + pred_pos.sum(axis=0)  # 2 tp + fp + fn
    pooled_denom = int(denom.sum())
    return MetricsReport(
        hamming_loss=float((union - inter).sum() / (n * m)),
        zero_one_loss=float((inter < union).mean()),
        # both sets empty -> perfect agreement on this example
        accuracy=float(np.where(union > 0, inter / np.maximum(union, 1), 1.0).mean()),
        f1_example=float(np.where(size_sum > 0, 2 * inter / np.maximum(size_sum, 1), 1.0).mean()),
        macro_f1=float(np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 1.0).mean()),
        micro_f1=float(2 * tp.sum() / pooled_denom) if pooled_denom > 0 else 1.0,
        n_eval=n,
        degenerate_labels=tuple(int(j) for j in np.nonzero(denom == 0)[0]),
    )
