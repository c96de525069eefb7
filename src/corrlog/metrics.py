"""Multilabel evaluation measures over {-1,+1} label vectors.

Positive-set conventions: an example whose true and predicted positive sets
are both empty scores 1 on Jaccard accuracy and example-F1 (and 0 when exactly
one side is empty, which the formulas already give).  A label with no true and
no predicted positives across the whole evaluation set contributes F1 = 1 to
macro-F1 and is flagged as degenerate in the report.
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


def _to_label_matrix(vectors, what: str) -> np.ndarray:
    try:
        mat = np.asarray(vectors)
    except ValueError as exc:  # ragged rows
        raise DataError(f"{what} must be a list of equal-length label vectors") from exc
    if mat.ndim != 2:
        raise DataError(f"{what} must be a list of equal-length label vectors")
    return check_signs(mat, f"{what} entries").astype(int)


def compute_metrics(y_true, y_pred) -> MetricsReport:
    """Six standard multilabel measures of predictions against ground truth."""
    true_mat = _to_label_matrix(y_true, "y_true")
    pred_mat = _to_label_matrix(y_pred, "y_pred")
    if true_mat.shape != pred_mat.shape:
        raise DataError(
            f"shape mismatch: y_true {true_mat.shape} vs y_pred {pred_mat.shape}"
        )
    n, m = true_mat.shape
    if n == 0 or m == 0:
        raise DataError("need at least one example and one label")

    disagree = true_mat != pred_mat
    hamming = float(disagree.mean())
    zero_one = float(disagree.any(axis=1).mean())

    true_pos = true_mat == 1
    pred_pos = pred_mat == 1
    inter = (true_pos & pred_pos).sum(axis=1)
    union = (true_pos | pred_pos).sum(axis=1)
    size_sum = true_pos.sum(axis=1) + pred_pos.sum(axis=1)
    # both sets empty -> perfect agreement on this example
    accuracy = float(np.where(union > 0, inter / np.maximum(union, 1), 1.0).mean())
    f1_ex = float(np.where(size_sum > 0, 2 * inter / np.maximum(size_sum, 1), 1.0).mean())

    tp = (true_pos & pred_pos).sum(axis=0)
    fp = (~true_pos & pred_pos).sum(axis=0)
    fn = (true_pos & ~pred_pos).sum(axis=0)
    denom = 2 * tp + fp + fn
    degenerate = tuple(int(j) for j in np.nonzero(denom == 0)[0])
    per_label_f1 = np.where(denom > 0, 2 * tp / np.maximum(denom, 1), 1.0)
    macro_f1 = float(per_label_f1.mean())

    pooled_denom = int(denom.sum())
    micro_f1 = float(2 * tp.sum() / pooled_denom) if pooled_denom > 0 else 1.0

    return MetricsReport(
        hamming_loss=hamming,
        zero_one_loss=zero_one,
        accuracy=accuracy,
        f1_example=f1_ex,
        macro_f1=macro_f1,
        micro_f1=micro_f1,
        n_eval=n,
        degenerate_labels=degenerate,
    )
