"""Training objective: negative log pseudo-likelihood with elastic-net penalty.

The pseudo-likelihood replaces the intractable joint likelihood by the product
of each label's conditional given the remaining labels, so the partition
function never appears.  The full objective splits as

    full = nll_pl + lambda1*(||beta||_2^2 + eps*||beta||_1)
                  + lambda2*(||alpha||_2^2 + eps*||alpha||_1)

whose smooth part (everything except the l1 terms) has the closed-form
gradient implemented here.  Pairwise gradients are materialized for all
m(m-1)/2 candidate pairs so the proximal step can activate or kill any pair.
:func:`smooth_grad_dense` returns the smooth value together with both
gradients from one activation pass, so an optimizer step reads the data once
at its anchor point.  The loss and each penalty are written once and shared
by every value function, so all of them agree bit for bit.  Each loss term
softplus(z) and its slope sigmoid(z) are built from one shared exp(-|z|).

The ``*_dense`` functions take beta (m x D) and the strict upper triangle of
alpha (m x m), the coordinates the optimizer moves, one per pair; the others
take :class:`~corrlog.model.ModelParams`, whose alpha is the full symmetric
matrix, and read the data arrays of :class:`~corrlog.model.MultilabelDataset`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .model import ModelParams, MultilabelDataset


@dataclass(frozen=True)
class RegularizationConfig:
    """Elastic-net weights: lambda1 on beta, lambda2 on alpha, epsilon on the l1 part."""

    lambda1: float = 0.001
    lambda2: float = 0.001
    epsilon: float = 1.0

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0 or self.epsilon < 0:
            raise DataError("regularization weights must be nonnegative")


def params_from_dense(beta: np.ndarray, alpha_upper: np.ndarray,
                      num_features: int) -> ModelParams:
    """Build ModelParams from beta and the strict upper triangle of alpha."""
    upper = np.triu(alpha_upper, 1)
    return ModelParams(beta=beta.copy(), alpha=upper + upper.T,
                       num_labels=beta.shape[0], num_features=num_features)


def _activations(beta: np.ndarray, alpha_upper: np.ndarray,
                 x_mat: np.ndarray, y_mat: np.ndarray) -> np.ndarray:
    """n x m activations: a[l, i] = <beta_i, x_l> + sum_{j != i} alpha_{ij} y_{lj}."""
    alpha_sym = alpha_upper + alpha_upper.T
    return x_mat @ beta.T + y_mat @ alpha_sym


def _neg_margins(beta: np.ndarray, alpha_upper: np.ndarray,
                 x_mat: np.ndarray, y_mat: np.ndarray) -> np.ndarray:
    """n x m values -2 y a: each term's loss is softplus of it, its slope a sigmoid."""
    return -2.0 * y_mat * _activations(beta, alpha_upper, x_mat, y_mat)


def _mean_loss(neg_margins: np.ndarray, exp_neg_abs: np.ndarray | None = None) -> float:
    """Mean over instances of the summed per-label conditional negative log-probs.

    ``exp_neg_abs`` is exp(-|neg_margins|), computed here unless given.
    """
    if exp_neg_abs is None:
        exp_neg_abs = np.exp(-np.abs(neg_margins))
    # -log sigmoid(2 y a) = softplus(z) = max(z, 0) + log1p(exp(-|z|)) at z = -2 y a,
    # the formula np.logaddexp(0, z) evaluates, stable for any score magnitude
    return float((np.maximum(neg_margins, 0.0) + np.log1p(exp_neg_abs)).sum(axis=1).mean())


def _slope(neg_margins: np.ndarray, exp_neg_abs: np.ndarray) -> np.ndarray:
    """sigmoid(z) from exp(-|z|); the same exp inputs as model.sigmoid, so the same bits."""
    return np.where(neg_margins >= 0, 1.0, exp_neg_abs) / (1.0 + exp_neg_abs)


def add_quadratic_penalty(value: float, beta: np.ndarray, alpha_upper: np.ndarray,
                          reg: RegularizationConfig) -> float:
    """value + lambda1*||beta||_2^2 + lambda2*||alpha||_2^2, added in that order."""
    return (
        value
        + reg.lambda1 * float(np.sum(beta * beta))
        + reg.lambda2 * float(np.sum(alpha_upper * alpha_upper))
    )


def add_l1_penalty(value: float, beta: np.ndarray, alpha_upper: np.ndarray,
                   reg: RegularizationConfig) -> float:
    """value + lambda1*eps*||beta||_1 + lambda2*eps*||alpha||_1, added in that order."""
    return (
        value
        + reg.lambda1 * reg.epsilon * float(np.sum(np.abs(beta)))
        + reg.lambda2 * reg.epsilon * float(np.sum(np.abs(alpha_upper)))
    )


def smooth_value_dense(beta: np.ndarray, alpha_upper: np.ndarray,
                       x_mat: np.ndarray, y_mat: np.ndarray,
                       reg: RegularizationConfig) -> float:
    loss = _mean_loss(_neg_margins(beta, alpha_upper, x_mat, y_mat))
    return add_quadratic_penalty(loss, beta, alpha_upper, reg)


def full_value_dense(beta: np.ndarray, alpha_upper: np.ndarray,
                     x_mat: np.ndarray, y_mat: np.ndarray,
                     reg: RegularizationConfig) -> float:
    smooth = smooth_value_dense(beta, alpha_upper, x_mat, y_mat, reg)
    return add_l1_penalty(smooth, beta, alpha_upper, reg)


def smooth_grad_dense(beta: np.ndarray, alpha_upper: np.ndarray,
                      x_mat: np.ndarray, y_mat: np.ndarray,
                      reg: RegularizationConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """Smooth value and its gradients wrt beta and (upper-triangular) alpha, from one pass.

    The value is bit-identical to :func:`smooth_value_dense` at the same point.
    """
    n = x_mat.shape[0]
    neg_margins = _neg_margins(beta, alpha_upper, x_mat, y_mat)
    exp_neg_abs = np.exp(-np.abs(neg_margins))
    value = add_quadratic_penalty(_mean_loss(neg_margins, exp_neg_abs), beta, alpha_upper, reg)
    # xi[l, i] = -2 y_li * sigmoid(-2 y_li a_li), the per-term loss derivative
    xi = -2.0 * y_mat * _slope(neg_margins, exp_neg_abs)
    grad_beta = (xi.T @ x_mat) / n + 2.0 * reg.lambda1 * beta
    pair = xi.T @ y_mat
    grad_alpha = np.triu(pair + pair.T, 1) / n + 2.0 * reg.lambda2 * alpha_upper
    return value, grad_beta, grad_alpha


def neg_log_pseudo_likelihood(params: ModelParams, dataset: MultilabelDataset) -> float:
    """Mean negative log pseudo-likelihood over the dataset; always >= 0."""
    _check_model_data(params, dataset)
    return _mean_loss(_neg_margins(params.beta, np.triu(params.alpha, 1),
                                   dataset.feature_matrix, dataset.label_matrix))


def elastic_net_penalty(params: ModelParams, reg: RegularizationConfig) -> float:
    """lambda1*(||beta||_2^2 + eps*||beta||_1) + lambda2*(||alpha||_2^2 + eps*||alpha||_1)."""
    upper = np.triu(params.alpha, 1)
    return add_l1_penalty(add_quadratic_penalty(0.0, params.beta, upper, reg),
                          params.beta, upper, reg)


def smooth_objective(params: ModelParams, dataset: MultilabelDataset,
                     reg: RegularizationConfig) -> float:
    """Pseudo-likelihood plus only the quadratic penalty terms (epsilon plays no role)."""
    _check_model_data(params, dataset)
    return smooth_value_dense(params.beta, np.triu(params.alpha, 1),
                              dataset.feature_matrix, dataset.label_matrix, reg)


def full_objective(params: ModelParams, dataset: MultilabelDataset,
                   reg: RegularizationConfig) -> float:
    """The quantity training minimizes: pseudo-likelihood plus elastic-net penalty."""
    _check_model_data(params, dataset)
    return full_value_dense(params.beta, np.triu(params.alpha, 1),
                            dataset.feature_matrix, dataset.label_matrix, reg)


def smooth_gradient(params: ModelParams, dataset: MultilabelDataset,
                    reg: RegularizationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of :func:`smooth_objective`: (grad_beta, grad_alpha_upper).

    grad_alpha_upper is m x m; its strict upper triangle holds the gradient of
    every candidate pair (i, j), i < j, including pairs whose weight is zero.
    """
    _check_model_data(params, dataset)
    return smooth_grad_dense(params.beta, np.triu(params.alpha, 1),
                             dataset.feature_matrix, dataset.label_matrix, reg)[1:]


def _check_model_data(params: ModelParams, dataset: MultilabelDataset) -> None:
    if params.num_features != dataset.num_features or params.num_labels != dataset.num_labels:
        raise DataError(
            f"model dimensions ({params.num_labels} labels, {params.num_features} features) "
            f"do not match dataset ({dataset.num_labels} labels, {dataset.num_features} features)"
        )


def check_finite_dataset(dataset: MultilabelDataset) -> None:
    """Raise :class:`NumericError` naming the first instance with non-finite features."""
    x_mat = dataset.feature_matrix
    bad = ~np.isfinite(x_mat)
    if bad.any():
        idx = int(np.nonzero(bad.any(axis=1))[0][0])
        raise NumericError(f"instance {idx} has non-finite feature values")
