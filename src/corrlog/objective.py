"""Training objective: negative log pseudo-likelihood with elastic-net penalty.

The pseudo-likelihood replaces the intractable joint likelihood by the product
of each label's conditional given the remaining labels, so the partition
function never appears.  The full objective splits as

    full = nll_pl + lambda1*(||beta||_2^2 + eps*||beta||_1)
                  + lambda2*(||alpha||_2^2 + eps*||alpha||_1)

whose smooth part (everything except the l1 terms) has the closed-form
gradient implemented here, for all m(m-1)/2 candidate pairs so the proximal
step can activate or kill any pair.  The activations, linear in theta, are a
pass's one forward product: :func:`smooth_value_dense` hands back the ones it
computed, and :func:`smooth_grad_dense` takes its point's instead of
recomputing them.  The loss and each penalty are
written once and shared by every value function, so all agree bit for bit.
Each loss term softplus(z) and its slope sigmoid(z) share one exp(-|z|).

The ``*_dense`` functions take one flat coordinate vector theta and the
:class:`Problem` that lays it out: beta (m x D) row-major, then, when pairs
are fitted, alpha's m x m upper-triangle array row-major, whose strict upper
triangle holds one coordinate per pair while the other slots stay +0.0.  The
other functions pack :class:`~corrlog.model.ModelParams` into theta and call
the same passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .model import ModelParams, MultilabelDataset, _slope


@dataclass(frozen=True)
class RegularizationConfig:
    """Elastic-net weights: lambda1 on beta, lambda2 on alpha, epsilon on the l1 part."""

    lambda1: float = 0.001
    lambda2: float = 0.001
    epsilon: float = 1.0

    def __post_init__(self):
        if not all(0.0 <= w < np.inf for w in (self.lambda1, self.lambda2, self.epsilon)):
            raise DataError("regularization weights must be finite and nonnegative")


class Problem:
    """The layout of theta and the data each pass reads, built once per training.

    ``blocks`` pairs each block's slice of theta with its lambda, beta first;
    there is no pair block without ``fit_alpha``.  ``lam`` is each coordinate's
    lambda.  Without a dataset only the penalties can be evaluated.
    """

    def __init__(self, reg: RegularizationConfig, num_labels: int, num_features: int,
                 dataset: MultilabelDataset | None = None, fit_alpha: bool = True):
        m, d = num_labels, num_features
        self.reg, self.num_labels, self.num_features = reg, m, d
        self.blocks = ((slice(0, m * d), reg.lambda1),
                       (slice(m * d, m * d + m * m), reg.lambda2))[:1 + fit_alpha]
        self.lam = np.concatenate([np.full(s.stop - s.start, lam) for s, lam in self.blocks])
        self.upper = np.triu(np.ones((m, m), dtype=bool), 1) if fit_alpha else None
        if dataset is not None:
            self.x_mat, self.y_mat = dataset.feature_matrix, dataset.label_matrix
            self.neg2y = -2.0 * self.y_mat

    def jacobi_metric(self) -> np.ndarray:
        """The smooth part's Hessian diagonal at theta = 0, where each loss term has curvature 1
        in its activation: mean x_d^2 + 2 lambda1 on beta, 2 + 2 lambda2 on the pair block."""
        m, x_sq = self.num_labels, (self.x_mat * self.x_mat).mean(axis=0)
        curv = np.concatenate([np.tile(x_sq, m), np.full(self.lam.size - m * x_sq.size, 2.0)])
        return curv + 2.0 * self.lam

    def pack(self, beta: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """theta from beta and alpha; only alpha's strict upper triangle is read."""
        return np.concatenate([beta.ravel(), np.triu(alpha, 1).ravel()][:len(self.blocks)])

    def unpack(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Views of beta (m x D) and alpha's upper-triangle array (m x m, or None)."""
        m, d = self.num_labels, self.num_features
        beta = theta[:m * d].reshape(m, d)
        return beta, None if self.upper is None else theta[m * d:].reshape(m, m)


def params_from_dense(theta: np.ndarray, problem: Problem) -> ModelParams:
    """Build ModelParams from theta: a copy of beta and the symmetric alpha."""
    beta, upper = problem.unpack(theta)
    alpha = np.zeros((problem.num_labels,) * 2) if upper is None else upper + upper.T
    return ModelParams(beta.copy(), alpha, problem.num_labels, problem.num_features)


def activations(theta: np.ndarray, problem: Problem) -> np.ndarray:
    """n x m activations a[l, i] = <beta_i, x_l> + sum_{j != i} alpha_ij y_lj, linear in theta."""
    beta, upper = problem.unpack(theta)
    act = problem.x_mat @ beta.T
    if upper is not None:
        act += problem.y_mat @ (upper + upper.T)
    return act


def _mean_loss(neg_margins: np.ndarray, exp_neg_abs: np.ndarray | None = None) -> float:
    """Mean over instances of the summed per-label conditional negative log-probs.

    ``exp_neg_abs`` is exp(-|neg_margins|), computed here unless given.
    """
    if exp_neg_abs is None:
        exp_neg_abs = np.exp(-np.abs(neg_margins))
    # -log sigmoid(2 y a) = softplus(z) = max(z, 0) + log1p(exp(-|z|)) at z = -2 y a,
    # the formula np.logaddexp(0, z) evaluates, stable for any score magnitude
    per_row = (np.maximum(neg_margins, 0.0) + np.log1p(exp_neg_abs)).sum(axis=1)
    return float(per_row.sum() / per_row.size)  # the bits of per_row.mean(), in fewer calls


def add_quadratic_penalty(value: float, theta: np.ndarray, problem: Problem) -> float:
    """value + lambda1*||beta||_2^2 + lambda2*||alpha||_2^2, added in that order."""
    sq = theta * theta
    for block, lam in problem.blocks:
        value = value + lam * float(sq[block].sum())
    return value


def add_l1_penalty(value: float, theta: np.ndarray, problem: Problem) -> float:
    """value + lambda1*eps*||beta||_1 + lambda2*eps*||alpha||_1, added in that order."""
    mag = np.abs(theta)
    for block, lam in problem.blocks:
        value = value + lam * problem.reg.epsilon * float(mag[block].sum())
    return value


def smooth_value_dense(theta: np.ndarray, problem: Problem) -> tuple[float, np.ndarray]:
    """Smooth value at theta, and theta's activations for a gradient pass there."""
    act = activations(theta, problem)
    return add_quadratic_penalty(_mean_loss(problem.neg2y * act), theta, problem), act


def full_value_dense(theta: np.ndarray, problem: Problem) -> float:
    return add_l1_penalty(smooth_value_dense(theta, problem)[0], theta, problem)


def smooth_grad_dense(theta: np.ndarray, problem: Problem,
                      act: np.ndarray) -> tuple[float, np.ndarray]:
    """Smooth value and its gradient wrt theta, given theta's activations ``act``.

    With the exact ``act``, the value is bit-identical to :func:`smooth_value_dense`.
    The gradient is +0.0 on alpha's slots outside the strict upper triangle.
    """
    neg_margins = problem.neg2y * act
    exp_neg_abs = np.exp(-np.abs(neg_margins))
    value = add_quadratic_penalty(_mean_loss(neg_margins, exp_neg_abs), theta, problem)
    # xi[l, i] = -2 y_li * sigmoid(-2 y_li a_li), the per-term loss derivative
    xi = problem.neg2y * _slope(neg_margins, exp_neg_abs)
    parts = [(xi.T @ problem.x_mat).ravel()]
    if problem.upper is not None:
        pair = xi.T @ problem.y_mat
        parts.append(np.where(problem.upper, pair + pair.T, 0.0).ravel())
    grad = np.concatenate(parts)
    grad /= problem.x_mat.shape[0]
    grad += 2.0 * problem.lam * theta
    return value, grad


def pack_params(params: ModelParams, dataset: MultilabelDataset,
                reg: RegularizationConfig) -> tuple[np.ndarray, Problem]:
    """theta for params and the Problem over dataset, after checking their dimensions."""
    if params.num_features != dataset.num_features or params.num_labels != dataset.num_labels:
        raise DataError(
            f"model dimensions ({params.num_labels} labels, {params.num_features} features) "
            f"do not match dataset ({dataset.num_labels} labels, {dataset.num_features} features)"
        )
    problem = Problem(reg, params.num_labels, params.num_features, dataset)
    return problem.pack(params.beta, params.alpha), problem


def neg_log_pseudo_likelihood(params: ModelParams, dataset: MultilabelDataset) -> float:
    """Mean negative log pseudo-likelihood over the dataset; always >= 0."""
    theta, problem = pack_params(params, dataset, RegularizationConfig())
    return _mean_loss(problem.neg2y * activations(theta, problem))


def elastic_net_penalty(params: ModelParams, reg: RegularizationConfig) -> float:
    """lambda1*(||beta||_2^2 + eps*||beta||_1) + lambda2*(||alpha||_2^2 + eps*||alpha||_1)."""
    problem = Problem(reg, params.num_labels, params.num_features)
    theta = problem.pack(params.beta, params.alpha)
    return add_l1_penalty(add_quadratic_penalty(0.0, theta, problem), theta, problem)


def smooth_objective(params: ModelParams, dataset: MultilabelDataset,
                     reg: RegularizationConfig) -> float:
    """Pseudo-likelihood plus only the quadratic penalty terms (epsilon plays no role)."""
    return smooth_value_dense(*pack_params(params, dataset, reg))[0]


def full_objective(params: ModelParams, dataset: MultilabelDataset,
                   reg: RegularizationConfig) -> float:
    """The quantity training minimizes: pseudo-likelihood plus elastic-net penalty."""
    return full_value_dense(*pack_params(params, dataset, reg))


def smooth_gradient(params: ModelParams, dataset: MultilabelDataset,
                    reg: RegularizationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of :func:`smooth_objective`: (grad_beta, grad_alpha_upper).

    grad_alpha_upper is m x m; its strict upper triangle holds the gradient of
    every candidate pair (i, j), i < j, including pairs whose weight is zero.
    """
    theta, problem = pack_params(params, dataset, reg)
    return problem.unpack(smooth_grad_dense(theta, problem, activations(theta, problem))[1])


def check_finite_dataset(dataset: MultilabelDataset) -> None:
    """Raise :class:`NumericError` naming the first instance with non-finite features."""
    x_mat = dataset.feature_matrix
    bad = ~np.isfinite(x_mat)
    if bad.any():
        idx = int(np.nonzero(bad.any(axis=1))[0][0])
        raise NumericError(f"instance {idx} has non-finite feature values")
