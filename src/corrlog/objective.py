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
computed, and :func:`smooth_grad_dense` takes its point's instead.  The loss and
each penalty are written once and shared by every value function, so all agree
bit for bit; a loss term softplus(z) and its slope sigmoid(z) share one exp(-|z|).
A value pass is 13 numpy calls and a gradient pass 22, a product counting one.

The ``*_dense`` functions take one flat vector theta and the :class:`Problem`
that lays it out: beta (m x D) row-major, then, when pairs are fitted, the
symmetric m x m alpha row-major, each pair in its two slots and +0.0 on the
diagonal.  A sum over theta is one dot product with a weight of 1 on beta and 1/2
on each alpha slot, which counts each pair once.  The other functions pack
:class:`~corrlog.model.ModelParams` into theta and call the same passes.
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

    theta is beta's m*D coordinates, then alpha's m*m block only with ``fit_alpha``.
    ``lam`` is each coordinate's lambda and ``weight`` its share in a sum (1/2 on
    alpha).  Without a dataset only the penalties can be evaluated.
    """

    def __init__(self, reg: RegularizationConfig, num_labels: int, num_features: int,
                 dataset: MultilabelDataset | None = None, fit_alpha: bool = True):
        m, d = num_labels, num_features
        self.num_labels, self.num_features = m, d
        sizes = [m * d, m * m * fit_alpha]
        self.lam = np.repeat([reg.lambda1, reg.lambda2], sizes)
        self.weight = np.repeat([1.0, 0.5], sizes)
        # the penalties' dot-product weights, and the quadratic one's gradient per theta
        self.quad_weight, self.quad_slope = self.weight * self.lam, 2.0 * self.lam
        self.l1_weight = self.quad_weight * reg.epsilon
        if dataset is not None:
            self.x_mat, self.y_mat = dataset.feature_matrix, dataset.label_matrix
            self.neg2y = -2.0 * self.y_mat
            self.neg2y_mean = self.neg2y / len(self.y_mat)  # -2y over n: the mean's slopes

    def jacobi_metric(self) -> np.ndarray:
        """The smooth part's Hessian diagonal at theta = 0, where each loss term has curvature 1
        in its activation: mean x_d^2 + 2 lambda1 on beta, 2 + 2 lambda2 on the pair block.

        Raises :class:`NumericError` naming the first feature whose mean square overflows,
        which would otherwise freeze beta at zero with steps of eta / inf.
        """
        with np.errstate(over="ignore"):
            x_sq = (self.x_mat * self.x_mat).mean(axis=0)
        if not np.isfinite(x_sq).all():
            idx = int(np.argmin(np.isfinite(x_sq)))
            raise NumericError(f"feature {idx} has a mean square that overflows; scale the features")
        curv = np.full(self.lam.size, 2.0)
        curv[:x_sq.size * self.num_labels].reshape(self.num_labels, -1)[:] = x_sq
        return curv + self.quad_slope

    def pack(self, beta: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """theta from beta and alpha; only alpha's strict upper triangle is read, and mirrored."""
        upper = np.triu(alpha, 1)
        return np.concatenate([beta.ravel(), (upper + upper.T).ravel()])[:self.lam.size]

    def unpack(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Views of beta (m x D) and alpha's symmetric block (m x m, or None)."""
        m, d = self.num_labels, self.num_features
        beta = theta[:m * d].reshape(m, d)
        return beta, theta[m * d:].reshape(m, m) if theta.size > m * d else None


def params_from_dense(theta: np.ndarray, problem: Problem) -> ModelParams:
    """Build ModelParams from theta: copies of beta and alpha."""
    beta, alpha = problem.unpack(theta)
    alpha = np.zeros((problem.num_labels,) * 2) if alpha is None else alpha.copy()
    return ModelParams(beta.copy(), alpha, problem.num_labels, problem.num_features)


def activations(theta: np.ndarray, problem: Problem) -> np.ndarray:
    """n x m activations a[l, i] = <beta_i, x_l> + sum_{j != i} alpha_ij y_lj, linear in theta."""
    beta, alpha = problem.unpack(theta)
    act = problem.x_mat.dot(beta.T)  # ndarray.dot: matmul's bits in fewer microseconds
    if alpha is not None:
        act += problem.y_mat.dot(alpha)
    return act


def _mean_loss(neg_margins: np.ndarray, exp_neg_abs: np.ndarray | None = None) -> float:
    """Mean over instances of the summed per-label conditional negative log-probs.

    ``exp_neg_abs`` is exp(-|neg_margins|), computed here unless given.
    """
    if exp_neg_abs is None:
        exp_neg_abs = np.exp(-np.abs(neg_margins))
    # -log sigmoid(2 y a) = softplus(z) = max(z, 0) + log1p(exp(-|z|)) at z = -2 y a,
    # the formula np.logaddexp(0, z) evaluates, stable for any score magnitude
    terms = np.maximum(neg_margins, 0.0)
    terms += np.log1p(exp_neg_abs)
    return float(np.add.reduce(terms, None)) / len(terms)  # terms.sum() without its wrapper


def add_quadratic_penalty(value: float, theta: np.ndarray, problem: Problem) -> float:
    """value + lambda1*||beta||_2^2 + lambda2*||alpha||_2^2."""
    return value + float(theta.dot(problem.quad_weight * theta))


def add_l1_penalty(value: float, theta: np.ndarray, problem: Problem) -> float:
    """value + lambda1*eps*||beta||_1 + lambda2*eps*||alpha||_1."""
    return value + float(problem.l1_weight.dot(np.abs(theta)))


def smooth_value_dense(theta: np.ndarray, problem: Problem) -> tuple[float, np.ndarray]:
    """Smooth value at theta, and theta's activations for a gradient pass there."""
    act = activations(theta, problem)
    return add_quadratic_penalty(_mean_loss(problem.neg2y * act), theta, problem), act


def full_value_dense(theta: np.ndarray, problem: Problem, act: np.ndarray) -> float:
    """Full objective at theta, given theta's activations ``act``."""
    smooth = add_quadratic_penalty(_mean_loss(problem.neg2y * act), theta, problem)
    return add_l1_penalty(smooth, theta, problem)


def smooth_grad_dense(theta: np.ndarray, problem: Problem,
                      act: np.ndarray) -> tuple[float, np.ndarray]:
    """Smooth value and its gradient wrt theta, given theta's activations ``act``.

    With the exact ``act``, the value is bit-identical to :func:`smooth_value_dense`.
    Both slots of a pair get that pair's gradient, and the diagonal gets +0.0.
    """
    neg_margins = problem.neg2y * act
    exp_neg_abs = np.exp(-np.abs(neg_margins))
    value = add_quadratic_penalty(_mean_loss(neg_margins, exp_neg_abs), theta, problem)
    # xi[l, i] = -2 y_li * sigmoid(-2 y_li a_li) / n, the per-term derivative of the mean
    xi = problem.neg2y_mean * _slope(neg_margins, exp_neg_abs)
    grad = np.empty_like(theta)
    grad_beta, grad_alpha = problem.unpack(grad)
    np.dot(xi.T, problem.x_mat, out=grad_beta)
    if grad_alpha is not None:
        pair = xi.T.dot(problem.y_mat)
        np.add(pair, pair.T, out=grad_alpha)
        grad_alpha.flat[::problem.num_labels + 1] = 0.0
    grad += problem.quad_slope * theta
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
    theta, problem = pack_params(params, dataset, reg)
    return full_value_dense(theta, problem, activations(theta, problem))


def smooth_gradient(params: ModelParams, dataset: MultilabelDataset,
                    reg: RegularizationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of :func:`smooth_objective`: (grad_beta, grad_alpha_upper).

    grad_alpha_upper is m x m; its strict upper triangle holds the gradient of
    every candidate pair (i, j), i < j, including pairs whose weight is zero.
    """
    theta, problem = pack_params(params, dataset, reg)
    grad = problem.unpack(smooth_grad_dense(theta, problem, activations(theta, problem))[1])
    return grad[0], np.triu(grad[1], 1)


def check_finite_dataset(dataset: MultilabelDataset) -> None:
    """Raise :class:`NumericError` naming the first instance with non-finite features."""
    x_mat = dataset.feature_matrix
    bad = ~np.isfinite(x_mat)
    if bad.any():
        idx = int(np.nonzero(bad.any(axis=1))[0][0])
        raise NumericError(f"instance {idx} has non-finite feature values")
