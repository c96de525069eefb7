"""Proximal gradient training of the correlated logistic model.

Minimizes  nll_pl + elastic_net  from the all-zeros start by iterating

    theta_{k+1} = soft_threshold(theta_k - eta * grad_smooth(theta_k), eta * lam * eps)

on one flat coordinate vector theta (beta, then alpha's upper-triangle array
when pairs are fitted; see :mod:`corrlog.objective`) with a per-coordinate
lam: lambda1 on beta coordinates and lambda2 on pairwise ones.  So one
soft-threshold, one momentum update and one difference serve both blocks, and
ILRs carry no pair block at all.  Each step is the exact minimizer of the
quadratic-plus-l1 surrogate built around theta_k.  The step size starts from
1/lipschitz_bound; each step tries twice the last step, then halves until that
surrogate majorizes the smooth part at the candidate (Scheinberg, Goldfarb &
Bai 2014), so every accepted step decreases the full objective and the step
can grow where the bound is loose.  A step makes one fused value+gradient pass
at its anchor point and one value pass per candidate, and the accepted
candidate's value becomes the next objective.  Optional two-point momentum
gives the accelerated O(1/k^2) rate; whenever an extrapolated step would
increase the objective the momentum is restarted and the step retaken
plainly, which keeps the trace monotone.

Training is deterministic: identical inputs produce bit-identical models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError
from .model import ModelParams, MultilabelDataset
from .objective import (
    Problem,
    RegularizationConfig,
    add_l1_penalty,
    check_finite_dataset,
    full_value_dense,
    pack_params,
    params_from_dense,
    smooth_grad_dense,
    smooth_value_dense,
)

MAX_BACKTRACKS = 100


@dataclass(frozen=True)
class TrainConfig:
    reg: RegularizationConfig = field(default_factory=RegularizationConfig)
    max_iters: int = 5000
    rel_tol: float = 1e-7
    accelerate: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise DataError("max_iters must be positive")
        if self.rel_tol <= 0:
            raise DataError("rel_tol must be positive")


@dataclass
class TraceRecord:
    iteration: int
    objective: float
    step_size: float
    nnz_alpha: int
    nnz_beta: int


@dataclass
class TrainTrace:
    """Per-iteration training log; the objective column is non-increasing."""

    records: list[TraceRecord] = field(default_factory=list)
    converged: bool = False

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    @property
    def iterations(self) -> int:
        return len(self.records)


def soft_threshold(u: float | np.ndarray, t: float | np.ndarray) -> float | np.ndarray:
    """Shrink toward zero by t, a scalar or one threshold per element; exact zero inside [-t, t]."""
    if (np.asarray(t) < 0).any():
        raise DataError("threshold must be nonnegative")
    u = np.asarray(u, dtype=float)
    out = np.maximum(np.abs(u) - t, 0.0)
    out *= np.sign(u)
    return out if out.ndim else float(out)


def lipschitz_bound(dataset: MultilabelDataset, reg: RegularizationConfig) -> float:
    """Safe upper bound on the smooth gradient's Lipschitz constant."""
    x_mat = dataset.feature_matrix
    max_sq_norm = float(np.max(np.einsum("ij,ij->i", x_mat, x_mat)))
    m = dataset.num_labels
    return 2.0 * max_sq_norm + 4.0 * (m - 1) + 2.0 * max(reg.lambda1, reg.lambda2)


def default_initial_step(dataset: MultilabelDataset, reg: RegularizationConfig) -> float:
    return 1.0 / lipschitz_bound(dataset, reg)


def subgradient_residual(params: ModelParams, dataset: MultilabelDataset,
                         reg: RegularizationConfig) -> float:
    """Max violation of the zero-subgradient optimality conditions.

    At an exact minimizer, nonzero coordinates satisfy
    grad_smooth + lam*eps*sign = 0 and zero coordinates satisfy
    |grad_smooth| <= lam*eps; returns the largest deviation from either.
    alpha's slots outside the strict upper triangle are zero with a zero
    gradient, so they violate nothing.
    """
    theta, problem = pack_params(params, dataset, reg)
    grad, lam_eps = smooth_grad_dense(theta, problem)[1], problem.lam * reg.epsilon
    viol = np.where(theta != 0.0, np.abs(grad + lam_eps * np.sign(theta)),
                    np.maximum(np.abs(grad) - lam_eps, 0.0))
    return float(viol.max())


def _train(dataset: MultilabelDataset, config: TrainConfig,
           fit_alpha: bool) -> tuple[ModelParams, TrainTrace]:
    check_finite_dataset(dataset)
    reg = config.reg
    if reg.lambda1 <= 0:
        raise DataError("training requires lambda1 > 0")
    if fit_alpha and reg.lambda2 <= 0:
        raise DataError("training requires lambda2 > 0")

    problem = Problem(reg, dataset.num_labels, dataset.num_features, dataset, fit_alpha)
    lam, blocks = problem.lam, problem.blocks
    eta = default_initial_step(dataset, reg)

    theta = theta_prev = np.zeros_like(lam)
    f_cur = full_value_dense(theta, problem)
    if not np.isfinite(f_cur):
        raise NumericError("objective is not finite at the zero start")
    t_momentum = 1.0

    trace = TrainTrace()

    def attempt_step(z, eta):
        """Prox step from z: try 2*eta, then halve until the surrogate majorizes.

        Returns the candidate, its step size and its full objective.
        """
        smooth_z, grad = smooth_grad_dense(z, problem)
        eta /= 0.5
        for _ in range(MAX_BACKTRACKS):
            cand = soft_threshold(z - eta * grad, (eta * lam) * reg.epsilon)
            diff = cand - z
            lin, sq = grad * diff, diff * diff
            quad, sq_sum = smooth_z, 0.0
            for block, _ in blocks:  # each block summed alone, added in block order
                quad, sq_sum = quad + float(lin[block].sum()), sq_sum + float(sq[block].sum())
            quad += sq_sum / (2.0 * eta)
            smooth_new = smooth_value_dense(cand, problem)
            if smooth_new <= quad + 1e-15 * max(1.0, abs(quad)):
                break
            eta *= 0.5
        return cand, eta, add_l1_penalty(smooth_new, cand, problem)

    for k in range(config.max_iters):
        if config.accelerate and k > 0:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum * t_momentum))
            omega = (t_momentum - 1.0) / t_next
            z = theta + omega * (theta - theta_prev)
            t_momentum = t_next
        else:
            z = theta

        new_theta, eta, f_new = attempt_step(z, eta)

        if f_new > f_cur and (z is not theta):
            # momentum overshot: restart and retake the step from the current point
            t_momentum = 1.0
            new_theta, eta, f_new = attempt_step(theta, eta)

        if not np.isfinite(f_new):
            raise NumericError(f"objective became non-finite at iteration {k}")

        if f_new > f_cur:
            # No descent available: float-level stagnation at the optimum, or
            # a line search out of halvings.  Stop without accepting the candidate.
            if abs(f_new - f_cur) < config.rel_tol * max(1.0, abs(f_cur)):
                trace.converged = True
            break

        theta_prev, theta = theta, new_theta
        nnz_beta = int(np.count_nonzero(theta[blocks[0][0]]))
        record = TraceRecord(iteration=k, objective=f_new, step_size=eta,
                             nnz_alpha=int(np.count_nonzero(theta)) - nnz_beta, nnz_beta=nnz_beta)
        trace.records.append(record)

        if abs(f_cur - f_new) < config.rel_tol * max(1.0, abs(f_cur)):
            trace.converged = True
            break
        f_cur = f_new

    return params_from_dense(theta, problem), trace


def train_corrlog(dataset: MultilabelDataset, config: TrainConfig) -> tuple[ModelParams, TrainTrace]:
    """Fit the full pairwise model from the all-zeros initialization."""
    return _train(dataset, config, fit_alpha=True)


def train_ilrs(dataset: MultilabelDataset, config: TrainConfig) -> tuple[ModelParams, TrainTrace]:
    """Fit independent logistic regressions: the pairwise weights stay frozen at zero."""
    return _train(dataset, config, fit_alpha=False)
