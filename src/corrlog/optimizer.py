"""Proximal gradient training of the correlated logistic model.

Minimizes  nll_pl + elastic_net  from the all-zeros start by iterating

    theta_{k+1} = soft_threshold(theta_k - eta * grad_smooth(theta_k), eta * lam * eps)

with the threshold eta*lambda1*eps on beta coordinates and eta*lambda2*eps on
pairwise coordinates: the exact minimizer of the quadratic-plus-l1 surrogate
built around theta_k.  The step size starts from 1/lipschitz_bound; each step
tries twice the last step, then halves until that surrogate majorizes the
smooth part at the candidate (Scheinberg, Goldfarb & Bai 2014), so every
accepted step decreases the full objective and the step can grow where the
bound is loose.  A step makes one fused value+gradient pass at its anchor
point and one value pass per candidate, and the accepted candidate's value
becomes the next objective.  Optional two-point momentum gives the
accelerated O(1/k^2) rate; whenever an extrapolated step would increase the
objective the momentum is restarted and the step retaken plainly, which keeps
the trace monotone.

Training is deterministic: identical inputs produce bit-identical models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataError, NumericError
from .model import ModelParams, MultilabelDataset
from .objective import (
    RegularizationConfig,
    add_l1_penalty,
    check_finite_dataset,
    full_value_dense,
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


ProgressSink = Callable[[TraceRecord], None]


def soft_threshold(u: float | np.ndarray, t: float) -> float | np.ndarray:
    """Shrink toward zero by t; exact zero inside [-t, t]."""
    if t < 0:
        raise DataError("threshold must be nonnegative")
    u = np.asarray(u, dtype=float)
    out = np.sign(u) * np.maximum(np.abs(u) - t, 0.0)
    return out if out.ndim else float(out)


def lipschitz_bound(dataset: MultilabelDataset, reg: RegularizationConfig) -> float:
    """Safe upper bound on the smooth gradient's Lipschitz constant."""
    x_mat = dataset.feature_matrix
    max_sq_norm = float(np.max(np.einsum("ij,ij->i", x_mat, x_mat)))
    m = dataset.num_labels
    return 2.0 * max_sq_norm + 4.0 * (m - 1) + 2.0 * max(reg.lambda1, reg.lambda2)


def default_initial_step(dataset: MultilabelDataset, reg: RegularizationConfig) -> float:
    return 1.0 / lipschitz_bound(dataset, reg)


def _prox_dense(beta, alpha_upper, grad_beta, grad_alpha, eta, reg):
    new_beta = soft_threshold(beta - eta * grad_beta, eta * reg.lambda1 * reg.epsilon)
    new_alpha = soft_threshold(alpha_upper - eta * grad_alpha, eta * reg.lambda2 * reg.epsilon)
    return new_beta, np.triu(new_alpha, 1)


def subgradient_residual(params: ModelParams, dataset: MultilabelDataset,
                         reg: RegularizationConfig) -> float:
    """Max violation of the zero-subgradient optimality conditions.

    At an exact minimizer, nonzero coordinates satisfy
    grad_smooth + lam*eps*sign = 0 and zero coordinates satisfy
    |grad_smooth| <= lam*eps; returns the largest deviation from either.
    """
    alpha_upper = np.triu(params.alpha, 1)
    _, gb, ga = smooth_grad_dense(
        params.beta, alpha_upper, dataset.feature_matrix, dataset.label_matrix, reg,
    )

    def coord_violation(theta, grad, lam_eps):
        nonzero = theta != 0.0
        viol_nz = np.abs(grad + lam_eps * np.sign(theta))[nonzero]
        viol_z = np.maximum(np.abs(grad) - lam_eps, 0.0)[~nonzero]
        parts = [v.max() for v in (viol_nz, viol_z) if v.size]
        return max(parts) if parts else 0.0

    m = params.num_labels
    iu = np.triu_indices(m, 1)
    return max(
        coord_violation(params.beta.ravel(), gb.ravel(), reg.lambda1 * reg.epsilon),
        coord_violation(alpha_upper[iu], ga[iu], reg.lambda2 * reg.epsilon) if iu[0].size else 0.0,
    )


def _train(dataset: MultilabelDataset, config: TrainConfig, fit_alpha: bool,
           progress: ProgressSink | None) -> tuple[ModelParams, TrainTrace]:
    check_finite_dataset(dataset)
    reg = config.reg
    if reg.lambda1 <= 0:
        raise DataError("training requires lambda1 > 0")
    if fit_alpha and reg.lambda2 <= 0:
        raise DataError("training requires lambda2 > 0")

    x_mat, y_mat = dataset.feature_matrix, dataset.label_matrix
    m, d = dataset.num_labels, dataset.num_features
    eta = default_initial_step(dataset, reg)

    beta = np.zeros((m, d))
    alpha = np.zeros((m, m))
    beta_prev, alpha_prev = beta, alpha
    f_cur = full_value_dense(beta, alpha, x_mat, y_mat, reg)
    if not np.isfinite(f_cur):
        raise NumericError("objective is not finite at the zero start")
    t_momentum = 1.0

    trace = TrainTrace()

    def attempt_step(zb, za, eta):
        """Prox step from (zb, za): try 2*eta, then halve until the surrogate majorizes.

        Returns the candidate, its step size and its full objective.
        """
        smooth_z, gb, ga = smooth_grad_dense(zb, za, x_mat, y_mat, reg)
        if not fit_alpha:
            ga = np.zeros_like(ga)
        eta /= 0.5
        for _ in range(MAX_BACKTRACKS):
            nb, na = _prox_dense(zb, za, gb, ga, eta, reg)
            db, da = nb - zb, na - za
            quad = (
                smooth_z
                + float(np.sum(gb * db)) + float(np.sum(ga * da))
                + (float(np.sum(db * db)) + float(np.sum(da * da))) / (2.0 * eta)
            )
            smooth_new = smooth_value_dense(nb, na, x_mat, y_mat, reg)
            if smooth_new <= quad + 1e-15 * max(1.0, abs(quad)):
                break
            eta *= 0.5
        return nb, na, eta, add_l1_penalty(smooth_new, nb, na, reg)

    for k in range(config.max_iters):
        if config.accelerate and k > 0:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum * t_momentum))
            omega = (t_momentum - 1.0) / t_next
            zb = beta + omega * (beta - beta_prev)
            za = alpha + omega * (alpha - alpha_prev)
            t_momentum = t_next
        else:
            zb, za = beta, alpha

        new_beta, new_alpha, eta, f_new = attempt_step(zb, za, eta)

        if f_new > f_cur and (zb is not beta):
            # momentum overshot: restart and retake the step from the current point
            t_momentum = 1.0
            new_beta, new_alpha, eta, f_new = attempt_step(beta, alpha, eta)

        if not np.isfinite(f_new):
            raise NumericError(f"objective became non-finite at iteration {k}")

        if f_new > f_cur:
            # No descent available: float-level stagnation at the optimum, or
            # a line search out of halvings.  Stop without accepting the candidate.
            if abs(f_new - f_cur) < config.rel_tol * max(1.0, abs(f_cur)):
                trace.converged = True
            break

        beta_prev, alpha_prev = beta, alpha
        beta, alpha = new_beta, new_alpha

        record = TraceRecord(
            iteration=k,
            objective=f_new,
            step_size=eta,
            nnz_alpha=int(np.count_nonzero(alpha)),
            nnz_beta=int(np.count_nonzero(beta)),
        )
        trace.records.append(record)
        if progress is not None:
            progress(record)

        if abs(f_cur - f_new) < config.rel_tol * max(1.0, abs(f_cur)):
            f_cur = f_new
            trace.converged = True
            break
        f_cur = f_new

    return params_from_dense(beta, alpha, d), trace


def train_corrlog(dataset: MultilabelDataset, config: TrainConfig,
                  progress: ProgressSink | None = None) -> tuple[ModelParams, TrainTrace]:
    """Fit the full pairwise model from the all-zeros initialization."""
    return _train(dataset, config, fit_alpha=True, progress=progress)


def train_ilrs(dataset: MultilabelDataset, config: TrainConfig,
               progress: ProgressSink | None = None) -> ModelParams:
    """Fit independent logistic regressions: the pairwise weights stay frozen at zero."""
    params, _ = _train(dataset, config, fit_alpha=False, progress=progress)
    return params
