"""Proximal gradient training of the correlated logistic model.

Minimizes  nll_pl + elastic_net  from the all-zeros start by iterating

    z_k         = theta_k + omega_k (theta_k - theta_{k-1})
    theta_{k+1} = soft_threshold(z_k - eta * grad_smooth(z_k) / h, eta * lam * eps / h)

on one flat coordinate vector theta (beta, then alpha's upper-triangle array
when pairs are fitted; see :mod:`corrlog.objective`) with a per-coordinate
lam: lambda1 on beta coordinates and lambda2 on pairwise ones, so one
soft-threshold, one momentum update and one difference serve both blocks.
The fixed diagonal metric h is the smooth part's Hessian diagonal at theta = 0
(``Problem.jacobi_metric``), so each coordinate moves by its own curvature:
variable-metric forward-backward splitting (Combettes & Vu 2014), or the plain
method in the coordinates sqrt(h) * theta.  Each step exactly minimizes the
surrogate  smooth + <grad, d> + sum(h * d^2) / (2 eta) + l1  built around
z_k.  The dimensionless eta first tries 1, the plain Jacobi step, then halves
until that surrogate majorizes the smooth part at the candidate, so every
accepted step decreases the full objective.  The next step tries twice the
last eta (Scheinberg, Goldfarb & Bai 2014) only when the accepted step's
curvature in h, rho = (smooth_new - smooth_z - <grad, d>) / (sum(h d^2) / 2),
has rho * eta <= 1/2, so the surrogate at 2 eta would have majorized it too.
Activations are linear in theta: the momentum point's are
A_z = A_k + omega_k (A_k - A_{k-1}), and A_{k+1} comes from the accepted
candidate's value pass, so a step makes one gradient pass at z_k and one
value pass, the only forward product, per candidate.
Two-point momentum with a monotone restart is the one step rule (the O(1/k^2)
rate): omega_k = (t_k - 1) / t_{k+1} with t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2,
t_0 = 1 and z_0 = theta_0.  An extrapolated step that would increase the objective
resets t to 1 and is retaken from z_k = theta_k, with A_k, which keeps the trace monotone.

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
    activations,
    add_block_sums,
    add_l1_penalty,
    check_finite_dataset,
    full_value_dense,
    pack_params,
    params_from_dense,
    smooth_grad_dense,
    smooth_value_dense,
)

MAX_BACKTRACKS = 100
# eta before the first attempt, which always tries twice it, the plain Jacobi step; each later
# attempt tries twice the last eta only when the last step's curvature allows it
INITIAL_STEP = 0.5


@dataclass(frozen=True)
class TrainConfig:
    reg: RegularizationConfig = field(default_factory=RegularizationConfig)
    max_iters: int = 5000
    rel_tol: float = 1e-7

    def __post_init__(self):
        if self.max_iters < 1:
            raise DataError("max_iters must be positive")
        if not 0.0 < self.rel_tol < np.inf:
            raise DataError("rel_tol must be positive and finite")


@dataclass
class TraceRecord:
    iteration: int
    objective: float
    step_size: float  # eta, the dimensionless step in the metric h
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
    if not (np.asarray(t) >= 0).all():  # NaN fails too
        raise DataError("threshold must be nonnegative")
    u = np.asarray(u, dtype=float)
    out = np.maximum(np.abs(u) - t, 0.0)
    out *= np.sign(u)
    return out if out.ndim else float(out)


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
    grad = smooth_grad_dense(theta, problem, activations(theta, problem))[1]
    lam_eps = problem.lam * reg.epsilon
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

    theta = theta_prev = np.zeros_like(problem.lam)
    f_cur = full_value_dense(theta, problem)  # m log 2: X is finite and A = 0
    act = act_prev = np.zeros_like(problem.neg2y)  # the activations of theta = 0
    h, lam_eps, eta, grow = problem.jacobi_metric(), problem.lam * reg.epsilon, INITIAL_STEP, True
    t_momentum = 1.0

    trace = TrainTrace()

    def attempt_step(z, act_z, eta, grow):
        """Prox step from z, whose activations are act_z, in the metric h: try 2*eta if grow,
        else eta, then halve until the surrogate majorizes.

        Returns the candidate, its activations, its eta, its full objective and whether
        the next attempt may try twice that eta.
        """
        smooth_z, grad = smooth_grad_dense(z, problem, act_z)
        if grow:
            eta /= 0.5
        for _ in range(MAX_BACKTRACKS):
            step = eta / h
            cand = soft_threshold(z - step * grad, step * lam_eps)
            diff = cand - z
            quad = add_block_sums(smooth_z, grad * diff, problem)
            sq_sum = add_block_sums(0.0, h * diff * diff, problem)
            del step, diff  # no theta-sized temporary lives through the value pass
            smooth_new, act_new = smooth_value_dense(cand, problem)
            excess = smooth_new - quad  # rho * sq_sum / 2, rho the step's curvature in h
            quad += sq_sum / (2.0 * eta)
            if smooth_new <= quad + 1e-15 * max(1.0, abs(quad)):
                break
            eta *= 0.5
        grow = sq_sum == 0.0 or excess * eta <= 0.25 * sq_sum  # rho * eta <= 1/2
        return cand, act_new, eta, add_l1_penalty(smooth_new, cand, problem), grow

    for k in range(config.max_iters):
        z, act_z = theta, act
        if k > 0:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_momentum * t_momentum))
            omega = (t_momentum - 1.0) / t_next
            z = theta + omega * (theta - theta_prev)
            # written over A_{k-1}, which nothing reads again, to keep one n x m array fewer
            act_z = np.add(act, omega * (act - act_prev), out=act_prev)
            t_momentum = t_next

        new_theta, new_act, eta, f_new, grow = attempt_step(z, act_z, eta, grow)

        if f_new > f_cur and (z is not theta):
            # momentum overshot: restart and retake the step from the current point
            t_momentum = 1.0
            new_theta, new_act, eta, f_new, grow = attempt_step(theta, act, eta, grow)

        if not np.isfinite(f_new):
            raise NumericError(f"objective became non-finite at iteration {k}")

        trace.converged = abs(f_new - f_cur) < config.rel_tol * max(1.0, abs(f_cur))
        if f_new > f_cur:
            # No descent available: float-level stagnation at the optimum, or
            # a line search out of halvings.  Stop without accepting the candidate.
            break

        theta_prev, theta, act_prev, act = theta, new_theta, act, new_act
        nnz_beta = int(np.count_nonzero(problem.unpack(theta)[0]))
        record = TraceRecord(iteration=k, objective=f_new, step_size=eta,
                             nnz_alpha=int(np.count_nonzero(theta)) - nnz_beta, nnz_beta=nnz_beta)
        trace.records.append(record)

        if trace.converged:
            break
        f_cur = f_new

    return params_from_dense(theta, problem), trace


def train_corrlog(dataset: MultilabelDataset, config: TrainConfig) -> tuple[ModelParams, TrainTrace]:
    """Fit the full pairwise model from the all-zeros initialization."""
    return _train(dataset, config, fit_alpha=True)


def train_ilrs(dataset: MultilabelDataset, config: TrainConfig) -> tuple[ModelParams, TrainTrace]:
    """Fit independent logistic regressions: the pairwise weights stay frozen at zero."""
    return _train(dataset, config, fit_alpha=False)
