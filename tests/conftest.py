"""Shared test helpers: independent brute-force oracles and problem generators.

The oracle code here deliberately avoids the package's vectorized paths:
scores and probabilities are recomputed with plain Python loops so that
agreement between the two is meaningful.  The proximal-step helpers at the
end (``GradientBuffer``, ``prox_step``, ``surrogate_objective``,
``lipschitz_bound``) restate one optimizer step on ``ModelParams`` so tests
can check its majorization conditions directly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from corrlog.errors import DataError
from corrlog.inference import BeliefState
from corrlog.model import ModelParams, MultilabelDataset
from corrlog.objective import RegularizationConfig, smooth_objective
from corrlog.optimizer import soft_threshold


def oracle_score(beta, alpha_pairs, x, y) -> float:
    """Joint score recomputed with explicit loops (independent of the package)."""
    s = 0.0
    for i in range(len(y)):
        dot = 0.0
        for d in range(len(x)):
            dot += beta[i][d] * x[d]
        s += y[i] * dot
    for (i, j), v in alpha_pairs.items():
        s += v * y[i] * y[j]
    return s


def all_label_vectors(m: int):
    """All label vectors in lexicographic order with +1 before -1 per coordinate."""
    for bits in itertools.product((1, -1), repeat=m):
        yield np.array(bits, dtype=np.int8)


def alpha_pairs(params: ModelParams) -> dict[tuple[int, int], float]:
    """Nonzero pairwise weights keyed by (i, j), i < j, in row-major order."""
    m = params.num_labels
    return {(i, j): float(params.alpha[i, j])
            for i in range(m) for j in range(i + 1, m) if params.alpha[i, j] != 0.0}


def oracle_joint_table(params: ModelParams, x) -> dict[tuple[int, ...], float]:
    """Map from each label configuration to its unnormalized log-probability."""
    pairs = alpha_pairs(params)
    beta = params.beta.tolist()
    return {
        tuple(int(v) for v in y): oracle_score(beta, pairs, list(x), list(y))
        for y in all_label_vectors(params.num_labels)
    }


def oracle_conditional(params: ModelParams, x, y, i: int) -> float:
    """p(y_i | y_{-i}, x) from the brute-force joint table."""
    table = oracle_joint_table(params, x)
    y = np.asarray(y, dtype=np.int8)
    y_flip = y.copy()
    y_flip[i] = -y_flip[i]
    s_keep = table[tuple(int(v) for v in y)]
    s_flip = table[tuple(int(v) for v in y_flip)]
    # p / (p + p_flip) computed stably in log space
    return 1.0 / (1.0 + math.exp(s_flip - s_keep))


def random_params(rng: np.random.Generator, m: int, d: int, *,
                  alpha_scale: float = 1.0, density: float = 1.0) -> ModelParams:
    beta = rng.normal(size=(m, d))
    alpha = {}
    for i in range(m):
        for j in range(i + 1, m):
            if rng.uniform() < density:
                alpha[(i, j)] = float(rng.normal() * alpha_scale)
    return ModelParams(beta=beta, alpha=alpha, num_labels=m, num_features=d)


def random_dataset(rng: np.random.Generator, n: int, m: int, d: int) -> MultilabelDataset:
    features, labels = [], []
    for _ in range(n):
        x = rng.normal(size=d)
        x /= max(1.0, np.linalg.norm(x))
        features.append(x)
        labels.append(rng.choice([-1, 1], size=m))
    return MultilabelDataset(
        features=np.array(features).reshape(n, d),
        labels=np.array(labels).reshape(n, m),
        label_names=tuple(f"label{i + 1}" for i in range(m)),
    )


_STATES = np.array([1.0, -1.0])


def reference_predict_map_bp(params: ModelParams, x) -> tuple[np.ndarray, BeliefState]:
    """Per-instance loopy max-product over a dict of directed-edge messages.

    This is the package's original decoder, kept as the reference that
    ``predict_map_bp`` must match bit for bit: same neighbour order, same
    convergence tolerance, same round cap of 50, same belief accumulation order.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    m = params.num_labels
    unary = params.beta @ x  # node i carries log-potential y_i * unary[i]

    edges = [(i, j, v) for (i, j), v in alpha_pairs(params).items()]
    neighbors: dict[int, list[tuple[int, float]]] = {i: [] for i in range(m)}
    for i, j, v in edges:
        neighbors[i].append((j, v))
        neighbors[j].append((i, v))

    state = BeliefState()
    if edges:
        messages = {}
        for i, j, _ in edges:
            messages[(i, j)] = np.zeros(2)
            messages[(j, i)] = np.zeros(2)

        converged = False
        iterations = 0
        for iterations in range(1, 51):
            new_messages = {}
            max_change = 0.0
            for (src, dst), old in messages.items():
                weight = params.alpha[src, dst]
                # accumulated log-belief of src excluding what dst sent it
                src_belief = unary[src] * _STATES
                for nbr, _ in neighbors[src]:
                    if nbr != dst:
                        src_belief = src_belief + messages[(nbr, src)]
                # msg[s_dst] = max over s_src of src_belief + weight*s_src*s_dst
                pairwise = weight * np.outer(_STATES, _STATES)
                msg = (src_belief[:, None] + pairwise).max(axis=0)
                msg = msg - msg.max()
                new_messages[(src, dst)] = msg
                max_change = max(max_change, float(np.max(np.abs(msg - old))))
            messages = new_messages
            if max_change < 1e-9:
                converged = True
                break
        state.messages = messages
        state.converged = converged
        state.iterations_run = iterations
    else:
        state.converged = True

    beliefs = np.outer(unary, _STATES)
    for (src, dst), msg in state.messages.items():
        beliefs[dst] += msg
    state.beliefs = beliefs

    labels = np.where(beliefs[:, 0] >= beliefs[:, 1], 1, -1).astype(np.int8)
    return labels, state


@dataclass
class GradientBuffer:
    """Gradient of the smooth objective part.

    grad_alpha is an m x m array whose strictly upper triangle holds the
    gradient for every candidate pair (i, j), i < j, including pairs whose
    weight is zero.
    """

    grad_beta: np.ndarray
    grad_alpha: np.ndarray

    def alpha_pair(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        return float(self.grad_alpha[i, j])


def prox_step(params: ModelParams, grad: GradientBuffer, eta: float,
              reg: RegularizationConfig) -> ModelParams:
    """One proximal update; minimizer of the surrogate built at ``params``."""
    if eta <= 0:
        raise DataError("eta must be positive")
    beta = soft_threshold(params.beta - eta * grad.grad_beta, eta * reg.lambda1 * reg.epsilon)
    upper = np.triu(soft_threshold(np.triu(params.alpha, 1) - eta * grad.grad_alpha,
                                   eta * reg.lambda2 * reg.epsilon), 1)
    return ModelParams(beta, upper + upper.T, params.num_labels, params.num_features)


def surrogate_objective(candidate: ModelParams, anchor: ModelParams,
                        grad: GradientBuffer, eta: float,
                        dataset: MultilabelDataset, reg: RegularizationConfig) -> float:
    """Quadratic-plus-l1 upper model of the full objective around ``anchor``.

    smooth(anchor) + <grad, c - a> + ||c - a||^2 / (2 eta) + l1 penalties at the
    candidate.  Majorizes the full objective whenever 1/eta dominates the
    smooth gradient's Lipschitz constant, with equality at the anchor.
    """
    if eta <= 0:
        raise DataError("eta must be positive")
    db = candidate.beta - anchor.beta
    da = np.triu(candidate.alpha - anchor.alpha, 1)
    value = smooth_objective(anchor, dataset, reg)
    value += float(np.sum(grad.grad_beta * db)) + float(np.sum(db * db)) / (2.0 * eta)
    value += float(np.sum(grad.grad_alpha * da)) + float(np.sum(da * da)) / (2.0 * eta)
    value += reg.lambda1 * reg.epsilon * float(np.sum(np.abs(candidate.beta)))
    value += reg.lambda2 * reg.epsilon * float(np.sum(np.abs(np.triu(candidate.alpha, 1))))
    return value


def lipschitz_bound(dataset: MultilabelDataset, reg: RegularizationConfig) -> float:
    """Safe upper bound on the smooth gradient's Lipschitz constant."""
    x_mat = dataset.feature_matrix
    max_sq_norm = float(np.max(np.einsum("ij,ij->i", x_mat, x_mat)))
    m = dataset.num_labels
    return 2.0 * max_sq_norm + 4.0 * (m - 1) + 2.0 * max(reg.lambda1, reg.lambda2)
