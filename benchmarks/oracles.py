"""Independent oracles and output checks for the benchmark.

These recompute, in plain numpy and from the files the program wrote, what
its answers should be: the exact MAP labelling by enumeration, and the
elastic-net pseudo-likelihood objective with its zero-subgradient residual.
They never call into the package, so agreement with the program means
something; ``test_oracles.py`` cross-checks them against the package's own
``map_bruteforce``, ``full_objective`` and ``subgradient_residual``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import label_configs

ENUMERATION_LIMIT = 16
_ROW_CHUNK = 256
METRIC_NAMES = ("hamming_loss", "zero_one_loss", "accuracy", "f1_example",
                "macro_f1", "micro_f1")


class CheckFailed(Exception):
    """An output of the program is malformed or disagrees with an oracle."""


def parse_model_document(text: str) -> tuple[np.ndarray, np.ndarray, dict, dict]:
    """(beta, strictly-upper alpha, regularization, metadata) from the hex floats."""
    doc = json.loads(text)
    m, d = int(doc["num_labels"]), int(doc["num_features"])
    beta = np.array([[float.fromhex(v) for v in row] for row in doc["beta"]]).reshape(m, d)
    alpha = np.zeros((m, m))
    for i, j, v in doc["alpha"]:
        alpha[int(i), int(j)] = float.fromhex(v)
    return beta, np.triu(alpha, 1), doc["regularization"], doc["metadata"]


# --- exact MAP ------------------------------------------------------------------

def joint_scores(beta: np.ndarray, alpha_upper: np.ndarray, x: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """sum_i y_i <beta_i, x> + sum_{i<j} alpha_ij y_i y_j, one value per row."""
    y = y.astype(float)
    return np.einsum("ni,ni->n", y, x @ beta.T) + np.einsum("ni,ij,nj->n", y, alpha_upper, y)


def exact_map(beta: np.ndarray, alpha_upper: np.ndarray, x: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Exact MAP labels and their scores for every row of x.

    Ties go to the lexicographically first optimum with +1 ordered before -1,
    the rule the package documents.  A model without pairwise weights factorises
    into per-label sign decisions, which is exact for any m; a coupled model is
    enumerated and must have m <= 16.
    """
    unary = x @ beta.T
    m = beta.shape[0]
    if not np.any(alpha_upper):
        return np.where(unary >= 0.0, 1, -1).astype(np.int8), np.abs(unary).sum(axis=1)
    if m > ENUMERATION_LIMIT:
        raise ValueError(f"exact MAP enumerates 2^m label vectors; m={m} is too large")
    configs = label_configs(m)
    pair = np.einsum("ci,ij,cj->c", configs, alpha_upper, configs)
    labels = np.empty((x.shape[0], m), dtype=np.int8)
    best = np.empty(x.shape[0])
    for start in range(0, x.shape[0], _ROW_CHUNK):
        scores = unary[start:start + _ROW_CHUNK] @ configs.T + pair
        idx = np.argmax(scores, axis=1)
        labels[start:start + _ROW_CHUNK] = configs[idx]
        best[start:start + _ROW_CHUNK] = scores[np.arange(idx.size), idx]
    return labels, best


def map_quality(beta: np.ndarray, alpha_upper: np.ndarray, x: np.ndarray,
                preds: np.ndarray) -> tuple[float, float]:
    """(share of rows whose prediction is an exact MAP, mean score shortfall).

    A row counts as agreeing when its joint score is within rounding
    (1e-9 relative) of the optimum, so float-level near-ties cannot flip it.
    """
    _, best = exact_map(beta, alpha_upper, x)
    gap = best - joint_scores(beta, alpha_upper, x, preds)
    agree = gap <= 1e-9 * (1.0 + np.abs(best))
    return float(agree.mean()), float(np.maximum(gap, 0.0).mean())


# --- training objective and stationarity ----------------------------------------

def _activations(beta, alpha_upper, x, y):
    return x @ beta.T + y @ (alpha_upper + alpha_upper.T)


def pl_objective(beta: np.ndarray, alpha_upper: np.ndarray, x: np.ndarray,
                 y: np.ndarray, reg: dict) -> float:
    """Mean negative log pseudo-likelihood plus the elastic-net penalty."""
    y = y.astype(float)
    nll = np.logaddexp(0.0, -2.0 * y * _activations(beta, alpha_upper, x, y)).sum(axis=1).mean()
    l1, l2, eps = reg["lambda1"], reg["lambda2"], reg["epsilon"]
    return float(
        nll
        + l1 * (np.sum(beta * beta) + eps * np.sum(np.abs(beta)))
        + l2 * (np.sum(alpha_upper * alpha_upper) + eps * np.sum(np.abs(alpha_upper)))
    )


def pl_residual(beta: np.ndarray, alpha_upper: np.ndarray, x: np.ndarray,
                y: np.ndarray, reg: dict) -> float:
    """Largest violation of the zero-subgradient optimality conditions.

    Nonzero coordinates need grad + lam*eps*sign = 0, zero coordinates need
    |grad| <= lam*eps.
    """
    y = y.astype(float)
    n, m = y.shape
    a = _activations(beta, alpha_upper, x, y)
    # -2 y sigmoid(-2 y a), written so large activations cannot overflow
    xi = -2.0 * y * np.exp(-np.logaddexp(0.0, 2.0 * y * a))
    l1, l2, eps = reg["lambda1"], reg["lambda2"], reg["epsilon"]
    grad_beta = xi.T @ x / n + 2.0 * l1 * beta
    pair = xi.T @ y
    grad_alpha = (pair + pair.T) / n + 2.0 * l2 * alpha_upper

    def violation(theta, grad, lam_eps):
        nz = theta != 0.0
        v_nz = np.abs(grad + lam_eps * np.sign(theta))[nz]
        v_z = np.maximum(np.abs(grad) - lam_eps, 0.0)[~nz]
        return max([float(v.max()) for v in (v_nz, v_z) if v.size], default=0.0)

    iu = np.triu_indices(m, 1)
    worst = violation(beta.ravel(), grad_beta.ravel(), l1 * eps)
    if iu[0].size:
        worst = max(worst, violation(alpha_upper[iu], grad_alpha[iu], l2 * eps))
    return worst


def multilabel_losses(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[float, float]:
    """(Hamming loss, 0-1 loss)."""
    wrong = y_true != y_pred
    return float(wrong.mean()), float(wrong.any(axis=1).mean())


# --- output checks ----------------------------------------------------------------

def read_predictions(path, n: int, m: int) -> np.ndarray:
    """The predictions file must hold n rows of m labels, each -1 or +1."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != n:
        raise CheckFailed(f"predictions file has {len(lines)} rows, expected {n}")
    try:
        preds = np.array([[int(t) for t in line.split(",")] for line in lines])
    except ValueError as exc:
        raise CheckFailed(f"predictions file holds a non-integer label: {exc}") from exc
    if preds.shape != (n, m) or not np.all(np.abs(preds) == 1):
        raise CheckFailed(f"predictions must be {n} x {m} labels in {{-1, +1}}")
    return preds.astype(np.int8)


def check_cv_json(path, folds: int) -> dict:
    """Every metric must carry mean, std, one value per fold and a t-test."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for name in METRIC_NAMES:
        entry = doc.get(name)
        if not isinstance(entry, dict):
            raise CheckFailed(f"cv JSON lacks metric {name}")
        per_fold = entry.get("per_fold")
        if not isinstance(per_fold, list) or len(per_fold) != folds:
            raise CheckFailed(f"cv JSON {name} has no {folds} per-fold values")
        values = [entry.get("mean"), entry.get("std"), *per_fold]
        if not all(isinstance(v, float) and math.isfinite(v) for v in values):
            raise CheckFailed(f"cv JSON {name} holds a non-finite or missing value")
        ttest = entry.get("t_test")
        if not isinstance(ttest, dict) or not {"t_statistic", "p_value", "dof",
                                                "degenerate"} <= ttest.keys():
            raise CheckFailed(f"cv JSON {name} has no paired t-test")
        if not 0.0 <= ttest["p_value"] <= 1.0 or ttest["dof"] != folds - 1:
            raise CheckFailed(f"cv JSON {name} t-test is out of range")
    return doc


def check_eval_json(path, n: int) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    missing = [k for k in METRIC_NAMES if not isinstance(doc.get(k), float)]
    if missing or doc.get("n_eval") != n:
        raise CheckFailed(f"eval JSON lacks {missing or 'n_eval'}")
    return doc
