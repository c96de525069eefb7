"""Cross-validation, paired significance testing, and the stability check.

``cross_validate`` fits every trainer it is given on one split and one set of fold
subsets, so the fold scores of ``("corrlog", "ilrs")`` pair by construction; one trainer
alone is ``cross_validate(dataset, k, ("ilrs",), config, seed)``.  The paired t-test's
two-sided p-value comes from the Student-t CDF through the regularized incomplete beta
function, a continued fraction computed here, so the package needs no statistics library.

The stability check retrains after swapping one training example for a fresh
one and compares the parameter movement

    sum_i ||beta_i' - beta_i||_2 + sum_{i<j} |alpha_ij' - alpha_ij|

against the theoretical ceiling 16 / (min(lambda1, lambda2) * n), which holds
for exact minimizers; the report records the training tolerance used since a
loose tolerance can void the premise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
# predict_map_bp is not called here; it stays importable from this module
# because the benchmark tracer (benchmarks/spans.py) wraps it by this name.
from .inference import decode_rows, predict_map_bp  # noqa: F401
from .metrics import DISPLAY_NAMES, METRIC_NAMES, MetricsReport, compute_metrics
from .model import ModelParams, MultilabelDataset, check_seed
from .optimizer import TrainConfig, train_corrlog, train_ilrs

TRAINERS = ("corrlog", "ilrs")


# --- paired t-test -----------------------------------------------------------

_CF_TERMS, _CF_EPS, _TINY = 300, 3e-16, 1e-300  # most terms; stopping change; least |value|


def _off_zero(v: float) -> float:
    """v, or ``_TINY`` where |v| is smaller, so that Lentz's method never divides by 0."""
    return _TINY if abs(v) < _TINY else v


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta integral (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = h = 1.0 / _off_zero(1.0 - qab * x / qap)
    for m in range(1, _CF_TERMS + 1):
        m2 = 2 * m
        # one Lentz step for each of term m's two coefficients
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / _off_zero(1.0 + aa * d)
            c = _off_zero(1.0 + aa / c)
            h *= d * c
        if abs(d * c - 1.0) < _CF_EPS:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not (a > 0 and b > 0):  # NaN fails too
        raise DataError("shape parameters must be positive")
    if math.isnan(x):
        raise DataError("x must be a number")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    p_value: float
    dof: int
    degenerate: bool = False


def paired_t_test(per_fold_a, per_fold_b) -> TTestResult:
    """Two-sided paired t-test on per-fold scores of two methods.

    Zero-variance differences are flagged degenerate instead of crashing:
    identical inputs give p = 1, a deterministic nonzero shift gives p = 0.
    """
    a = np.asarray(per_fold_a, dtype=float)
    b = np.asarray(per_fold_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError("paired t-test needs two equal-length score vectors")
    k = a.size
    if k < 2:
        raise DataError("paired t-test needs at least two pairs")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DataError("paired t-test needs finite scores")
    diffs = a - b
    mean = float(diffs.mean())
    spread = float(np.max(np.abs(diffs - mean)))
    if spread <= 1e-15 * max(1.0, float(np.max(np.abs(diffs)))):
        if abs(mean) <= 1e-15:
            return TTestResult(0.0, 1.0, k - 1, degenerate=True)
        return TTestResult(math.copysign(math.inf, mean), 0.0, k - 1, degenerate=True)
    sd = float(diffs.std(ddof=1))
    t = mean / (sd / math.sqrt(k))
    dof = k - 1
    p = regularized_incomplete_beta(dof / 2.0, 0.5, dof / (dof + t * t))
    return TTestResult(t, p, dof)


# --- cross-validation --------------------------------------------------------

@dataclass
class CvResult:
    """One trainer's per-fold metric reports; k, means and stds are read off them."""

    trainer: str
    seed: int
    folds: list[MetricsReport]
    ttests: dict[str, TTestResult] | None = None

    def per_fold(self, metric: str) -> list[float]:
        return [getattr(r, metric) for r in self.folds]

    def mean_std(self, metric: str) -> tuple[float, float]:
        """Mean and sample standard deviation of ``metric`` over the folds."""
        scores = self.per_fold(metric)
        return float(np.mean(scores)), float(np.std(scores, ddof=1))

    def as_dict(self) -> dict:
        """The cv document; an infinite t-statistic (a constant nonzero shift) is None."""
        doc = {}
        for name in METRIC_NAMES:
            mean, std = self.mean_std(name)
            doc[name] = {"mean": mean, "std": std, "per_fold": self.per_fold(name)}
            if self.ttests is not None:
                tt = self.ttests[name]
                doc[name]["t_test"] = {
                    "t_statistic": tt.t_statistic if math.isfinite(tt.t_statistic) else None,
                    "p_value": tt.p_value,
                    "dof": tt.dof,
                    "degenerate": tt.degenerate,
                }
        return doc

    def to_text(self) -> str:
        lines = [f"{len(self.folds)}-fold cross-validation, trainer={self.trainer}, "
                 f"seed={self.seed}"]
        for name in METRIC_NAMES:
            mean, std = self.mean_std(name)
            row = f"  {DISPLAY_NAMES[name]:<13} {mean:.4f} +- {std:.4f}"
            if self.ttests is not None:
                tt = self.ttests[name]
                flag = " (degenerate)" if tt.degenerate else ""
                row += f"   t={tt.t_statistic:+.3f} p={tt.p_value:.4f}{flag}"
            lines.append(row)
        return "\n".join(lines)


def _subset(dataset: MultilabelDataset, indices) -> MultilabelDataset:
    return MultilabelDataset(dataset.feature_matrix[indices], dataset.labels[indices],
                             dataset.label_names)


def fold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded permutation split into k near-equal disjoint folds covering 0..n-1."""
    if k < 2:
        raise DataError("need at least 2 folds")
    if n < k:
        raise DataError(f"cannot split {n} instances into {k} folds")
    perm = np.random.default_rng(check_seed(seed)).permutation(n)
    return list(np.array_split(perm, k))


def _fit(trainer: str, train_set: MultilabelDataset, config: TrainConfig) -> ModelParams:
    if trainer == "corrlog":
        return train_corrlog(train_set, config)[0]
    if trainer == "ilrs":
        return train_ilrs(train_set, config)[0]
    raise DataError(f"unknown trainer {trainer!r}; expected one of {TRAINERS}")


def predict_dataset(params: ModelParams, dataset: MultilabelDataset) -> np.ndarray:
    """n x m predictions of every instance; ``decode_rows`` slices a chunk of rows at a
    time, so sparse rows are never made dense whole."""
    return decode_rows(params, dataset.features)


def cross_validate(dataset: MultilabelDataset, k: int, trainers: tuple[str, ...],
                   config: TrainConfig, seed: int) -> list[CvResult]:
    """Train on k-1 folds and score the held-out fold, for every fold and every trainer;
    all trainers share one split and its fold subsets, so their fold scores pair."""
    folds = fold_indices(len(dataset), k, seed)
    reports = [[] for _ in trainers]
    for held_out, test_idx in enumerate(folds):
        train_set = _subset(dataset, np.concatenate(folds[:held_out] + folds[held_out + 1:]))
        test_set = _subset(dataset, test_idx)
        for trainer, trainer_reports in zip(trainers, reports):
            preds = predict_dataset(_fit(trainer, train_set, config), test_set)
            trainer_reports.append(compute_metrics(test_set.labels, preds))
    return [CvResult(trainer, seed, r) for trainer, r in zip(trainers, reports)]


def compare_cv(result: CvResult, baseline: CvResult) -> CvResult:
    """Attach per-metric paired t-tests of ``result`` against ``baseline``, which must
    come from the same fold split: the same seed and the same held-out fold sizes."""
    if result.seed != baseline.seed or result.per_fold("n_eval") != baseline.per_fold("n_eval"):
        raise DataError("cannot pair fold scores across different fold splits")
    ttests = {
        name: paired_t_test(result.per_fold(name), baseline.per_fold(name))
        for name in METRIC_NAMES
    }
    return replace(result, ttests=ttests)


# --- stability check ---------------------------------------------------------

def params_distance(a: ModelParams, b: ModelParams) -> float:
    """Sum of per-label l2 beta-row distances plus l1 distance over pairs."""
    if a.num_labels != b.num_labels or a.num_features != b.num_features:
        raise DataError("models have different shapes")
    dist = float(np.linalg.norm(a.beta - b.beta, axis=1).sum())
    return dist + float(np.abs(np.triu(a.alpha - b.alpha, 1)).sum())


@dataclass
class StabilityReport:
    bound: float
    diffs: list[float]
    n: int
    min_lambda: float
    rel_tol: float
    replaced_indices: list[int] = field(default_factory=list)

    @property
    def max_diff(self) -> float:
        return max(self.diffs)

    @property
    def mean_diff(self) -> float:
        return float(np.mean(self.diffs))

    @property
    def all_within_bound(self) -> bool:
        return all(d <= self.bound for d in self.diffs)

    def as_dict(self) -> dict:
        return {"bound": self.bound, "n": self.n, "min_lambda": self.min_lambda,
                "rel_tol": self.rel_tol, "trials": len(self.diffs), "diffs": self.diffs,
                "max_diff": self.max_diff, "mean_diff": self.mean_diff,
                "all_within_bound": self.all_within_bound}

    def to_text(self) -> str:
        lines = [
            f"replace-one stability over {len(self.diffs)} trials "
            f"(n={self.n}, min lambda={self.min_lambda:g}, training tolerance={self.rel_tol:g})",
            f"  bound 16/(min_lambda*n) = {self.bound:.6g}",
            f"  max parameter movement  = {self.max_diff:.6g}",
            f"  mean parameter movement = {self.mean_diff:.6g}",
            f"  all within bound: {self.all_within_bound}",
        ]
        return "\n".join(lines)


def stability_experiment(dataset: MultilabelDataset, config: TrainConfig,
                         trials: int, seed: int,
                         pool: MultilabelDataset) -> StabilityReport:
    """Measure how much one swapped training example moves the fitted model.

    Each trial replaces a random training example with a random one from the
    held-out ``pool`` and retrains from the zero initialization to the same
    tolerance, so both runs approximate exact minimizers of their objectives.
    """
    if pool is None or len(pool) < 1:
        raise DataError("stability experiment needs a held-out replacement pool")
    if pool.num_features != dataset.num_features or pool.num_labels != dataset.num_labels:
        raise DataError("pool dimensions do not match the training set")
    if trials < 1:
        raise DataError("need at least one trial")
    reg = config.reg
    if reg.lambda1 <= 0 or reg.lambda2 <= 0:
        raise DataError("stability bound requires lambda1, lambda2 > 0")
    rng = np.random.default_rng(check_seed(seed))

    base_params, _ = train_corrlog(dataset, config)
    n = len(dataset)
    min_lambda = min(reg.lambda1, reg.lambda2)

    diffs = []
    replaced = []
    for _ in range(trials):
        swap_at = int(rng.integers(0, n))
        fresh = int(rng.integers(0, len(pool)))
        features, labels = dataset.feature_matrix.copy(), dataset.labels.copy()
        features[swap_at] = pool.features[fresh:fresh + 1]
        labels[swap_at] = pool.labels[fresh]
        modified = MultilabelDataset(features, labels, dataset.label_names)
        new_params, _ = train_corrlog(modified, config)
        diffs.append(params_distance(base_params, new_params))
        replaced.append(swap_at)

    return StabilityReport(bound=16.0 / (min_lambda * n), diffs=diffs, n=n, min_lambda=min_lambda,
                           rel_tol=config.rel_tol, replaced_indices=replaced)
