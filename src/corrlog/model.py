"""Correlated logistic model: parameters, datasets, and pointwise probabilities.

The model assigns a label vector y in {-1,+1}^m to a feature vector x via

    p(y | x) propto exp( sum_i y_i <beta_i, x> + sum_{i<j} alpha_ij y_i y_j ),

i.e. one logistic regression per label coupled by symmetric pairwise
interaction weights (an Ising model conditioned on x).  With all alpha_ij = 0
the model factorizes into independent logistic regressions (ILRs).

Indices are 0-based throughout.  alpha is stored as a dense symmetric m x m
array with a zero diagonal, and a dataset as one label array and one feature
store with a row per example: a dense array, or the CSR rows of a sparse file.
Either store gives a run of its rows as a dense array when sliced.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DataError, NumericError

# Floats per working array when rows are read a chunk at a time (8 MiB): each dense
# slice of rows, and the tables, unaries and labels that ``decode_rows`` makes of it.
DECODE_CHUNK_FLOATS = 1 << 20


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=float)
    out = _slope(z, np.exp(-np.abs(z)))
    return out if out.ndim else float(out)


def _slope(z: np.ndarray, exp_neg_abs: np.ndarray) -> np.ndarray:
    """sigmoid(z) from exp(-|z|), which the trainer shares with its loss terms.

    The numerator max(exp(-|z|), sign(z)) is 1 where z >= 0 and exp(-|z|) elsewhere.
    """
    return np.maximum(exp_neg_abs, np.sign(z)) / (1.0 + exp_neg_abs)


@dataclass(eq=False)
class ModelParams:
    """Learned parameters: per-label coefficients and symmetric pairwise weights.

    beta has one row per label (shape m x D).  alpha is the dense symmetric
    m x m interaction matrix with a zero diagonal; alpha[i, j] == alpha[j, i]
    is the weight of pair (i, j) and zero means the pair does not interact.
    The constructor also accepts a mapping from ordered pairs (i, j),
    0 <= i < j < m, to weights, as read from a model document.
    """

    beta: np.ndarray
    alpha: np.ndarray
    num_labels: int
    num_features: int

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        if self.beta.shape != (self.num_labels, self.num_features):
            raise DataError(
                f"beta shape {self.beta.shape} does not match "
                f"(num_labels, num_features)=({self.num_labels}, {self.num_features})"
            )
        if not np.all(np.isfinite(self.beta)):
            raise DataError("beta contains non-finite values")
        if isinstance(self.alpha, Mapping):
            self.alpha = _alpha_from_pairs(self.alpha, self.num_labels)
        self.alpha = np.asarray(self.alpha, dtype=float)
        m = self.num_labels
        if self.alpha.shape != (m, m):
            raise DataError(f"alpha shape {self.alpha.shape} does not match ({m}, {m})")
        if not np.all(np.isfinite(self.alpha)):
            raise DataError("alpha contains non-finite values")
        if np.any(np.diagonal(self.alpha) != 0.0):
            raise DataError("alpha has a nonzero diagonal: no self-interaction weights")
        if not np.array_equal(self.alpha, self.alpha.T):
            raise DataError("alpha is not symmetric")

    @classmethod
    def zeros(cls, num_labels: int, num_features: int) -> "ModelParams":
        return cls(
            beta=np.zeros((num_labels, num_features)),
            alpha=np.zeros((num_labels, num_labels)),
            num_labels=num_labels,
            num_features=num_features,
        )

    def pairs(self) -> list[tuple[int, int, float]]:
        """Nonzero pairwise weights as (i, j, weight) with i < j, in row-major order."""
        rows, cols = np.nonzero(np.triu(self.alpha, 1))
        return list(zip(rows.tolist(), cols.tolist(), self.alpha[rows, cols].tolist()))

    def nnz_alpha(self) -> int:
        return int(np.count_nonzero(self.alpha)) // 2

    def nnz_beta(self) -> int:
        return int(np.count_nonzero(self.beta))


def _alpha_from_pairs(pairs: Mapping[tuple[int, int], float], m: int) -> np.ndarray:
    alpha = np.zeros((m, m))
    for (i, j), v in pairs.items():
        if not (0 <= i < j < m):
            raise DataError(f"alpha key ({i}, {j}) is not an ordered pair in range")
        if not np.isfinite(v):
            raise DataError(f"alpha[{i}, {j}] is not finite")
        alpha[i, j] = alpha[j, i] = v
    return alpha


def _allocate(rows: int, count: int, what: str, fill: int = 0) -> np.ndarray:
    """Float zeros, or int8 labels set to ``fill``; too large an array is a DataError."""
    try:
        return np.full((rows, count), fill, np.int8) if fill else np.zeros((rows, count))
    except (MemoryError, ValueError):
        raise DataError(f"{rows} rows x {count} {what} are too many to hold in memory") from None


def check_seed(seed: int) -> int:
    """The seed itself; a negative one, which numpy's generators refuse, is a DataError."""
    if seed < 0:
        raise DataError(f"seed must be nonnegative, got {seed}")
    return seed


@dataclass(frozen=True, eq=False)
class CsrRows:
    """An n x D float matrix as compressed sparse rows.

    Row r holds ``data[indptr[r]:indptr[r + 1]]`` at the 0-based columns in the
    same slice of ``indices``, each column at most once; every other entry is 0.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __getitem__(self, rows: slice) -> np.ndarray:
        """The rows of a step-1 slice as a fresh dense float array: zeros with the
        entries written in, ``-0.0`` kept."""
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise TypeError(f"CSR rows are read by a step-1 row slice, not {rows!r}")
        start, stop, _ = rows.indices(self.shape[0])
        stop = max(start, stop)
        out = _allocate(stop - start, self.shape[1], "features")
        local = np.repeat(np.arange(stop - start), np.diff(self.indptr[start:stop + 1]))
        span = slice(self.indptr[start], self.indptr[stop])
        out[local, self.indices[span]] = self.data[span]
        return out

    def with_column(self, value: float) -> CsrRows:
        """The rows with a constant last column appended."""
        n, d = self.shape
        ends = self.indptr[1:]
        return CsrRows(self.indptr + np.arange(n + 1), np.insert(self.indices, ends, d),
                       np.insert(self.data, ends, value), (n, d + 1))


def default_label_names(m: int) -> tuple[str, ...]:
    """The names of m labels that a file does not name: label1 ... labelm."""
    return tuple(f"label{i + 1}" for i in range(m))


@dataclass(eq=False)
class MultilabelDataset:
    """n examples as n x D features and an n x m array of -1/+1 labels.

    The features are a float array or ``CsrRows``, and a row slice of either is
    a dense array; only this class and ``CsrRows`` tell the two apart.
    """

    features: np.ndarray | CsrRows
    labels: np.ndarray
    label_names: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.features, CsrRows):
            self.features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels)
        if len(self.features.shape) != 2 or labels.ndim != 2:
            raise DataError("features and labels must be 2-D arrays (one row per example)")
        if self.features.shape[0] < 1:
            raise DataError("dataset must contain at least one instance")
        if labels.shape[0] != self.features.shape[0]:
            raise DataError(
                f"{self.features.shape[0]} feature rows but {labels.shape[0]} label rows"
            )
        self.labels = check_signs(labels, "labels").astype(np.int8, copy=False)
        self.label_names = tuple(self.label_names)
        if len(self.label_names) != self.num_labels:
            raise DataError("label_names length must equal num_labels")

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_labels(self) -> int:
        return self.labels.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]

    @cached_property
    def feature_matrix(self) -> np.ndarray:
        """The n x D feature array; sparse rows are made dense once, then cached."""
        return self.features[:] if isinstance(self.features, CsrRows) else self.features

    @cached_property
    def label_matrix(self) -> np.ndarray:
        """n x m label matrix of +-1 floats (computed once, then cached)."""
        return self.labels.astype(float)

    def map_features(self, fn, column: float | None = None) -> MultilabelDataset:
        """The dataset with ``fn`` applied to its stored feature values, then a constant
        last ``column`` appended if one is given.

        ``fn(values, out)`` maps 0 to 0 and writes into ``out``, or into a new
        array when ``out`` is None.
        """
        features = self.features
        if isinstance(features, CsrRows):
            features = replace(features, data=fn(features.data, None))
            features = features if column is None else features.with_column(column)
        else:
            n, d = features.shape
            features = np.empty((n, d + (column is not None)))
            fn(self.features, features[:, :d])
            if column is not None:
                features[:, d] = column
        return MultilabelDataset(features, self.labels, self.label_names)


def check_signs(values, what: str) -> np.ndarray:
    """``values`` as an array if every entry is -1 or +1; any other entry is a DataError."""
    values = np.asarray(values)
    if not np.all((values == 1) | (values == -1)):
        raise DataError(f"{what} must be exactly -1 or +1")
    return values


def _row(params: ModelParams, x, y=None, i: int | None = None):
    """x, or (x, y), as flat float vectors of the model's feature and label counts.

    A vector of the wrong length, a non-finite feature or a label other than -1/+1 is a
    DataError, and a label index ``i`` outside [0, num_labels) an IndexError.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (params.num_features,):
        raise DataError(f"feature vector has shape {x.shape}, expected ({params.num_features},)")
    if not np.isfinite(x).all():
        raise DataError("feature vector has non-finite values")
    if y is not None:
        y = np.asarray(y, dtype=float).reshape(-1)
        if y.shape != (params.num_labels,):
            raise DataError(f"label vector has shape {y.shape}, expected ({params.num_labels},)")
        check_signs(y, "labels")
    if i is not None and not 0 <= i < params.num_labels:
        raise IndexError(f"label index {i} out of range [0, {params.num_labels})")
    return x if y is None else (x, y)


def _label_scores(params: ModelParams, x: np.ndarray, i: int | slice = slice(None)):
    """``beta[i] @ x`` (all labels' by default) for an x that ``_row`` checked; a score
    not finite is a NumericError."""
    with np.errstate(over="ignore", invalid="ignore"):
        unary = params.beta[i] @ x
    if not np.isfinite(unary).all():
        raise NumericError("x has label scores that are not finite")
    return unary


def _joint_scores(alpha: np.ndarray, y: np.ndarray, u: np.ndarray, name: str) -> np.ndarray:
    """The joint score y . (u + alpha y / 2) of each label row of y (n x m) against its
    row of unaries u (broadcast), one row's products at a time, so that a row's bits do
    not depend on the rows beside it.  A score not finite is a NumericError on ``name``."""
    with np.errstate(over="ignore", invalid="ignore"):
        field = (y[:, None, :] @ alpha)[:, 0]
        field /= 2
        field += u  # in place: two more arrays of the rows would cost more than the products
        scores = (y[:, None, :] @ field[:, :, None])[:, 0, 0]
    if not np.isfinite(scores).all():
        raise NumericError(f"{name} has label scores that are not finite")
    return scores


def joint_score(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    """Unnormalized log-probability sum_i y_i <beta_i, x> + sum_{i<j} alpha_ij y_i y_j."""
    x, y = _row(params, x, y)
    return float(_joint_scores(params.alpha, y[None], _label_scores(params, x), "x")[0])


def conditional_label_prob(
    params: ModelParams, x: np.ndarray, y: np.ndarray, i: int
) -> float:
    """p(y_i | y_{-i}, x): the logistic of twice the activation at label i.

    Equals sigmoid(2 * y_i * (<beta_i, x> + sum_{j != i} alpha_{ij} y_j)).
    """
    x, y = _row(params, x, y, i)
    # alpha's zero diagonal leaves y_i out of its own interaction field
    activation = float(_label_scores(params, x, i)) + float(params.alpha[i] @ y)
    return float(sigmoid(2.0 * float(y[i]) * activation))  # Python floats overflow to inf, silently


def ilrs_label_prob(params: ModelParams, x: np.ndarray, i: int, y_i: int) -> float:
    """Independent-logistic probability of label i, ignoring all pairwise weights."""
    x = _row(params, x, i=i)
    check_signs(y_i, "y_i")
    return float(sigmoid(2.0 * float(y_i) * float(_label_scores(params, x, i))))
