"""Dataset loading, feature preparation, and synthetic data generation.

Two on-disk formats are supported:

* ``dense-csv``: a header naming feature and label columns separated by a
  single ``|`` (e.g. ``f1,f2|l1,l2``), then plain CSV rows.  Labels on disk
  may use {0,1} or {-1,+1}; internally everything is {-1,+1}.
* ``sparse-multilabel``: LIBSVM-style lines ``<pos-labels> idx:val idx:val``
  where ``<pos-labels>`` is a comma-separated list of 1-based positive label
  indices (omitted entirely when no label is positive) and feature indices
  are 1-based.

Feature preparation follows the model's instance-space convention ||x|| <= 1:
``global-max-norm`` divides every vector by the largest training-set l2 norm,
and the optional bias column appends a constant after normalization, then
rescales the augmented vector by 1/sqrt(2) so the norm bound still holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError
from .model import ModelParams, MultilabelDataset

_LABEL_SYMBOLS = {"0": -1, "1": 1, "-1": -1, "+1": 1}


@dataclass(frozen=True)
class DatasetSpec:
    """How to read a dataset file and prepare its features."""

    format: str = "dense-csv"
    num_labels: int | None = None
    num_features: int | None = None
    normalization: str = "none"
    add_bias: bool = False

    def __post_init__(self):
        if self.format not in ("dense-csv", "sparse-multilabel"):
            raise DataError(f"unknown dataset format {self.format!r}")
        if self.normalization not in ("none", "global-max-norm"):
            raise DataError(f"unknown normalization {self.normalization!r}")


@dataclass(frozen=True)
class ToySpec:
    """Two-label synthetic problem on the unit disc with correlated labels."""

    n_train: int = 500
    n_test: int = 500
    eta1: tuple[float, float, float] = (1.0, 1.0, -0.5)
    eta2: tuple[float, float, float] = (-1.0, 1.0, -0.5)
    seed: int = 0

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 1:
            raise DataError("toy splits must contain at least one example")


def _read_text(path) -> list[str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"file is not valid UTF-8 text: {exc}") from exc


def _parse_label(token: str, line_no: int) -> int:
    token = token.strip()
    if token not in _LABEL_SYMBOLS:
        raise ParseError(f"unknown label symbol {token!r}", line_no)
    return _LABEL_SYMBOLS[token]


def _parse_float(token: str, line_no: int, what: str = "feature") -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise ParseError(f"non-numeric {what} {token.strip()!r}", line_no) from exc
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what} {token.strip()!r}", line_no)
    return value


def _load_dense(lines: list[str]) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    header_no = None
    for idx, line in enumerate(lines, start=1):
        if line.strip():
            header_no = idx
            break
    if header_no is None:
        raise ParseError("file contains no header line")
    header = lines[header_no - 1]
    if header.count("|") != 1:
        raise ParseError("header must contain exactly one '|' between feature and label names", header_no)
    feat_part, label_part = header.split("|")
    feature_names = [s.strip() for s in feat_part.split(",") if s.strip()]
    label_names = [s.strip() for s in label_part.split(",") if s.strip()]
    if not feature_names or not label_names:
        raise ParseError("header must name at least one feature and one label column", header_no)
    n_feat, n_lab = len(feature_names), len(label_names)

    features, labels = [], []
    for line_no in range(header_no + 1, len(lines) + 1):
        line = lines[line_no - 1]
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != n_feat + n_lab:
            raise ParseError(
                f"expected {n_feat + n_lab} columns, found {len(cells)}", line_no
            )
        features.append(np.array([_parse_float(c, line_no) for c in cells[:n_feat]]))
        labels.append([_parse_label(c, line_no) for c in cells[n_feat:]])
    if not features:
        raise ParseError("file contains no data rows")
    return np.array(features), np.array(labels, dtype=np.int8), tuple(label_names)


def _load_sparse(lines: list[str], spec: DatasetSpec) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    rows: list[tuple[int, list[int], dict[int, float]]] = []
    max_label = 0
    max_feature = 0
    for line_no, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        tokens = line.split()
        positives: list[int] = []
        feature_tokens = tokens
        if tokens and ":" not in tokens[0]:
            feature_tokens = tokens[1:]
            for part in tokens[0].split(","):
                if not part.strip():
                    raise ParseError("empty entry in label list", line_no)
                try:
                    idx = int(part)
                except ValueError as exc:
                    raise ParseError(f"bad label index {part!r}", line_no) from exc
                if idx < 1:
                    raise ParseError(f"label indices are 1-based, got {idx}", line_no)
                positives.append(idx)
        values: dict[int, float] = {}
        for token in feature_tokens:
            if token.count(":") != 1:
                raise ParseError(f"bad feature token {token!r}", line_no)
            idx_part, val_part = token.split(":")
            try:
                idx = int(idx_part)
            except ValueError as exc:
                raise ParseError(f"bad feature index {idx_part!r}", line_no) from exc
            if idx < 1:
                raise ParseError(f"feature indices are 1-based, got {idx}", line_no)
            if idx in values:
                raise ParseError(f"duplicate feature index {idx}", line_no)
            values[idx] = _parse_float(val_part, line_no)
        max_label = max(max_label, max(positives, default=0))
        max_feature = max(max_feature, max(values, default=0))
        rows.append((line_no, positives, values))

    if not rows:
        raise ParseError("file contains no data rows")
    m = spec.num_labels if spec.num_labels is not None else max_label
    d = spec.num_features if spec.num_features is not None else max_feature
    if m < 1:
        raise ParseError("cannot infer the label count: no positive labels and no num_labels given")
    if d < 1:
        raise ParseError("cannot infer the feature count: no features and no num_features given")

    labels = np.full((len(rows), m), -1, dtype=np.int8)
    features = np.zeros((len(rows), d))
    for r, (line_no, positives, values) in enumerate(rows):
        for idx in positives:
            if idx > m:
                raise ParseError(f"label index {idx} exceeds label count {m}", line_no)
            labels[r, idx - 1] = 1
        for idx, val in values.items():
            if idx > d:
                raise ParseError(f"feature index {idx} exceeds feature count {d}", line_no)
            features[r, idx - 1] = val
    return features, labels, tuple(f"label{i + 1}" for i in range(m))


def compute_feature_scale(dataset: MultilabelDataset) -> float:
    """Largest instance l2 norm; the shared constant for global-max-norm."""
    return float(np.max(np.linalg.norm(dataset.feature_matrix, axis=1)))


def scale_features(dataset: MultilabelDataset, scale: float) -> MultilabelDataset:
    """Divide every feature vector by one shared positive constant."""
    if scale <= 0:
        raise DataError("feature scale must be positive")
    return MultilabelDataset(dataset.features / scale, dataset.labels, dataset.label_names)


def add_bias_column(dataset: MultilabelDataset) -> MultilabelDataset:
    """Append a constant feature, rescaling by 1/sqrt(2) to keep ||x|| <= 1."""
    root_half = 1.0 / math.sqrt(2.0)
    n, d = dataset.features.shape
    features = np.empty((n, d + 1))
    np.multiply(dataset.features, root_half, out=features[:, :d])
    features[:, d] = root_half
    return MultilabelDataset(features, dataset.labels, dataset.label_names)


def load_dataset(path, spec: DatasetSpec, *, feature_scale: float | None = None) -> MultilabelDataset:
    """Read a dataset file and apply the spec's normalization and bias handling.

    ``feature_scale`` overrides the normalization constant so a test set can
    reuse the scale computed on its training set.
    """
    lines = _read_text(path)
    if spec.format == "dense-csv":
        features, labels, label_names = _load_dense(lines)
    else:
        features, labels, label_names = _load_sparse(lines, spec)
    dataset = MultilabelDataset(features, labels, label_names)
    if spec.normalization == "global-max-norm":
        scale = feature_scale if feature_scale is not None else compute_feature_scale(dataset)
        if scale > 0:
            dataset = scale_features(dataset, scale)
    if spec.add_bias:
        dataset = add_bias_column(dataset)
    return dataset


def write_dense_csv(dataset: MultilabelDataset, path) -> None:
    """Write a dataset in the dense-csv format with full-precision features."""
    feature_names = ",".join(f"f{i + 1}" for i in range(dataset.num_features))
    lines = [f"{feature_names}|{','.join(dataset.label_names)}"]
    for x, y in zip(dataset.features.tolist(), dataset.labels.tolist()):
        feats = ",".join(repr(v) for v in x)
        labels = ",".join(str(v) for v in y)
        lines.append(f"{feats},{labels}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def generate_toy(spec: ToySpec) -> tuple[MultilabelDataset, MultilabelDataset]:
    """Sample the correlated two-label toy problem.

    Instances are uniform on the unit disc.  With the augmented point
    xt = (x1, x2, 1): the first label is sign(<eta1, xt>) and the second is
    OR(y1, sign(<eta2, xt>)), so (+1, -1) can never occur.
    """
    rng = np.random.default_rng(spec.seed)
    total = spec.n_train + spec.n_test
    radii = np.sqrt(rng.uniform(size=total))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=total)
    xs = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    xt = np.column_stack([xs, np.ones(total)])

    # signs with ties to +1; the second label is +1 wherever the first is
    pos1 = xt @ np.asarray(spec.eta1) >= 0
    pos2 = pos1 | (xt @ np.asarray(spec.eta2) >= 0)
    labels = np.where(np.stack([pos1, pos2], axis=1), 1, -1).astype(np.int8)

    names = ("label1", "label2")
    train = MultilabelDataset(xs[: spec.n_train], labels[: spec.n_train], names)
    test = MultilabelDataset(xs[spec.n_train:], labels[spec.n_train:], names)
    return train, test


def sample_from_model(params: ModelParams, n: int, seed: int) -> MultilabelDataset:
    """Draw n instances with x uniform in the unit ball and y ~ p(y|x; params).

    Labels are sampled exactly by enumerating all 2^m configurations, so the
    label count must stay small (m <= 16).
    """
    m, d = params.num_labels, params.num_features
    if m > 16:
        raise DataError(f"exact sampling enumerates 2^m outcomes; m={m} is too large")
    rng = np.random.default_rng(seed)

    bits = (np.arange(2 ** m)[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1
    configs = (1 - 2 * bits).astype(float)  # bit 0 -> +1, bit 1 -> -1
    pair_scores = 0.5 * np.einsum("ci,ij,cj->c", configs, params.alpha, configs)

    features = np.empty((n, d))
    labels = np.empty((n, m), dtype=np.int8)
    for r in range(n):
        v = rng.normal(size=d)
        x = v / np.linalg.norm(v) * rng.uniform() ** (1.0 / d)
        scores = configs @ (params.beta @ x) + pair_scores
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        features[r] = x
        labels[r] = configs[rng.choice(2 ** m, p=probs)]
    return MultilabelDataset(features, labels, tuple(f"label{i + 1}" for i in range(m)))
