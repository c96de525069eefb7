"""Dataset loading, feature preparation, and synthetic data generation.

Two on-disk formats are supported:

* ``dense-csv``: a header naming feature and label columns separated by a
  single ``|`` (e.g. ``f1,f2|l1,l2``), then plain CSV rows.  Labels on disk
  may use {0,1} or {-1,+1}; internally everything is {-1,+1}.
* ``sparse-multilabel``: LIBSVM-style lines ``<pos-labels> idx:val idx:val``
  where ``<pos-labels>`` is a comma-separated list of 1-based positive label
  indices (omitted entirely when no label is positive) and feature indices
  are 1-based.  Every index is a run of ASCII decimal digits.

A file is decoded from UTF-8, then a leading byte-order mark is dropped.
A dense file's non-blank lines are numbered in one pass: the first is the
header, and the data rows after it are converted by one ``np.loadtxt`` call,
which reads a cell as ``float()`` does; rows it finds irregular (``_dense_rows``)
are parsed again one by one, which raises the first error with its line.
A sparse file is parsed a fixed block of lines at a time: each line is split
once, and the feature tokens of the block are split at their colon, converted
and checked together as arrays, so the per-token strings held at once stay
bounded.  The tokens are joined by spaces once; each has exactly one colon
when the colon and space bytes of that text alternate, starting with a colon.
numpy converts the indices once each is known to be ASCII digits; it
saturates at 2**63 - 1, so a block holding that value is converted again
exactly by ``int``.  A block with any irregularity is parsed again line by
line, which raises the first error in reading order with its whole-file line
number; tests use that per-line parser as the reference.  The features of a
sparse file are kept as CSR rows (``CsrRows``): training densifies them once,
through ``feature_matrix``, and scoring reads one dense slice of rows at a time.

Feature preparation follows the model's instance-space convention ||x|| <= 1:
``scale_features`` divides every vector by the training set's largest l2 norm
(``compute_feature_scale``), and ``add_bias_column`` appends a constant, then
rescales the augmented vector by 1/sqrt(2) so the norm bound still holds; a
test set reuses its training set's scale.  Both steps act on the stored values
only, a sparse file's entries or a dense array, with the same two roundings.
``load_dataset`` prepares a file with its own scale, the largest row norm of
its dense rows, computed ``model.DECODE_CHUNK_FLOATS`` floats at a time.  Labels
drawn from a model's p(y | x) come from ``inference.sample_from_model``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError
from .model import (DECODE_CHUNK_FLOATS, CsrRows, MultilabelDataset, _allocate, check_seed,
                    default_label_names)

FORMATS = ("dense-csv", "sparse-multilabel")
NORMALIZATIONS = ("none", "global-max-norm")
_LABEL_SYMBOLS = {"0": -1, "1": 1, "-1": -1, "+1": 1}
_ROOT_HALF = 1.0 / math.sqrt(2.0)
_BLOCK_LINES = 256  # lines of a sparse file parsed together
_MAX_INDEX = 2**63 - 1
# the toy problem's two label rules, over the augmented point (x1, x2, 1)
TOY_ETA1 = (1.0, 1.0, -0.5)
TOY_ETA2 = (-1.0, 1.0, -0.5)


@dataclass(frozen=True)
class DatasetSpec:
    """How to read a dataset file and prepare its features."""

    format: str = "dense-csv"
    num_labels: int | None = None
    num_features: int | None = None
    normalization: str = "none"
    add_bias: bool = False

    def __post_init__(self):
        if self.format not in FORMATS:
            raise DataError(f"unknown dataset format {self.format!r}")
        if self.normalization not in NORMALIZATIONS:
            raise DataError(f"unknown normalization {self.normalization!r}")
        for field in ("num_labels", "num_features"):
            value = getattr(self, field)
            if value is not None and self.format != "sparse-multilabel":
                raise DataError(f"{field} is for sparse-multilabel files only")
            if value is not None and value < 1:
                raise DataError(f"{field} must be at least 1, got {value}")


@dataclass(frozen=True)
class ToySpec:
    """Two-label synthetic problem on the unit disc with correlated labels."""

    n_train: int = 500
    n_test: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 1:
            raise DataError("toy splits must contain at least one example")
        check_seed(self.seed)


def _read_text(path) -> list[str]:
    """The file's lines, decoded from UTF-8, less a leading byte-order mark.

    The raw bytes are dropped before the text is split, so the file is held
    at most twice over.  A decoding error counts bytes from the file's start.
    """
    with open(path, "rb") as fh:
        try:
            lines = fh.read().decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"file is not valid UTF-8 text: {exc}") from exc
    if lines and lines[0].startswith("\ufeff"):
        lines[0] = lines[0][1:]
    return lines


def _parse_label(token: str, line_no: int) -> int:
    token = token.strip()
    if token not in _LABEL_SYMBOLS:
        raise ParseError(f"unknown label symbol {token!r}", line_no)
    return _LABEL_SYMBOLS[token]


def _parse_float(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise ParseError(f"non-numeric feature {token.strip()!r}", line_no) from exc
    if not math.isfinite(value):
        raise ParseError(f"non-finite feature {token.strip()!r}", line_no)
    return value


def _load_dense(lines: list[str]) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    numbered = [(line_no, line) for line_no, line in enumerate(lines, start=1) if line.strip()]
    if not numbered:
        raise ParseError("file contains no header line")
    (header_no, header), *numbered = numbered
    if header.count("|") != 1:
        raise ParseError("header must contain exactly one '|' between feature and label names", header_no)
    feat_part, label_part = header.split("|")
    feature_names = [s.strip() for s in feat_part.split(",") if s.strip()]
    label_names = [s.strip() for s in label_part.split(",") if s.strip()]
    if not feature_names or not label_names:
        raise ParseError("header must name at least one feature and one label column", header_no)
    n_feat, n_lab = len(feature_names), len(label_names)

    rows = [line for _, line in numbered]
    parsed = _dense_rows(rows, n_feat, n_lab) if rows else None  # loadtxt warns on no rows
    if parsed is not None:
        return *parsed, tuple(label_names)
    features, labels = [], []
    for line_no, line in numbered:
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


def _dense_rows(rows: list[str], n_feat: int, n_lab: int):
    """Features and labels of the data rows from one numpy call, or None if any is irregular.

    Irregular is a cell numpy refuses, a wrong column count, a label text not in
    ``_LABEL_SYMBOLS`` (numpy reads ``1.0``), a non-finite feature, or a ``"\\x1f"``,
    which numpy skips as whitespace and ``float()`` refuses.
    """
    label_texts = set()
    for row in rows:
        label_texts.update(row.rsplit(",", n_lab)[1:])
    if any(t.strip() not in _LABEL_SYMBOLS for t in label_texts) or any("\x1f" in r for r in rows):
        return None
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    if table.shape != (len(rows), n_feat + n_lab) or not np.isfinite(table[:, :n_feat]).all():
        return None
    return np.ascontiguousarray(table[:, :n_feat]), np.where(table[:, n_feat:] > 0, 1, -1).astype(np.int8)


def _parse_index(token: str, line_no: int, what: str, count: int | None) -> int:
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"bad {what} index {token!r}", line_no)
    digits = token.lstrip("0") or "0"
    try:
        idx = int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{what} index of {len(digits)} digits is too large", line_no) from None
    if idx < 1:
        raise ParseError(f"{what} indices are 1-based, got {idx}", line_no)
    if count is not None and idx > count:
        raise ParseError(f"{what} index {idx} exceeds {what} count {count}", line_no)
    if idx > _MAX_INDEX:
        raise ParseError(f"{what} index {idx} is too large", line_no)
    return idx


def _load_sparse_lines(lines: list[str], spec: DatasetSpec, first_line: int = 1):
    """Parse sparse lines one by one, raising the first error with its line number.

    Returns the same entries as ``_sparse_entries``; ``first_line`` is the
    line number of ``lines[0]`` in the file.
    """
    sizes, cols, values, label_sizes, label_idx = [], [], [], [], []
    for line_no, line in enumerate(lines, start=first_line):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        tokens = line.split()
        positives = 0
        if ":" not in tokens[0]:
            for part in tokens.pop(0).split(","):
                if not part.strip():
                    raise ParseError("empty entry in label list", line_no)
                label_idx.append(_parse_index(part, line_no, "label", spec.num_labels) - 1)
                positives += 1
        seen: set[int] = set()
        for token in tokens:
            if token.count(":") != 1:
                raise ParseError(f"bad feature token {token!r}", line_no)
            idx_part, val_part = token.split(":")
            idx = _parse_index(idx_part, line_no, "feature", spec.num_features)
            if idx in seen:
                raise ParseError(f"duplicate feature index {idx}", line_no)
            seen.add(idx)
            cols.append(idx - 1)
            values.append(_parse_float(val_part, line_no))
        sizes.append(len(tokens))
        label_sizes.append(positives)
    return (np.array(sizes, dtype=np.intp), np.array(cols, dtype=np.int64),
            np.array(values, dtype=float), np.array(label_sizes, dtype=np.intp),
            np.array(label_idx, dtype=np.int64))


def _index_array(texts: list[str]) -> np.ndarray | None:
    """The indices as int64, or None unless each is ASCII digits worth 1 to 2**63 - 1."""
    if not texts:
        return np.zeros(0, dtype=np.int64)
    digits = "".join(texts)
    if "" in texts or not (digits.isascii() and digits.isdigit()):
        return None
    indices = np.fromstring(" ".join(texts), dtype=np.int64, sep=" ")
    if indices.max() == _MAX_INDEX:  # numpy saturates there: convert again exactly
        try:
            indices = np.fromiter(map(int, texts), dtype=np.int64, count=len(texts))
        except (OverflowError, ValueError):
            return None
    return indices if indices.min() >= 1 else None


def _sparse_entries(lines: list[str], spec: DatasetSpec):
    """Parse a block of sparse lines at once, or return None if anything is irregular.

    Returns, per data row, its feature entry count, then the 0-based column
    and the value of every entry, then per data row its positive label count,
    and the 0-based index of every positive label.  Each line is split once;
    all feature tokens are then split at their colon and converted together,
    and the checks of the per-line parser run on whole arrays.
    """
    label_tokens: list[str] = []
    label_rows: list[int] = []
    feature_tokens: list[str] = []
    row_sizes: list[int] = []
    for line in lines:
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if ":" not in tokens[0]:
            label_rows.append(len(row_sizes))
            label_tokens.append(tokens.pop(0))
        feature_tokens += tokens
        row_sizes.append(len(tokens))
    n, k = len(row_sizes), len(feature_tokens)
    text = " ".join(feature_tokens)
    del feature_tokens
    # tokens hold no whitespace, so each has one colon iff colons and spaces alternate
    marks = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    if marks[(marks == ord(":")) | (marks == ord(" "))].tobytes() != (b": " * k)[:-1]:
        return None
    parts = text.replace(" ", ":").split(":") if k else []  # index and value texts alternate
    del text
    cols = _index_array(parts[0::2])
    try:
        values = np.fromiter(map(float, parts[1::2]), dtype=float, count=k)
    except ValueError:
        return None
    del parts
    label_idx = _index_array(",".join(label_tokens).split(",") if label_tokens else [])
    if cols is None or label_idx is None or not np.all(np.isfinite(values)):
        return None
    width = int(cols.max(initial=0))
    beyond = (label_idx.max(initial=0) > (spec.num_labels or _MAX_INDEX)
              or width > (spec.num_features or _MAX_INDEX))
    if beyond or n * width >= 2**63:
        return None
    cols -= 1
    if np.any(np.diff(np.sort(np.repeat(np.arange(n), row_sizes) * width + cols)) == 0):
        return None  # a feature index repeats within a row
    label_sizes = np.zeros(n, dtype=np.intp)
    label_sizes[label_rows] = [token.count(",") + 1 for token in label_tokens]
    return np.array(row_sizes, dtype=np.intp), cols, values, label_sizes, label_idx - 1


def _load_sparse(lines: list[str], spec: DatasetSpec) -> MultilabelDataset:
    """Parse a sparse file, ``_BLOCK_LINES`` lines at a time, into CSR rows and labels.

    A block that ``_sparse_entries`` finds irregular goes to the per-line
    parser, which raises the positioned error.
    """
    blocks = []
    for start in range(0, max(len(lines), 1), _BLOCK_LINES):  # an empty file is one block
        block = lines[start:start + _BLOCK_LINES]
        entries = _sparse_entries(block, spec)
        blocks.append(_load_sparse_lines(block, spec, start + 1) if entries is None else entries)
    sizes, cols, values, label_sizes, label_idx = map(np.concatenate, zip(*blocks))
    n = len(sizes)
    if n == 0:
        raise ParseError("file contains no data rows")
    m = spec.num_labels if spec.num_labels is not None else int(label_idx.max(initial=-1)) + 1
    d = spec.num_features if spec.num_features is not None else int(cols.max(initial=-1)) + 1
    if m < 1:
        raise ParseError("cannot infer the label count: no positive labels and no num_labels given")
    if d < 1:
        raise ParseError("cannot infer the feature count: no features and no num_features given")
    labels = _allocate(n, m, "labels", -1)
    labels[np.repeat(np.arange(n), label_sizes), label_idx] = 1
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(sizes, out=indptr[1:])
    return MultilabelDataset(CsrRows(indptr, cols, values, (n, d)), labels, default_label_names(m))


def compute_feature_scale(dataset: MultilabelDataset) -> float:
    """Largest instance l2 norm; the shared constant for global-max-norm.

    A norm too large for a float is inf, which ``scale_features`` refuses.
    """
    rows = max(1, DECODE_CHUNK_FLOATS // max(dataset.num_features, 1))
    with np.errstate(over="ignore"):
        return max(float(np.linalg.norm(dataset.features[start:start + rows], axis=1).max())
                   for start in range(0, len(dataset), rows))


def _divide(values: np.ndarray, scale: float, out: np.ndarray | None = None) -> np.ndarray:
    """values / scale; a scale that is not positive and finite, or an overflow, is refused."""
    if not 0.0 < scale < math.inf:
        raise DataError(f"feature scale must be positive and finite, got {scale!r}")
    with np.errstate(over="ignore"):
        out = np.divide(values, scale, out=out)
    if not np.isfinite(out).all():
        raise DataError(f"dividing the features by the scale {scale!r} overflows")
    return out


def scale_features(dataset: MultilabelDataset, scale: float) -> MultilabelDataset:
    """Divide every feature vector by one shared positive finite constant."""
    return dataset.map_features(lambda values, out: _divide(values, scale, out))


def add_bias_column(dataset: MultilabelDataset) -> MultilabelDataset:
    """Append a constant feature, rescaling by 1/sqrt(2) to keep ||x|| <= 1."""
    return dataset.map_features(lambda values, out: np.multiply(values, _ROOT_HALF, out=out),
                                _ROOT_HALF)


def load_dataset(path, spec: DatasetSpec) -> MultilabelDataset:
    """Read a dataset file and apply the spec's normalization and bias column."""
    lines = _read_text(path)
    dataset = (MultilabelDataset(*_load_dense(lines)) if spec.format == "dense-csv"
               else _load_sparse(lines, spec))
    scale = compute_feature_scale(dataset) if spec.normalization == "global-max-norm" else None
    return _prepare(dataset, scale, spec.add_bias)


def _prepare(dataset: MultilabelDataset, scale: float | None, add_bias: bool) -> MultilabelDataset:
    """Divide by ``scale`` unless it is None or 0, then add the bias column if asked.

    A scale of 0 comes from all-zero training features; any other scale that
    is not positive and finite is a ``DataError``.
    """
    if scale is not None and scale != 0:
        dataset = scale_features(dataset, scale)
    return add_bias_column(dataset) if add_bias else dataset


def write_dense_csv(dataset: MultilabelDataset, path) -> None:
    """Write a dataset in the dense-csv format with full-precision features."""
    feature_names = ",".join(f"f{i + 1}" for i in range(dataset.num_features))
    lines = [f"{feature_names}|{','.join(dataset.label_names)}"]
    for x, y in zip(dataset.feature_matrix.tolist(), dataset.labels.tolist()):
        feats = ",".join(repr(v) for v in x)
        labels = ",".join(str(v) for v in y)
        lines.append(f"{feats},{labels}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def generate_toy(spec: ToySpec) -> tuple[MultilabelDataset, MultilabelDataset]:
    """Sample the correlated two-label toy problem.

    Instances are uniform on the unit disc.  With the augmented point
    xt = (x1, x2, 1): the first label is sign(<TOY_ETA1, xt>) and the second is
    OR(y1, sign(<TOY_ETA2, xt>)), so (+1, -1) can never occur.
    """
    rng = np.random.default_rng(spec.seed)
    total = spec.n_train + spec.n_test
    radii = np.sqrt(rng.uniform(size=total))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=total)
    xs = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    xt = np.column_stack([xs, np.ones(total)])

    # signs with ties to +1; the second label is +1 wherever the first is
    pos1 = xt @ np.asarray(TOY_ETA1) >= 0
    pos2 = pos1 | (xt @ np.asarray(TOY_ETA2) >= 0)
    labels = np.where(np.stack([pos1, pos2], axis=1), 1, -1).astype(np.int8)

    names = ("label1", "label2")
    train = MultilabelDataset(xs[: spec.n_train], labels[: spec.n_train], names)
    test = MultilabelDataset(xs[spec.n_train:], labels[spec.n_train:], names)
    return train, test
