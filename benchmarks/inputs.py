"""Seeded synthetic inputs for the benchmark workloads.

Everything here is plain numpy and writes the on-disk formats the CLI reads
(dense CSV and LIBSVM-style sparse files, and a model document).  Nothing is
borrowed from the package: the program under test only ever sees the files.

Each generator takes a ``numpy.random.Generator`` so one ``--seed`` fixes every
input of a run.
"""

from __future__ import annotations

import json
import math

import numpy as np

ROOT_HALF = 1.0 / math.sqrt(2.0)


def label_configs(m: int) -> np.ndarray:
    """All 2^m label vectors as rows, lexicographic with +1 ordered before -1."""
    bits = (np.arange(1 << m)[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1
    return (1 - 2 * bits).astype(float)


def prepare_features(x: np.ndarray, scale: float | None, add_bias: bool) -> np.ndarray:
    """The CLI's feature preparation: divide by the scale, then append a bias.

    Matches the package's documented convention (``x / scale``, then append 1
    and multiply by 1/sqrt(2)) operation for operation, so the result is
    bit-identical to what the program decodes and trains on.
    """
    if scale is not None and scale > 0:
        x = x / scale
    if add_bias:
        x = np.hstack([x, np.ones((x.shape[0], 1))]) * ROOT_HALF
    return x


# --- generators ---------------------------------------------------------------

def latent_factor_labels(rng: np.random.Generator, n: int, m: int, d: int,
                         factors: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian features and labels correlated through unobserved factors.

    y_li = sign(<b_i, x_l> + <c_i, z_l> + o_i + noise), where the factors z_l
    are shared by all labels of a row but never written to the file, so the
    labels stay correlated after conditioning on x.
    """
    x = rng.normal(size=(n, d))
    b = rng.normal(size=(m, d)) * (1.5 / math.sqrt(d))
    loadings = rng.normal(size=(m, factors))
    offsets = rng.uniform(-1.0, 0.5, size=m)
    z = rng.normal(size=(n, factors))
    noise = 0.3 * rng.normal(size=(n, m))
    y = np.where(x @ b.T + z @ loadings.T + offsets + noise >= 0.0, 1, -1)
    return x, y.astype(np.int8)


def loopy_pairwise_model(rng: np.random.Generator, m: int, d: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """A ground-truth pairwise model on the complete graph over m labels.

    Every pair is coupled negatively, as between mutually exclusive scene
    labels, so every triangle of the graph is frustrated; beta includes a last
    column that multiplies a constant feature.
    """
    beta = rng.normal(size=(m, d + 1)) * 2.0
    beta[:, -1] = rng.uniform(-1.5, 0.5, size=m)
    alpha = -np.triu(rng.uniform(0.3, 1.0, size=(m, m)), 1)
    return beta, alpha


def sample_exact(rng: np.random.Generator, beta: np.ndarray, alpha_upper: np.ndarray,
                 x_aug: np.ndarray) -> np.ndarray:
    """Draw y ~ p(y | x) exactly by enumerating all 2^m label vectors."""
    configs = label_configs(beta.shape[0])
    pair = np.einsum("ci,ij,cj->c", configs, alpha_upper, configs)
    scores = (x_aug @ beta.T) @ configs.T + pair
    probs = np.exp(scores - scores.max(axis=1, keepdims=True))
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(size=(x_aug.shape[0], 1)) * cdf[:, -1:]
    idx = np.minimum((cdf < u).sum(axis=1), configs.shape[0] - 1)
    return configs[idx].astype(np.int8)


def scene_rows(rng: np.random.Generator, n: int, beta: np.ndarray,
               alpha_upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scene-shaped rows: Gaussian features, labels sampled from the true model."""
    d = beta.shape[1] - 1
    x = rng.normal(size=(n, d)) / math.sqrt(d)
    x_aug = np.hstack([x, np.ones((n, 1))])
    return x, sample_exact(rng, beta, alpha_upper, x_aug)


def sparse_rows(rng: np.random.Generator, n: int, d: int, nnz: int
                ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rows of (sorted 0-based column indices, values), about ``nnz`` per row.

    Values are k/1024 for integer k, so their decimal text parses back to the
    very same doubles and the oracle sees exactly what the program parses.
    """
    cols = np.sort(rng.integers(0, d, size=(n, nnz + nnz // 4)), axis=1)
    vals = rng.integers(1, 1025, size=cols.shape) / 1024.0
    keep = np.ones(cols.shape, dtype=bool)
    keep[:, 1:] = cols[:, 1:] != cols[:, :-1]
    return [(c[k], v[k]) for c, v, k in zip(cols, vals, keep)]


def densify(rows, d: int) -> np.ndarray:
    x = np.zeros((len(rows), d))
    for r, (cols, vals) in enumerate(rows):
        x[r, cols] = vals
    return x


def edge_free_labels(rng: np.random.Generator, beta: np.ndarray, x_prep: np.ndarray
                     ) -> np.ndarray:
    """Labels from an edge-free model plus logistic noise."""
    u = rng.random(size=(x_prep.shape[0], beta.shape[0]))
    noise = np.log(u) - np.log1p(-u)
    return np.where(x_prep @ beta.T + noise >= 0.0, 1, -1).astype(np.int8)


# --- writers ------------------------------------------------------------------

def write_dense_csv(path, x: np.ndarray, y: np.ndarray) -> None:
    """Write the dense-csv format with six decimals per feature."""
    d, m = x.shape[1], y.shape[1]
    header = ",".join(f"f{i + 1}" for i in range(d)) + "|" + ",".join(
        f"l{i + 1}" for i in range(m))
    lines = [header]
    for xr, yr in zip(x.tolist(), y.tolist()):
        lines.append(",".join(f"{v:.6f}" for v in xr) + "," + ",".join(str(v) for v in yr))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dense_features(path, d: int) -> np.ndarray:
    """Features exactly as written (the CLI parses the same text with float())."""
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(d), ndmin=2)


def write_sparse(path, rows, y: np.ndarray) -> None:
    """Write LIBSVM-style lines: positive labels (1-based), then idx:val pairs."""
    lines = []
    for (cols, vals), yr in zip(rows, y):
        pos = ",".join(str(i + 1) for i in np.nonzero(yr > 0)[0])
        feats = " ".join(f"{c + 1}:{v!r}" for c, v in zip(cols.tolist(), vals.tolist()))
        lines.append(f"{pos} {feats}" if pos else feats)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_model_document(path, beta: np.ndarray, metadata: dict) -> None:
    """An edge-free model document in the package's versioned hex-float layout."""
    doc = {
        "magic": "corrlog-model",
        "version": 1,
        "num_labels": int(beta.shape[0]),
        "num_features": int(beta.shape[1]),
        "beta": [[float(v).hex() for v in row] for row in beta],
        "alpha": [],
        "regularization": {"lambda1": 0.001, "lambda2": 0.001, "epsilon": 1.0},
        "metadata": metadata,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
