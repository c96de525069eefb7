"""Model documents, label-graph export, and the one JSON layout.

Every JSON document the package writes goes through ``dump_json``: standard
JSON (no ``NaN`` or ``Infinity``), 2-space indent, sorted keys and a trailing
newline.  A model document is versioned JSON.  Coefficients are stored as C99
hex floats (``float.hex()``), which round-trip bit-exactly, and keys are sorted
with a fixed layout so re-serializing a loaded document reproduces it byte
for byte.  Pairwise weights are stored as (i, j, value) triples, i < j, with
0-based indices, one per nonzero pair in row-major order.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ModelFormatError
from .model import ModelParams
from .objective import RegularizationConfig

MAGIC = "corrlog-model"
FORMAT_VERSION = 1
EDGE_THRESHOLD = 1e-8  # a label-graph edge needs |weight| above this


@dataclass
class ModelDocument:
    """Everything a model file holds: parameters, training weights, metadata."""

    params: ModelParams
    reg: RegularizationConfig
    metadata: dict = field(default_factory=dict)


def dump_json(doc) -> str:
    """``doc`` as standard JSON with 2-space indent, sorted keys and a trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def save_model(params: ModelParams, reg: RegularizationConfig,
               metadata: dict | None = None) -> str:
    """Serialize to the versioned JSON document; full precision, deterministic.

    The layout is ``dump_json``'s; the document's first two keys, alpha and beta,
    are joined as strings, and ``dump_json`` renders the rest.
    """
    rest = dump_json({
        "magic": MAGIC,
        "version": FORMAT_VERSION,
        "num_labels": params.num_labels,
        "num_features": params.num_features,
        "regularization": {
            "lambda1": reg.lambda1,
            "lambda2": reg.lambda2,
            "epsilon": reg.epsilon,
        },
        "metadata": metadata or {},
    })
    alpha = [f'[\n      {i},\n      {j},\n      "{v.hex()}"\n    ]' for i, j, v in params.pairs()]
    beta = ['[\n      "' + '",\n      "'.join(map(float.hex, row)) + '"\n    ]' if row else "[]"
            for row in params.beta.tolist()]
    return f'{{\n  "alpha": {_json_list(alpha)},\n  "beta": {_json_list(beta)},\n{rest[2:]}'


def _json_list(items: list[str]) -> str:
    """Items already laid out at depth 2 as one ``dump_json`` list at depth 1."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def load_model(document: str) -> ModelDocument:
    """Parse a model document; rejects wrong magic/version and shape mismatches."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("magic") != MAGIC:
        raise ModelFormatError("not a model document (bad magic string)")
    if doc.get("version") != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {doc.get('version')!r}, expected {FORMAT_VERSION}"
        )
    try:
        m = _integer(doc["num_labels"], "num_labels")
        d = _integer(doc["num_features"], "num_features")
        beta_rows = doc["beta"]
        alpha_triples = doc["alpha"]
        reg_doc = doc["regularization"]
    except KeyError as exc:
        raise ModelFormatError(f"model document is missing or corrupts a field: {exc}") from exc
    if not isinstance(beta_rows, list) or not all(isinstance(row, list) for row in beta_rows):
        raise ModelFormatError("beta must be a list of lists, one row of hex floats per label")
    if len(beta_rows) != m or any(len(row) != d for row in beta_rows):
        raise ModelFormatError(
            f"beta has inconsistent shape for num_labels={m}, num_features={d}"
        )
    if not isinstance(alpha_triples, list) or not all(
            isinstance(t, list) and len(t) == 3 for t in alpha_triples):
        raise ModelFormatError("alpha must be a list of [i, j, hex] triples")
    try:
        # reshaped, since zero rows alone make shape (0,), not (0, d)
        beta = np.array([list(map(float.fromhex, row)) for row in beta_rows], float).reshape(m, d)
        alpha = {(_integer(i, "a pair index"), _integer(j, "a pair index")): float.fromhex(v)
                 for i, j, v in alpha_triples}
        reg = RegularizationConfig(*(_number(reg_doc[k], k)
                                     for k in ("lambda1", "lambda2", "epsilon")))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"model document holds malformed values: {exc}") from exc
    if len(alpha) != len(alpha_triples):
        raise ModelFormatError("alpha lists a pair more than once")
    try:
        params = ModelParams(beta=beta, alpha=alpha, num_labels=m, num_features=d)
    except DataError as exc:
        raise ModelFormatError(f"model document is inconsistent: {exc}") from exc
    return ModelDocument(
        params=params, reg=reg,
        metadata=_check_metadata(doc.get("metadata", {}), params.num_labels),
    )


def _integer(value, what: str) -> int:
    """``value`` if it is a JSON integer; a float, a bool or a string is refused."""
    if type(value) is not int:
        raise ModelFormatError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """``value`` as a float if it is a JSON number; a bool or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{what} must be a JSON number, got {value!r}")
    return float(value)


def _check_metadata(metadata, num_labels: int) -> dict:
    """Reject metadata whose preparation fields or label names could not be applied."""
    if not isinstance(metadata, dict):
        raise ModelFormatError("model metadata must be a JSON object")
    scale = metadata.get("feature_scale")
    # 0.0 is what training records when every feature is zero
    if scale is not None and (isinstance(scale, bool) or not isinstance(scale, (int, float))
                              or not 0.0 <= scale <= sys.float_info.max):
        raise ModelFormatError(
            f"metadata feature_scale must be null or a finite number >= 0, got {scale!r}")
    if not isinstance(metadata.get("add_bias", False), bool):
        raise ModelFormatError(
            f"metadata add_bias must be true or false, got {metadata['add_bias']!r}")
    names = metadata.get("label_names")
    if names is not None and (not isinstance(names, list) or len(names) != num_labels
                              or not all(isinstance(name, str) for name in names)):
        raise ModelFormatError(
            f"metadata label_names must be null or a list of {num_labels} strings, got {names!r}")
    return metadata


@dataclass
class LabelGraph:
    """Undirected weighted graph over label names; one edge per retained pair."""

    nodes: tuple[str, ...]
    edges: list[dict]  # {"source", "target", "weight", "sign"}

    def to_dot(self) -> str:
        lines = ["graph label_correlations {"]
        for name in self.nodes:
            lines.append(f'  {_dot_id(name)};')
        for e in self.edges:
            lines.append(
                f'  {_dot_id(e["source"])} -- {_dot_id(e["target"])} '
                f'[weight={e["weight"]:.6g}, sign="{e["sign"]}", label="{e["signed_weight"]:+.4g}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict:
        return {"nodes": list(self.nodes), "edges": self.edges}


def _dot_id(name: str) -> str:
    """``name`` as a quoted DOT identifier, with its backslashes and double quotes escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_label_graph(params: ModelParams, label_names,
                       threshold: float = EDGE_THRESHOLD) -> LabelGraph:
    """Graph of pairwise weights: nodes for all labels, edges where |weight| > threshold."""
    label_names = tuple(label_names)
    if len(label_names) != params.num_labels:
        raise DataError(
            f"{len(label_names)} label names given for {params.num_labels} labels"
        )
    if not 0.0 <= threshold < np.inf:
        raise DataError("threshold must be finite and nonnegative")
    edges = []
    for i, j, v in params.pairs():
        if abs(v) > threshold:
            edges.append(
                {
                    "source": label_names[i],
                    "target": label_names[j],
                    "weight": abs(v),
                    "signed_weight": v,
                    "sign": "positive" if v > 0 else "negative",
                }
            )
    return LabelGraph(nodes=label_names, edges=edges)
