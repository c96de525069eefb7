"""Layer spans for the traced benchmark run.

The tracer wraps, from outside the package, the names each corrlog module
imports from its sibling modules (``corrlog.cli.load_dataset``,
``corrlog.evaluation.predict_map_bp``, ``corrlog.optimizer.smooth_grad_dense``
and so on), plus the two lazily built matrices of ``MultilabelDataset``.
Every call through a wrapped name records a span (name, start, end, parent)
in memory; the spans are written out once, when the run ends.  ``uninstall``
puts the original objects back, so untraced cycles run the package untouched.

A layer is a module of the package; a span's layer is the part of its name
before the dot.  A layer's self time is its spans' durations minus the parts
covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
from time import perf_counter

LAYERS = ("cli", "data", "serialize", "objective", "optimizer", "inference",
          "evaluation", "metrics")

# (module, attribute, span name).  An attribute "Class.prop" names a cached
# property of a class in that module.
WRAPPED = (
    ("corrlog.cli", "main", "cli.main"),
    ("corrlog.cli", "load_dataset", "data.load"),
    ("corrlog.cli", "compute_feature_scale", "data.prepare"),
    ("corrlog.cli", "scale_features", "data.prepare"),
    ("corrlog.cli", "add_bias_column", "data.prepare"),
    ("corrlog.cli", "load_model", "serialize.load"),
    ("corrlog.cli", "save_model", "serialize.save"),
    ("corrlog.cli", "train_corrlog", "optimizer.train"),
    ("corrlog.cli", "train_ilrs", "optimizer.train"),
    ("corrlog.cli", "predict_dataset", "evaluation.predict"),
    ("corrlog.cli", "cross_validate", "evaluation.cv"),
    ("corrlog.cli", "compare_cv", "evaluation.compare"),
    ("corrlog.cli", "compute_metrics", "metrics.compute"),
    ("corrlog.evaluation", "_subset", "data.subset"),
    ("corrlog.evaluation", "train_corrlog", "optimizer.train"),
    ("corrlog.evaluation", "train_ilrs", "optimizer.train"),
    ("corrlog.evaluation", "predict_dataset", "evaluation.predict"),
    ("corrlog.evaluation", "predict_map_bp", "inference.decode"),
    ("corrlog.evaluation", "compute_metrics", "metrics.compute"),
    ("corrlog.evaluation", "paired_t_test", "evaluation.ttest"),
    ("corrlog.optimizer", "_train", "optimizer.fit"),
    ("corrlog.optimizer", "smooth_value_dense", "objective.smooth"),
    ("corrlog.optimizer", "smooth_grad_dense", "objective.grad"),
    ("corrlog.optimizer", "full_value_dense", "objective.value"),
    ("corrlog.optimizer", "check_finite_dataset", "objective.check"),
    ("corrlog.optimizer", "params_from_dense", "objective.params"),
    ("corrlog.model", "MultilabelDataset.feature_matrix", "data.matrix"),
    ("corrlog.model", "MultilabelDataset.label_matrix", "data.matrix"),
)


def _load_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]), "rows": len(result),
            "features": result.num_features}


def _fit_info(args, kwargs, result):
    trace = result[1]
    return {"iterations": trace.iterations, "converged": trace.converged,
            "step": trace.records[-1].step_size if trace.records else 0.0}


def _decode_info(args, kwargs, result):
    coupled = any(v != 0.0 for v in args[0].alpha.values())
    return {"coupled": coupled, "converged": result[1].converged}


# What a span keeps besides its times, by span name.
_INFO = {
    "data.load": _load_info,
    "serialize.save": lambda a, k, r: {"bytes": len(r)},
    "serialize.load": lambda a, k, r: {"bytes": len(a[0])},
    "optimizer.fit": _fit_info,
    "inference.decode": _decode_info,
}


class Tracer:
    """Installs the wrappers and collects spans as [name, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _traced(self, name, fn):
        info = _INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if info is not None:
                record[4] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every name in WRAPPED; names the package no longer has are noted."""
        self.missing = []
        for module_name, attr, name in WRAPPED:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
                original = None if owner is None else owner.__dict__.get(attr)
                if not isinstance(original, functools.cached_property):
                    self.missing.append(f"{module_name}.{cls_name}.{attr}")
                    continue
                wrapped = functools.cached_property(self._traced(name, original.func))
                wrapped.__set_name__(owner, attr)
            else:
                original = getattr(owner, attr, None)
                if not callable(original):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrapped = self._traced(name, original)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "info": info}) + "\n")


def _missing_span_names(missing: list[str]) -> set[str]:
    lookup = {f"{mod}.{attr}": name for mod, attr, name in WRAPPED}
    return {lookup[m] for m in missing}


class CycleSpans:
    """Totals over the spans of one traced cycle."""

    def __init__(self, spans: list[list], first: int):
        self.total: dict[str, float] = {}
        self.count: dict[str, int] = {}
        self.self_time: dict[str, float] = {}
        self.infos: dict[str, list[dict]] = {}
        child = [0.0] * (len(spans) - first)
        for idx in range(len(spans) - 1, first - 1, -1):
            name, start, end, parent, info = spans[idx]
            dur = end - start
            if parent >= first:
                child[parent - first] += dur
            self.total[name] = self.total.get(name, 0.0) + dur
            self.count[name] = self.count.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child[idx - first]
            if info is not None:
                self.infos.setdefault(name, []).append({**info, "dur": dur})
        for infos in self.infos.values():
            infos.reverse()

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_time.items() if k.split(".")[0] == layer)

    def mean(self, name: str) -> float:
        return self.total.get(name, 0.0) / self.count[name] if self.count.get(name) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(cycle: CycleSpans) -> dict[str, tuple[float, str, set[str]]]:
    """Per-layer metrics of one traced cycle: name -> (value, unit, spans needed).

    A layer the workload does not use reads 0.
    """
    fits = cycle.infos.get("optimizer.fit", [])
    iterations = sum(f["iterations"] for f in fits)
    passes = sum(cycle.count.get(k, 0) for k in ("objective.smooth", "objective.grad",
                                                 "objective.value"))
    loads = cycle.infos.get("data.load", [])
    docs = cycle.infos.get("serialize.save", []) + cycle.infos.get("serialize.load", [])
    decodes = [d for d in cycle.infos.get("inference.decode", []) if d["coupled"]]
    layer_names = {layer: {name for _, _, name in WRAPPED if name.startswith(layer + ".")}
                   for layer in LAYERS}
    out = {f"{layer}.self_s": (cycle.layer_self(layer), "s", layer_names[layer])
           for layer in LAYERS}
    out.update({
        "data.load_s": (cycle.total.get("data.load", 0.0), "s", {"data.load"}),
        "data.parse_mb_per_s": (
            _ratio(sum(i["bytes"] for i in loads) / 2**20, cycle.total.get("data.load", 0.0)),
            "MiB/s", {"data.load"}),
        "data.prepare_s": (cycle.total.get("data.prepare", 0.0), "s", {"data.prepare"}),
        "data.dense_mb": (max((i["rows"] * i["features"] * 8 / 2**20 for i in loads),
                              default=0.0), "MiB", {"data.load"}),
        "serialize.save_ms": (1e3 * cycle.total.get("serialize.save", 0.0), "ms",
                              {"serialize.save"}),
        "serialize.load_ms": (1e3 * cycle.total.get("serialize.load", 0.0), "ms",
                              {"serialize.load"}),
        "serialize.doc_bytes": (float(max((d["bytes"] for d in docs), default=0)), "bytes",
                                {"serialize.save", "serialize.load"}),
        "objective.pass_ms": (1e3 * (cycle.mean("objective.smooth") + cycle.mean("objective.grad")),
                              "ms", {"objective.smooth", "objective.grad"}),
        "objective.passes_per_iter": (_ratio(passes, iterations), "count",
                                      {"objective.smooth", "objective.grad", "objective.value",
                                       "optimizer.fit"}),
        "optimizer.iterations": (float(iterations), "count", {"optimizer.fit"}),
        "optimizer.ms_per_iter": (_ratio(1e3 * cycle.total.get("optimizer.fit", 0.0), iterations),
                                  "ms", {"optimizer.fit"}),
        "optimizer.final_step": (fits[-1]["step"] if fits else 0.0, "1", {"optimizer.fit"}),
        "optimizer.converged": (_ratio(sum(f["converged"] for f in fits), len(fits)), "ratio",
                                {"optimizer.fit"}),
        "inference.us_per_row": (
            _ratio(1e6 * sum(d["dur"] for d in decodes), len(decodes)), "us", {"inference.decode"}),
        "inference.bp_nonconverged_frac": (
            _ratio(sum(not d["converged"] for d in decodes), len(decodes)), "ratio",
            {"inference.decode"}),
        "evaluation.predict_self_s": (cycle.self_time.get("evaluation.predict", 0.0), "s",
                                      {"evaluation.predict", "inference.decode"}),
        "evaluation.cv_self_s": (cycle.self_time.get("evaluation.cv", 0.0), "s",
                                 layer_names["evaluation"] | layer_names["optimizer"]
                                 | layer_names["metrics"] | {"data.subset"}),
        "evaluation.ttest_ms": (1e3 * cycle.total.get("evaluation.ttest", 0.0), "ms",
                                {"evaluation.ttest"}),
        "metrics.compute_ms": (1e3 * cycle.total.get("metrics.compute", 0.0), "ms",
                               {"metrics.compute"}),
    })
    return out


def median_metrics(cycles: list[CycleSpans], missing: list[str]
                   ) -> tuple[dict[str, dict], list[str]]:
    """Median of each per-layer metric over the traced cycles, and the absent names.

    A metric is absent when a span it needs could not be wrapped, for
    example because the package renamed or fused the function behind it.
    """
    gone = _missing_span_names(missing)
    per_cycle = [per_layer(c) for c in cycles]
    metrics, absent = {}, []
    for name, (_, unit, needs) in per_cycle[0].items():
        if needs & gone:
            absent.append(name)
            continue
        metrics[name] = {"value": statistics.median(p[name][0] for p in per_cycle),
                         "unit": unit}
    return metrics, absent
