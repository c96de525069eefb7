"""The benchmark tracer still finds every package name it wraps.

``benchmarks/spans.py`` wraps, by name, the functions that modules of the
package import from each other.  A rename in the package makes the tracer
skip that name, and the per-layer figures it feeds read 0 without any error.
The tracer is loaded by path, installed and removed; the file is only read.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(module_name: str, attr: str):
    """The object behind a WRAPPED entry; "Class.prop" reads the class dict."""
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        return vars(getattr(owner, cls_name, object)).get(attr)
    return getattr(owner, attr, None)


def test_tracer_wraps_every_name_and_restores_it():
    spans = _load_spans()
    originals = {(mod, attr): _current(mod, attr) for mod, attr, _ in spans.WRAPPED}
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = {key for key, original in originals.items() if _current(*key) is not original}
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert wrapped == set(originals)
    for key, original in originals.items():
        assert _current(*key) is original, key
