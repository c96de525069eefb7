"""Every name a module of the package imports is used in that module, and the
modules import each other only downwards through their layers.

An import that nothing reads is dead weight.  The allowlist names the few that
stay on purpose, with the reason; an entry that is used again or no longer
imported fails too, so the list shrinks as its reasons go away.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "corrlog"

ALLOWED = {
    ("evaluation", "predict_map_bp"):
        "the benchmark tracer wraps corrlog.evaluation.predict_map_bp for its decode spans",
}

# each module may import only from the layers before its own
LAYERS = (
    ("errors",),
    ("model",),
    ("data", "objective", "inference", "metrics"),
    ("optimizer", "serialize"),
    ("evaluation",),
    ("cli",),
)


def _imported_and_used(path: Path) -> tuple[set[str], set[str]]:
    """The names a module's imports bind, and the names it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


def _unused_imports() -> set[tuple[str, str]]:
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            imported, used = _imported_and_used(path)
            unused.update((path.stem, name) for name in imported - used)
    return unused


def test_every_imported_name_is_used_or_allowed():
    assert _unused_imports() == set(ALLOWED)


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport numpy as np\nfrom x import a, b as c\nprint(np, c)\n")
    assert _imported_and_used(module) == ({"os", "np", "a", "c"}, {"print", "np", "c"})


def _package_imports(path: Path) -> set[str]:
    """The package modules a module imports from, ``from .x import ...`` at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_each_module_imports_only_from_lower_layers():
    layer = {name: rank for rank, names in enumerate(LAYERS) for name in names}
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert sorted(layer) == sorted(path.stem for path in modules)
    upward = {(path.stem, dep) for path in modules for dep in _package_imports(path)
              if layer[dep] >= layer[path.stem]}
    assert upward == set()
