"""Every name a module of the package imports is used in that module.

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
