"""``pyproject.toml`` declares no runtime dependencies: the engine imports
only the standard library and itself."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "corkcalc").glob("*.py"))


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "corkcalc" if node.level else node.module.partition(".")[0]


def test_the_engine_imports_only_the_standard_library():
    assert SOURCES
    allowed = sys.stdlib_module_names | {"corkcalc"}
    outside = {(path.name, root) for path in SOURCES for root in _imported_roots(path)
               if root not in allowed}
    assert outside == set()
