"""The package depends on the standard library and numpy only.

scipy is often installed next to numpy, but it is not a declared
dependency, so nothing under src/entcorr may import it (or anything else).
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "entcorr"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "entcorr"}


def imported_roots(source: str, filename: str = "<string>") -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in the source."""
    roots = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            roots += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append((node.lineno, node.module.split(".")[0]))
    return roots


def test_scanner_sees_every_import_form():
    source = "import os, scipy.linalg\nfrom scipy import optimize\nfrom . import bounds\n"
    assert imported_roots(source) == [(1, "os"), (1, "scipy"), (2, "scipy")]


def test_package_imports_only_stdlib_numpy_and_itself():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    bad = [
        f"{path.name}:{line}: {root}"
        for path in files
        for line, root in imported_roots(path.read_text(encoding="utf-8"), str(path))
        if root not in ALLOWED
    ]
    assert not bad, "imports outside stdlib/numpy: " + ", ".join(bad)
