"""Source rules of the package, checked on its syntax trees.

The package depends on the standard library and numpy only: scipy is often
installed next to numpy, but it is not a declared dependency, so nothing
under src/entcorr may import it (or anything else).

Per-kind facts live in one place, the KINDS registry of
entcorr.correlations: no other code compares with a kind name or passes
one as an argument.

The concurrence has one kernel, on singular values of a state in eigenform:
no code calls the non-Hermitian eigensolvers numpy.linalg.eig or eigvals,
so a second concurrence path on eigenvalues of rho rho~ does not return.

Modules import each other at the top only: no function holds a relative
import, so no import cycle hides behind a deferred one.

Each spectral cut has one home, a kernel of entcorr.qcore: no other module
names TOL_SUPPORT or TOL_ZERO, so no copy of a cut is written outside it.
"""

import ast
import sys
from pathlib import Path

from entcorr.correlations import MonotoneKind

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "entcorr"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "entcorr"}
KIND_NAMES = {kind.value for kind in MonotoneKind}


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


def kind_name_sites(source: str, filename: str = "<string>") -> list[tuple[int, str]]:
    """(line, name) of every kind-name literal that code outside the KINDS
    table compares with (alone or in a tuple, list or set) or passes as an
    argument, positional or keyword."""
    tree = ast.parse(source, filename=filename)
    table = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "KINDS" for t in node.targets)
        for sub in ast.walk(node)
    }
    sites = []
    for node in ast.walk(tree):
        if id(node) in table:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.Call):
            operands = [*node.args, *(kw.value for kw in node.keywords)]
        else:
            continue
        for op in operands:
            for lit in op.elts if isinstance(op, (ast.Tuple, ast.List, ast.Set)) else [op]:
                if isinstance(lit, ast.Constant) and lit.value in KIND_NAMES:
                    sites.append((lit.lineno, lit.value))
    return sorted(sites)


def test_scanner_sees_every_kind_site():
    source = (
        'if kind == "bures" or kind in ("hellinger", "other"):\n'
        '    f("mutual_information", x, kind="bures")\n'
        'KINDS = {"bures": row("bures")}\n'
        'default = "hellinger"\n'
    )
    assert kind_name_sites(source) == [
        (1, "bures"), (1, "hellinger"), (2, "bures"), (2, "mutual_information"),
    ]


def test_kind_names_appear_only_in_the_registry():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    bad = [
        f"{path.name}:{line}: {name!r}"
        for path in files
        for line, name in kind_name_sites(path.read_text(encoding="utf-8"), str(path))
    ]
    assert not bad, "kind names outside correlations.KINDS: " + ", ".join(bad)


NON_HERMITIAN = {"eig", "eigvals"}


def non_hermitian_solver_sites(source: str, filename: str = "<string>") -> list[tuple[int, str]]:
    """(line, name) of every call of numpy.linalg.eig or eigvals through an
    attribute, and of every import of them by name from numpy.linalg."""
    sites = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in NON_HERMITIAN
        ):
            sites.append((node.lineno, node.func.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            sites += [(node.lineno, a.name) for a in node.names if a.name in NON_HERMITIAN]
    return sorted(sites)


def test_scanner_sees_every_non_hermitian_solver_site():
    source = (
        "from numpy.linalg import eig as e, eigh\n"
        "w = np.linalg.eigvals(m) + linalg.eigvalsh(m)\n"
        "w, v = la.eig(m)\n"
    )
    assert non_hermitian_solver_sites(source) == [(1, "eig"), (2, "eigvals"), (3, "eig")]


def test_no_non_hermitian_eigensolver():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    bad = [
        f"{path.name}:{line}: {name}"
        for path in files
        for line, name in non_hermitian_solver_sites(path.read_text(encoding="utf-8"), str(path))
    ]
    assert not bad, "non-Hermitian eigensolvers: " + ", ".join(bad)


def function_level_relative_imports(source: str, filename: str = "<string>") -> list[int]:
    """Lines of the relative imports inside a function body."""
    return sorted({
        sub.lineno
        for node in ast.walk(ast.parse(source, filename=filename))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for sub in ast.walk(node)
        if isinstance(sub, ast.ImportFrom) and sub.level > 0
    })


def test_scanner_sees_every_function_level_relative_import():
    source = (
        "from . import bounds\n"
        "def f():\n"
        "    from .measures import _s22\n"
        "    import os\n"
        "    def g():\n"
        "        from .. import qcore\n"
    )
    assert function_level_relative_imports(source) == [3, 6]


def test_no_function_level_relative_import():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    bad = [
        f"{path.name}:{line}"
        for path in files
        for line in function_level_relative_imports(path.read_text(encoding="utf-8"), str(path))
    ]
    assert not bad, "relative imports inside functions: " + ", ".join(bad)


CUT_TOLERANCES = {"TOL_SUPPORT", "TOL_ZERO"}


def cut_tolerance_sites(source: str, filename: str = "<string>") -> list[tuple[int, str]]:
    """(line, name) of every use of TOL_SUPPORT or TOL_ZERO: as a name, as
    an attribute, or imported by name."""
    sites = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Name) and node.id in CUT_TOLERANCES:
            sites.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in CUT_TOLERANCES:
            sites.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            sites += [(node.lineno, a.name) for a in node.names if a.name in CUT_TOLERANCES]
    return sorted(sites)


def test_scanner_sees_every_cut_tolerance_site():
    source = (
        "from .qcore import TOL_SUPPORT as cut, TOL_HERM\n"
        "keep = w > qcore.TOL_ZERO\n"
        "x = TOL_SUPPORT * w[-1]  # TOL_ZERO in a comment is no use\n"
        'doc = "TOL_ZERO"\n'
    )
    assert cut_tolerance_sites(source) == [(1, "TOL_SUPPORT"), (2, "TOL_ZERO"), (3, "TOL_SUPPORT")]


def test_cut_tolerances_only_in_qcore():
    files = sorted(PACKAGE.glob("*.py"))
    assert any(path.name == "qcore.py" for path in files)
    bad = [
        f"{path.name}:{line}: {name}"
        for path in files
        if path.name != "qcore.py"
        for line, name in cut_tolerance_sites(path.read_text(encoding="utf-8"), str(path))
    ]
    assert not bad, "cut tolerances outside qcore: " + ", ".join(bad)
