"""Module boundaries of the package: no module imports another module's
private names, and the covariate regression has one implementation."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hdte"


def private_imports(path: Path) -> list[str]:
    """``from .module import _name`` lines of one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} "
        f"import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]


def _called_name(node: ast.Call) -> str | None:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def regression_routes(path: Path) -> tuple[list[str], list[str]]:
    """The ``lstsq`` calls of one source file, and the functions that define
    a rank rule: those whose own body takes singular values (``svd``,
    ``matrix_rank``) or reads a machine epsilon (``.eps``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lstsq = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _called_name(node) == "lstsq"]
    rules = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = [node for stmt in fn.body for node in ast.walk(stmt)]
        if any(isinstance(node, ast.Call) and _called_name(node) in ("svd", "matrix_rank")
               or isinstance(node, ast.Attribute) and node.attr == "eps"
               for node in body):
            rules.append(f"{path.name}:{fn.name}")
    return lstsq, rules


def test_no_module_imports_private_names_of_another():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    offenders = [line for path in sources for line in private_imports(path)]
    assert offenders == []


def test_private_import_is_detected(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from .wlasso import EnetConfig, _walk_path\nfrom os import _exit\n")
    assert private_imports(sample) == ["sample.py:1: from .wlasso import _walk_path"]


def test_one_covariate_projection_and_one_rank_rule():
    """No module solves least squares with ``lstsq``; every covariate
    regression goes through ``data.project_columns``, and its rank rule is
    defined once, in ``data.check_full_rank``."""
    routes = [regression_routes(path) for path in sorted(PACKAGE.glob("*.py"))]
    assert [call for lstsq, _ in routes for call in lstsq] == []
    assert [rule for _, rules in routes for rule in rules] == ["data.py:check_full_rank"]


def test_regression_routes_are_detected(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import numpy as np\n"
        "from numpy.linalg import lstsq\n"
        "def fit(x, y):\n"
        "    return np.linalg.lstsq(x, y, rcond=None)[0], lstsq(x, y)\n"
        "def rank(r):\n"
        "    return (np.linalg.svd(r, compute_uv=False) > 1e-12).sum()\n"
        "class Level:\n"
        "    def check(self, sv):\n"
        "        return sv > np.finfo(float).eps * sv.max()\n"
    )
    assert regression_routes(sample) == (["sample.py:4", "sample.py:4"],
                                         ["sample.py:rank", "sample.py:check"])
