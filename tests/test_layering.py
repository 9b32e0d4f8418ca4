"""Module boundaries of the package: no module imports another module's
private names."""

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


def test_no_module_imports_private_names_of_another():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    offenders = [line for path in sources for line in private_imports(path)]
    assert offenders == []


def test_private_import_is_detected(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from .wlasso import EnetConfig, _walk_path\nfrom os import _exit\n")
    assert private_imports(sample) == ["sample.py:1: from .wlasso import _walk_path"]
