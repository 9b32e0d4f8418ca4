"""Module boundaries of the package: no module imports another module's
private names, the covariate regression has one implementation, and so
do the Cholesky factorization of the solver's exact steps, the
propensity weighting, the singularity rule of small solves, the
experiments' replicate loop and the forking of worker processes; only the
scipy modules the package calls are imported."""

import ast
import os
import subprocess
import sys
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


def _functions_where(path: Path, tree: ast.AST, hit) -> list[str]:
    """``file:function`` for each function of ``tree`` whose body has a node
    for which ``hit`` holds."""
    return [f"{path.name}:{fn.name}" for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(hit(node) for stmt in fn.body for node in ast.walk(stmt))]


def regression_routes(path: Path) -> tuple[list[str], list[str]]:
    """The ``lstsq`` calls of one source file, and the functions that define
    a rank rule: those whose own body takes singular values (``svd``,
    ``matrix_rank``) or reads a machine epsilon (``.eps``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lstsq = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _called_name(node) == "lstsq"]
    rules = _functions_where(path, tree, lambda node: (
        isinstance(node, ast.Call) and _called_name(node) in ("svd", "matrix_rank")
        or isinstance(node, ast.Attribute) and node.attr == "eps"))
    return lstsq, rules


def factor_routes(path: Path) -> tuple[list[str], list[str]]:
    """The functions of one source file that call ``dpotrf``, and the lines
    that import ``scipy.linalg.lapack`` (or a name from it)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = _functions_where(path, tree, lambda node: (
        isinstance(node, ast.Call) and _called_name(node) == "dpotrf"))
    imports = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               and any(alias.name.startswith("scipy.linalg.lapack") for alias in node.names)
               or isinstance(node, ast.ImportFrom) and node.level == 0
               and (node.module == "scipy.linalg.lapack" or node.module == "scipy.linalg"
                    and any(alias.name == "lapack" for alias in node.names))]
    return calls, imports


def replicate_routes(path: Path) -> tuple[list[str], list[str]]:
    """The functions of one source file that spawn seeds from a
    ``SeedSequence(...)``, and those that catch ``HdteError``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    spawns = _functions_where(path, tree, lambda node: (
        isinstance(node, ast.Call) and _called_name(node) == "spawn"
        and isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Call)
        and _called_name(node.func.value) == "SeedSequence"))
    catches = _functions_where(path, tree, lambda node: (
        isinstance(node, ast.ExceptHandler) and node.type is not None
        and any(getattr(name, "id", getattr(name, "attr", None)) == "HdteError"
                for name in ast.walk(node.type))))
    return spawns, catches


def process_routes(path: Path) -> tuple[list[str], list[str]]:
    """The functions of one source file that call ``fork``, and those that
    call ``_exit``, by any name or attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def callers(name):
        return _functions_where(path, tree, lambda node: (
            isinstance(node, ast.Call) and _called_name(node) == name))

    return callers("fork"), callers("_exit")


def scipy_imports(path: Path) -> list[str]:
    """``file: module`` for each scipy module one source file imports; a name
    imported from the bare ``scipy`` package counts as its subpackage."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "scipy":
            found += ([f"scipy.{alias.name}" for alias in node.names]
                      if node.module == "scipy" else [node.module])
    return [f"{path.name}: {module}" for module in found]


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


def test_one_cholesky_factorization_behind_one_lapack_import():
    """``dpotrf`` is called in one function, ``wlasso._Block.extend``, so a
    factor built afresh and one extended by entering coordinates pass the
    same pivot test; only ``wlasso`` imports LAPACK wrappers."""
    routes = [factor_routes(path) for path in sorted(PACKAGE.glob("*.py"))]
    assert [call for calls, _ in routes for call in calls] == ["wlasso.py:extend"]
    assert [line.split(":")[0] for _, imports in routes for line in imports] == ["wlasso.py"]


def test_propensity_weights_enter_in_one_function():
    """The weights scale the stacked rows in ``wlasso._weighted_columns``, and
    every weighted moment is a product of those rows: no other function
    forms ``w``-weighted moments of its own."""
    found = [caller for path in sorted(PACKAGE.glob("*.py"))
             for caller in _functions_where(
                 path, ast.parse(path.read_text(), filename=str(path)),
                 lambda node: isinstance(node, ast.Call)
                 and _called_name(node) == "propensity_weights")]
    assert found == ["wlasso.py:_weighted_columns"]


def test_factor_routes_are_detected(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import scipy.linalg.lapack\n"
        "from scipy.linalg import lapack, solve\n"
        "from scipy.linalg.lapack import dpotrs\n"
        "from scipy.linalg import cho_factor\n"
        "def build(a):\n"
        "    return lapack.dpotrf(a, lower=1)\n"
        "class Block:\n"
        "    def extend(self, a):\n"
        "        return dpotrf(a)[0], dpotrs(a, a)\n"
    )
    assert factor_routes(sample) == (["sample.py:build", "sample.py:extend"],
                                     ["sample.py:1", "sample.py:2", "sample.py:3"])


def test_one_replicate_loop_and_one_failure_catch():
    """The experiments of ``simharness`` spawn replicate seeds in one
    function, ``_run_experiment``, and turn a method's ``HdteError`` into a
    failed replicate in one other, ``_outcomes``."""
    assert replicate_routes(PACKAGE / "simharness.py") == (
        ["simharness.py:_run_experiment"], ["simharness.py:_outcomes"])


def test_replicate_routes_are_detected(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import numpy as np\n"
        "def seeds(seed, k):\n"
        "    return np.random.SeedSequence(seed).spawn(k), spawn(k)\n"
        "def run(f):\n"
        "    try:\n"
        "        return f()\n"
        "    except (ValueError, errors.HdteError):\n"
        "        return None\n"
        "def other(f):\n"
        "    try:\n"
        "        return f()\n"
        "    except HdteError as exc:\n"
        "        raise ValueError from exc\n"
        "    except Exception:\n"
        "        pass\n"
    )
    assert replicate_routes(sample) == (["sample.py:seeds"],
                                        ["sample.py:run", "sample.py:other"])


def test_one_function_forks_and_leaves_a_child():
    """``os.fork`` and ``os._exit`` are called in one function,
    ``data._parse_parallel``, which reaps every child it forks: a child
    cannot return into the caller's frames from anywhere else."""
    routes = [process_routes(path) for path in sorted(PACKAGE.glob("*.py"))]
    assert [call for forks, _ in routes for call in forks] == ["data.py:_parse_parallel"]
    assert [call for _, exits in routes for call in exits] == ["data.py:_parse_parallel"]


def test_process_routes_are_detected(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import os\n"
        "from os import fork\n"
        "def spawn():\n"
        "    if os.fork() == 0:\n"
        "        os._exit(0)\n"
        "def bare():\n"
        "    return fork()\n"
        "class Pool:\n"
        "    def stop(self):\n"
        "        os._exit(1)\n"
        "def leave():\n"
        "    os.exit(0), sys.exit(0), os.forkpty()\n"
    )
    assert process_routes(sample) == (["sample.py:spawn", "sample.py:bare"],
                                      ["sample.py:spawn", "sample.py:stop"])


def test_one_singularity_rule_for_small_symmetric_solves():
    """The subset regression and the group statistic share one rule for a
    singular matrix, ``data.solve_nonsingular``: criterion 1's argmin and
    argmax range over the same subsets."""
    found = [caller for path in sorted(PACKAGE.glob("*.py"))
             for caller in _functions_where(
                 path, ast.parse(path.read_text(), filename=str(path)),
                 lambda node: isinstance(node, ast.Call)
                 and _called_name(node) == "eigvalsh")]
    assert found == ["data.py:solve_nonsingular"]


def test_scipy_is_imported_only_where_it_is_called():
    """LAPACK in ``wlasso``, the special functions behind the p-values in
    ``inference``, and the bare package for the version string in ``cli``:
    ``import hdte`` does not load all of ``scipy.stats`` or ``scipy.signal``."""
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in scipy_imports(path)]
    assert found == ["cli.py: scipy", "inference.py: scipy.special",
                     "wlasso.py: scipy.linalg.lapack"]


def test_scipy_imports_are_detected(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import scipy\n"
        "import numpy, scipy.stats as st\n"
        "from scipy import signal, special\n"
        "from scipy.special import ndtr\n"
        "from .scipy import stats\n"
        "import scipyx\n"
        "def late():\n"
        "    from scipy.linalg import solve\n"
    )
    assert scipy_imports(sample) == [
        "sample.py: scipy", "sample.py: scipy.stats", "sample.py: scipy.signal",
        "sample.py: scipy.special", "sample.py: scipy.special", "sample.py: scipy.linalg"]


def test_import_hdte_leaves_scipy_stats_and_signal_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    code = ("import sys, hdte\n"
            "print([m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
