"""Module boundaries of the package: no module imports another module's
private names, the covariate regression has one implementation, and so
do the reading of input text, the Cholesky factorization of the solver's
exact steps, the propensity weighting, the singularity rule of small
solves, the experiments' replicate loop and the forking of worker
processes; every selection is made by one function and every estimate by
one other; no function takes the weights as an argument; the solver takes a
dataset only to build its problem object; the package exports each
module's ``__all__`` once and imports none of its modules until a name is
read; only the scipy modules the package calls are imported, and no package
that starts processes; and every file opened as text names its encoding."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def regression_routes(path: Path) -> tuple[list[str], list[str], list[str]]:
    """The ``lstsq`` calls of one source file, the functions that regress on
    a QR factor (call ``qr`` in a mode other than ``"r"``, which gives ``Q``
    too) or are named ``project_columns``, and the functions that define a
    rank rule: those whose own body takes singular values (``svd``,
    ``matrix_rank``) or reads a machine epsilon (``.eps``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lstsq = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _called_name(node) == "lstsq"]
    regressions = sorted({*_functions_where(path, tree, lambda node: (
        isinstance(node, ast.Call) and _called_name(node) == "qr"
        and not any(kw.arg == "mode" and getattr(kw.value, "value", None) == "r"
                    for kw in node.keywords))),
        *(f"{path.name}:{fn.name}" for fn in ast.walk(tree)
          if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
          and fn.name == "project_columns")})
    rules = _functions_where(path, tree, lambda node: (
        isinstance(node, ast.Call) and _called_name(node) in ("svd", "matrix_rank")
        or isinstance(node, ast.Attribute) and node.attr == "eps"))
    return lstsq, regressions, rules


def decode_catches(path: Path) -> list[str]:
    """The functions of one source file that catch ``UnicodeDecodeError``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return _functions_where(path, tree, lambda node: (
        isinstance(node, ast.ExceptHandler) and node.type is not None
        and any(getattr(name, "id", getattr(name, "attr", None)) == "UnicodeDecodeError"
                for name in ast.walk(node.type))))


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


def process_imports(path: Path) -> list[str]:
    """``file: module`` for each import of one source file from a package
    that starts processes of its own: ``multiprocessing``,
    ``concurrent.futures`` or ``subprocess``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0]
    return [f"{path.name}: {module}" for module in modules
            if module.split(".")[0] in ("multiprocessing", "concurrent", "subprocess")]


def selection_routes(path: Path) -> tuple[list[str], list[str]]:
    """The functions of one source file that build a weighted problem (call
    ``from_dataset`` or ``level_problems``), and the names it imports from
    the ``selection`` module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    builders = _functions_where(path, tree, lambda node: (
        isinstance(node, ast.Call) and _called_name(node) in ("from_dataset", "level_problems")))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and (node.module, node.level > 0) in (("selection", True), ("hdte.selection", False))
             for alias in node.names]
    return builders, names


def estimator_routes(path: Path) -> tuple[list[str], list[str]]:
    """The public functions one source file defines at module level, and
    the names it imports from the ``estimators`` module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("_")]
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and (node.module, node.level > 0) in (("estimators", True), ("hdte.estimators", False))
             for alias in node.names]
    return defined, names


def parameters_named(path: Path, name: str) -> list[str]:
    """``file:function`` for each function or lambda of one source file with
    a parameter called ``name``, of any kind."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{getattr(fn, 'name', '<lambda>')}" for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            and any(arg.arg == name for arg in (
                *fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs,
                *filter(None, (fn.args.vararg, fn.args.kwarg))))]


def dataset_functions(path: Path) -> list[str]:
    """The public functions of one source file, and the public methods of
    its public classes (``Class.method``), that take a parameter annotated
    ``TrialDataset``, in source order."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def takes_dataset(fn):
        return any(getattr(arg.annotation, "id", getattr(arg.annotation, "value", None))
                   == "TrialDataset"
                   for arg in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs))

    def public(nodes, prefix=""):
        return [f"{prefix}{node.name}" for node in nodes
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_") and takes_dataset(node)]

    found = []
    for node in tree.body:
        found += public([node])
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found += public(node.body, f"{node.name}.")
    return found


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


def unnamed_encodings(path: Path) -> list[str]:
    """``file:line`` of each call of one source file that opens a file in
    text mode and names no encoding: ``open`` (builtin, ``io.open`` or a
    path's method) with a mode not known to hold ``b``, ``read_text`` and
    ``write_text``. ``os.open`` opens no text."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, owner = _called_name(node), getattr(getattr(node.func, "value", None), "id", None)
        if name == "open" and owner != "os":
            # a path's method takes no file argument before the mode
            at = 1 if isinstance(node.func, ast.Name) or owner == "io" else 0
            mode = node.args[at] if len(node.args) > at else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if isinstance(mode, ast.Constant) and "b" in mode.value:
                continue
            slot = at + 2
        elif name in ("read_text", "write_text"):
            slot = 0 if name == "read_text" else 1
        else:
            continue
        if len(node.args) <= slot and all(kw.arg != "encoding" for kw in node.keywords):
            lines.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(lines)]


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
    regression goes through ``data.covariate_coefficients``, the one function
    that takes a QR factor's ``Q`` (no module defines ``project_columns``
    again), and its rank rule is defined once, in ``data.full_rank_errors``
    (which ``data.check_full_rank`` raises for one factor)."""
    routes = [regression_routes(path) for path in sorted(PACKAGE.glob("*.py"))]
    assert [call for lstsq, _, _ in routes for call in lstsq] == []
    assert [fn for _, found, _ in routes for fn in found] == ["data.py:covariate_coefficients"]
    assert [rule for _, _, rules in routes for rule in rules] == ["data.py:full_rank_errors"]


def test_regression_routes_are_detected(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import numpy as np\n"
        "from numpy.linalg import lstsq, qr\n"
        "def fit(x, y):\n"
        "    return np.linalg.lstsq(x, y, rcond=None)[0], lstsq(x, y)\n"
        "def rank(r):\n"
        "    return (np.linalg.svd(r, compute_uv=False) > 1e-12).sum()\n"
        "class Level:\n"
        "    def check(self, sv):\n"
        "        return sv > np.finfo(float).eps * sv.max()\n"
        "def project_columns(design, columns):\n"
        "    return columns\n"
        "def solve(x, y):\n"
        "    q, r = qr(x)\n"
        "    return np.linalg.solve(r, q.T @ y)\n"
        "def factor(x):\n"
        "    return np.linalg.qr(x, mode='r'), np.linalg.qr(x, mode='complete')\n"
    )
    assert regression_routes(sample) == (
        ["sample.py:4", "sample.py:4"],
        ["sample.py:factor", "sample.py:project_columns", "sample.py:solve"],
        ["sample.py:rank", "sample.py:check"])


def test_one_function_reads_input_text():
    """Every input text file (a data CSV, a selection CSV, a manifest) is
    opened by ``data.open_text``, the one function that turns a byte
    sequence that is not UTF-8 into a data error."""
    found = [fn for path in sorted(PACKAGE.glob("*.py")) for fn in decode_catches(path)]
    assert found == ["data.py:open_text"]


def test_decode_catches_are_detected(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def read(path):\n"
        "    try:\n"
        "        return open(path, encoding='utf-8').read()\n"
        "    except (OSError, UnicodeDecodeError):\n"
        "        return None\n"
        "def load(path):\n"
        "    try:\n"
        "        return parse(path)\n"
        "    except builtins.UnicodeDecodeError as exc:\n"
        "        raise ValueError from exc\n"
        "def wide(path):\n"
        "    try:\n"
        "        return parse(path)\n"
        "    except ValueError:\n"
        "        return None\n"
    )
    assert decode_catches(sample) == ["sample.py:read", "sample.py:load"]


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


def test_one_selection_entry_point():
    """``selection.run_selection`` is the one way to make a selection: it
    alone builds the problems selected on, and the modules that select (the
    CLI, the split pipeline and the experiments) import from ``selection``
    only it, its spec and the checks they run before it."""
    assert selection_routes(PACKAGE / "selection.py")[0] == ["selection.py:run_selection"]
    allowed = {"SelectionSpec", "run_selection", "check_sizes", "method_l1_ratio"}
    imported = {name for module in ("cli", "inference", "simharness")
                for name in selection_routes(PACKAGE / f"{module}.py")[1]}
    assert imported and imported <= allowed


def test_selection_routes_are_detected(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .selection import SelectionSpec, _size_selections\n"
        "from hdte.selection import baseline_select\n"
        "from .wlasso import WeightedProblem, level_problems\n"
        "from selection import run_selection\n"
        "def pick(ds, levels):\n"
        "    return WeightedProblem.from_dataset(ds), wlasso.level_problems(ds, levels)\n"
        "class Search:\n"
        "    def levels(self, ds):\n"
        "        return level_problems(ds, self.levels)\n"
        "def other(ds):\n"
        "    return from_datasets(ds), ds.from_dataset\n"
    )
    assert selection_routes(sample) == (
        ["sample.py:pick", "sample.py:levels"],
        ["SelectionSpec", "_size_selections", "baseline_select"])


def test_one_estimation_entry_point():
    """``estimators.adjusted_estimate`` is the one way to estimate effects:
    ``estimators`` defines no other public function but the check run
    before it, and the modules that estimate import from ``estimators`` only
    those two and the estimate's type. The estimators folded into it are
    gone from the package."""
    assert sorted(estimator_routes(PACKAGE / "estimators.py")[0]) == [
        "adjusted_estimate", "check_estimator"]
    imported = {name for module in ("cli", "inference", "selection", "simharness")
                for name in estimator_routes(PACKAGE / f"{module}.py")[1]}
    assert imported and imported <= {"EffectEstimate", "adjusted_estimate", "check_estimator"}
    import hdte
    import hdte.estimators
    gone = ("diff_in_means", "cuped_adjust", "lin_adjust", "AdjustedOutcomes")
    assert [name for module in (hdte, hdte.estimators) for name in gone
            if hasattr(module, name) or name in module.__all__] == []


def test_estimator_routes_are_detected(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .estimators import EffectEstimate, _check_arms\n"
        "from hdte.estimators import adjusted_estimate\n"
        "from .data import diff_in_means\n"
        "from estimators import lin_adjust\n"
        "def diff_in_means(ds):\n"
        "    def inner(y):\n"
        "        return y\n"
        "    return inner\n"
        "async def cuped_adjust(ds):\n"
        "    return ds\n"
        "def _difference_of_means(ds):\n"
        "    return ds\n"
        "class Adjusted:\n"
        "    def lin_adjust(self):\n"
        "        return self\n"
    )
    assert estimator_routes(sample) == (
        ["diff_in_means", "cuped_adjust"],
        ["EffectEstimate", "_check_arms", "adjusted_estimate"])


def test_no_function_takes_the_weights():
    """The weights are a fixed function of the treatments, so every entry
    point derives them (``wlasso.propensity_weights``) and none, public or
    private, has a ``weights`` parameter through which they could differ."""
    found = [line for path in sorted(PACKAGE.glob("*.py"))
             for line in parameters_named(path, "weights")]
    assert found == []


def test_parameters_named_are_detected(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def center(matrix, weights=None):\n"
        "    return matrix\n"
        "class Fit:\n"
        "    def run(self, *, weights):\n"
        "        return (lambda weights, /: weights)(weights)\n"
        "def spread(*weights, **kw):\n"
        "    return weights\n"
        "def other(weight, w, *args, **weights_by_arm):\n"
        "    weights = w\n"
        "    return weights\n"
    )
    assert parameters_named(sample, "weights") == [
        "sample.py:center", "sample.py:spread", "sample.py:run", "sample.py:<lambda>"]


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
    ``forking.run_forked``, which reaps every child it forks, for the CSV
    parts of ``load_csv`` and of ``write_csv``, the split shares of
    ``multi_split`` and the replicate shares of the experiments alike: a
    child cannot return into the caller's frames from anywhere else, and no
    module starts processes through another package."""
    sources = sorted(PACKAGE.glob("*.py"))
    routes = [process_routes(path) for path in sources]
    assert [call for forks, _ in routes for call in forks] == ["forking.py:run_forked"]
    assert [call for _, exits in routes for call in exits] == ["forking.py:run_forked"]
    assert [line for path in sources for line in process_imports(path)] == []


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
    sample.write_text(
        "import os, multiprocessing.pool\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from .subprocess import run\n"
        "import concurrency\n"
        "def late():\n"
        "    import subprocess\n"
    )
    assert process_imports(sample) == ["sample.py: multiprocessing.pool",
                                       "sample.py: subprocess",
                                       "sample.py: concurrent.futures"]


def test_one_singularity_rule_for_small_symmetric_solves():
    """The subset regression and the group statistic share one rule for a
    singular matrix, ``data.singular_errors`` (which ``data.solve_nonsingular``
    raises for one matrix): criterion 1's argmin and argmax range over the
    same subsets."""
    found = [caller for path in sorted(PACKAGE.glob("*.py"))
             for caller in _functions_where(
                 path, ast.parse(path.read_text(), filename=str(path)),
                 lambda node: isinstance(node, ast.Call)
                 and _called_name(node) == "eigvalsh")]
    assert found == ["data.py:singular_errors"]


def test_wlasso_takes_a_dataset_only_to_build_a_problem():
    """``WeightedProblem`` is the solver's one public object: fits, path
    walks and subset regressions are its methods, and a dataset enters only
    through ``WeightedProblem.from_dataset`` and ``level_problems``. Three
    module functions still take a dataset, each a wrapper of a problem's
    work that ``bench/`` calls or traces: ``fit_weighted_enet`` and
    ``lambda_max`` (the cold-fit probes and ``path_deep``'s grid check) and
    ``regularization_path`` (traced in ``hdte path``, whose fits give the
    sweep counts)."""
    assert dataset_functions(PACKAGE / "wlasso.py") == [
        "fit_weighted_enet", "lambda_max", "regularization_path",
        "WeightedProblem.from_dataset", "level_problems"]


def test_dataset_functions_are_detected(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def fit(ds: TrialDataset, c):\n"
        "    return c\n"
        "def _fit(ds: TrialDataset):\n"
        "    return ds\n"
        "def other(ds, *, level: 'TrialDataset'):\n"
        "    return ds\n"
        "def untyped(ds, t: np.ndarray):\n"
        "    return ds\n"
        "class Problem:\n"
        "    @classmethod\n"
        "    def build(cls, ds: TrialDataset):\n"
        "        return cls\n"
        "    def _concentrate(self, ds: TrialDataset):\n"
        "        return ds\n"
        "class _Level:\n"
        "    def fit(self, ds: TrialDataset):\n"
        "        return ds\n"
    )
    assert dataset_functions(sample) == ["fit", "other", "Problem.build"]


def _submodules() -> list:
    return [importlib.import_module(f"hdte.{path.stem}")
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]


def test_the_package_exports_its_modules_names_once():
    """``hdte.__all__`` is the union of its modules' ``__all__``, no name in
    two of them, and ``hdte.X`` is the defining module's own ``X``, so a
    name patched in its module is patched as the package resolves it. The
    wrappers and the second split route folded into objects are gone."""
    import hdte
    modules = _submodules()
    names = [name for module in modules for name in getattr(module, "__all__", ())]
    assert len(names) == len(set(names))
    assert hdte.__all__ == sorted(names)
    assert set(hdte.__all__) <= set(dir(hdte))
    for module in modules:
        for name in getattr(module, "__all__", ()):
            value = getattr(hdte, name)
            assert value is getattr(module, name)
            assert value.__module__ == module.__name__, name
    gone = ("SplitPair", "random_split", "subset_weighted_rss", "soft_threshold",
            "gen_linear_model", "gen_independent_outcomes", "IndependentOutcomesGenerator",
            "project_columns")
    assert [f"{module.__name__}.{name}" for module in (hdte, *modules) for name in gone
            if hasattr(module, name)] == []


def test_an_unknown_name_is_an_attribute_error():
    """The package resolves only its exported names, and a deleted one
    fails at the import that names it."""
    import hdte
    with pytest.raises(AttributeError, match="^module 'hdte' has no attribute 'nope'$"):
        hdte.nope
    with pytest.raises(ImportError, match="cannot import name 'random_split'"):
        from hdte import random_split  # noqa: F401


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
    """A fresh ``import hdte`` loads none of its modules, so no numpy, scipy
    or click: a caller can set thread counts before numpy starts. Once the
    CLI and the experiments are loaded, and with them every module,
    ``scipy.stats`` and ``scipy.signal`` are still not."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    code = ("import sys, hdte\n"
            "names = hdte.__all__\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('hdte', 'numpy', 'scipy', 'click')))\n"
            "import hdte.cli, hdte.simharness\n"
            "print([m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["['hdte']", "[]"]


def test_every_text_file_names_its_encoding():
    """CSV, manifest and metrics files are written, and CSV and manifest
    files read, as UTF-8 whatever the locale."""
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in unnamed_encodings(path)]
    assert found == []


def test_unnamed_encodings_are_detected(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import io, os\n"
        "from pathlib import Path\n"
        "def f(path, fd, mode):\n"
        "    open(path)\n"
        "    open(path, 'w', newline='')\n"
        "    open(path, 'rb'), open(fd, mode='wb', closefd=False)\n"
        "    open(path, encoding='utf-8'), io.open(path, 'r', -1, 'utf-8')\n"
        "    io.open(path, 'a')\n"
        "    os.open(path, os.O_RDONLY)\n"
        "    Path(path).open('w'), Path(path).open('rb')\n"
        "    Path(path).open('r', -1, 'utf-8')\n"
        "    Path(path).read_text(), Path(path).read_text('utf-8')\n"
        "    Path(path).write_text('x'), Path(path).write_text('x', encoding='utf-8')\n"
        "    open(path, mode)\n"
    )
    assert unnamed_encodings(sample) == [f"sample.py:{line}" for line in (4, 5, 8, 10, 12, 13, 14)]
