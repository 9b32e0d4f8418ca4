"""What the benchmark in ``bench/`` reads of the package still exists: every
``hdte`` name its scripts read resolves, every call they make on one binds
to its signature, every layer it traces is loaded by its imports, and every
function it traces is defined but those already cut from the package, whose
metrics read zero. A cut of the public surface, a parameter among them, then
fails here rather than breaking a benchmark run or silently zeroing one of
its per-layer metrics. ``bench/`` is only read."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

# Traced functions folded into other objects; their metrics already read zero.
GONE = {"data.random_split", "estimators.diff_in_means", "estimators.lin_adjust",
        "estimators.cuped_adjust", "wlasso.subset_weighted_rss", "selection.sparse_select",
        "selection.path_selections", "selection.select_resolution_level"}


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def hdte_reads(path: Path) -> list[str]:
    """The dotted ``hdte`` names one source file reads: imported modules,
    attribute chains on ``hdte``, and ``module.name`` for each
    ``_capture(module, "name")`` that swaps a name in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            reads.append(_dotted(node))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_capture" \
                and len(node.args) == 2 and isinstance(node.args[1], ast.Constant):
            reads.append(f"{_dotted(node.args[0])}.{node.args[1].value}")
    return [name for name in reads if name and name.split(".")[0] == "hdte"]


def _resolve(dotted: str):
    """What ``hdte.a.b`` names, importing submodules on the way; ``None`` if
    it names nothing."""
    value = importlib.import_module("hdte")
    for part in dotted.split(".")[1:]:
        if hasattr(value, part):
            value = getattr(value, part)
            continue
        try:
            value = importlib.import_module(f"{value.__name__}.{part}")
        except (AttributeError, ImportError):
            return None
    return value


def resolves(dotted: str) -> bool:
    """Whether ``hdte.a.b`` names something, importing submodules on the way."""
    return _resolve(dotted) is not None


def hdte_calls(path: Path) -> list[tuple[int, str, int | None, tuple[str, ...]]]:
    """``(line, name, positional, keywords)`` for each call one source file
    makes on an ``hdte`` attribute chain: the number of positional arguments
    (``None`` where one is starred) and the names of the keyword arguments
    (a ``**`` mapping left out)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.lineno, name,
             None if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args),
             tuple(kw.arg for kw in node.keywords if kw.arg is not None))
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            for name in [_dotted(node.func)] if name and name.split(".")[0] == "hdte"]


def unbound_calls(path: Path) -> list[str]:
    """``file:line: name`` for each call of :func:`hdte_calls` whose arguments
    do not bind to the signature of what it calls (``bind_partial``: a
    missing argument is left to the run)."""
    unbound = []
    for line, name, positional, keywords in hdte_calls(path):
        try:
            inspect.signature(_resolve(name)).bind_partial(
                *[None] * (positional or 0), **dict.fromkeys(keywords))
        except TypeError:
            unbound.append(f"{path.name}:{line}: {name}")
    return unbound


def _spans():
    """``bench/spans.py``, loaded from its file under a name of its own."""
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hdte_name_the_benchmark_reads_resolves():
    reads = sorted({name for path in sorted(BENCH.glob("*.py")) for name in hdte_reads(path)})
    assert {"hdte.cli.main", "hdte.lambda_max", "hdte.fit_weighted_enet",
            "hdte.simharness.multi_split"} <= set(reads)
    assert [name for name in reads if not resolves(name)] == []


def test_hdte_reads_are_detected(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import hdte, numpy as np\n"
        "import hdte.cli\n"
        "def op(ds):\n"
        "    with _capture(hdte.cli, 'multi_split'), capture(hdte.data, 'x'):\n"
        "        return hdte.cli.main([]), hdte.lambda_max(ds), np.hdte.zeros(2)\n"
    )
    assert sorted(hdte_reads(sample)) == [
        "hdte", "hdte.cli", "hdte.cli", "hdte.cli", "hdte.cli.main",
        "hdte.cli.multi_split", "hdte.data", "hdte.lambda_max"]
    assert resolves("hdte.cli.main") and resolves("hdte.EnetConfig")
    assert not resolves("hdte.random_split") and not resolves("hdte.cli.nope")


def test_every_call_the_benchmark_makes_binds():
    """Every keyword (and the count of positional arguments) that ``bench/``
    passes to an ``hdte`` callable is one its signature takes, so deleting a
    parameter it sets (``LinearModelConfig``'s ``seed=``, say) fails here."""
    paths = sorted(BENCH.glob("*.py"))
    called = {name for path in paths for _, name, _, keywords in hdte_calls(path) if keywords}
    assert {"hdte.LinearModelConfig", "hdte.TraceExperimentConfig",
            "hdte.simharness.run_semisynth_experiment"} <= called
    assert [call for path in paths for call in unbound_calls(path)] == []


def test_unbound_calls_are_detected(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import hdte\n"
        "def op(ds, args):\n"
        "    hdte.LinearModelConfig(n=4, p=1, m=0, s_tau=0, alpha=0.0, pi=0.5, seed=0)\n"
        "    hdte.LinearModelConfig(n=4, p=1, m=0, s_tau=0, alpha=0.0, pi=0.5, nope=1)\n"
        "    hdte.compute_tir(ds, 60, window=1), hdte.compute_tir(ds, 60, (70, 180))\n"
        "    hdte.lambda_max(*args, l1_ratio=1.0), hdte.cli.main([], **args), ds.fit(nope=1)\n"
    )
    assert [call[1:] for call in hdte_calls(sample)] == [
        ("hdte.LinearModelConfig", 0, ("n", "p", "m", "s_tau", "alpha", "pi", "seed")),
        ("hdte.LinearModelConfig", 0, ("n", "p", "m", "s_tau", "alpha", "pi", "nope")),
        ("hdte.compute_tir", 2, ("window",)), ("hdte.compute_tir", 3, ()),
        ("hdte.lambda_max", None, ("l1_ratio",)), ("hdte.cli.main", 1, ())]
    assert unbound_calls(sample) == ["sample.py:4: hdte.LinearModelConfig",
                                     "sample.py:5: hdte.compute_tir",
                                     "sample.py:5: hdte.compute_tir"]


def test_every_traced_function_but_the_cut_ones_exists():
    traced = {f"{layer}.{name}" for layer, names in _spans().TRACED.items() for name in names}
    missing = {label for label in traced if not resolves(f"hdte.{label}")}
    assert missing == GONE
    assert {"wlasso.regularization_path", "wlasso.fit_weighted_enet", "wlasso.lambda_max",
            "estimators.adjusted_estimate", "data.aggregate_columns", "inference.multi_split",
            "inference.hotelling_pvalue"} <= traced - missing


def test_the_workloads_imports_load_every_traced_layer():
    """The runner takes each traced layer's module from ``sys.modules`` after
    importing the workloads; with a lazy package, the workloads' own imports
    must load them all."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    imports = [alias.name for node in tree.body if isinstance(node, ast.Import)
               for alias in node.names if alias.name.split(".")[0] == "hdte"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = (f"import sys\nimport {', '.join(imports)}\n"
            f"print([m for m in {_spans().LAYERS!r} if 'hdte.' + m not in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert imports and out.stdout.strip() == "[]"
