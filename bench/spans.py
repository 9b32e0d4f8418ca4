"""Spans recorded from outside the program, around calls into each layer.

A :class:`Tracer` replaces the public functions of the ``hdte`` modules by
thin wrappers, under every name a module bound them to (the defining
module's own global and each ``from .x import f`` in a caller). Each call
records one span: name, layer, start, end and the index of the enclosing
span. Spans stay in memory and are written out when the run ends.

Calls between private helpers are invisible from here; time spent in them is
charged to the nearest enclosing public function.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

LAYERS = ("cli", "data", "estimators", "wlasso", "selection", "inference", "simharness")

# Public functions per layer whose calls become spans. Names absent from a
# future version of the package are skipped, so their metrics read zero.
TRACED = {
    "cli": ("main",),
    "data": ("load_csv", "write_csv", "random_split", "aggregate_columns"),
    "estimators": ("adjusted_estimate", "diff_in_means", "lin_adjust", "cuped_adjust"),
    "wlasso": ("regularization_path", "fit_weighted_enet", "lambda_max",
               "subset_weighted_rss"),
    "selection": ("sparse_select", "path_selections", "select_resolution_level",
                  "baseline_select"),
    "inference": ("multi_split", "single_split_pipeline", "hotelling_pvalue",
                  "z_pvalues", "aggregate_pvalues"),
    "simharness": ("run_semisynth_experiment", "compute_tir"),
}


class Tracer:
    """Records spans while installed; restores every patched name on removal."""

    def __init__(self, observe=None):
        """``observe(label, result)``, if given, sees every traced return value."""
        self.observe = observe
        self.spans: list[list] = []   # [name, layer, start, end, parent]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, observe = self.spans, self._stack, self.observe
        label = f"{layer}.{name}"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([label, layer, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()
            if observe is not None:
                observe(label, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Patch ``modules`` (layer name -> imported module) in place."""
        for layer, names in TRACED.items():
            home = modules[layer]
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    continue
                wrapper = self._wrap(layer, name, original)
                for module in modules.values():
                    if getattr(module, name, None) is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def remove(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def summarize(self) -> dict:
        """Per-layer self time and per-function time and call counts.

        A span's self time is its duration minus the durations of its direct
        children, so a layer's ``self_s`` is its span time minus the time of
        child spans from other layers.
        """
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = defaultdict(int)
        for k, (name, layer, start, end, parent) in enumerate(self.spans):
            self_s[layer] += end - start - child_time[k]
            calls[name] += 1
            if parent < 0 or self.spans[parent][0] != name:
                total_s[name] += end - start
        return {"self_s": dict(self_s), "total_s": dict(total_s), "calls": dict(calls)}

    def write(self, path) -> None:
        """One JSON object per line: name, layer, start, end, parent."""
        with open(path, "w") as handle:
            for name, layer, start, end, parent in self.spans:
                handle.write(json.dumps({"name": name, "layer": layer, "start": start,
                                         "end": end, "parent": parent}) + "\n")
