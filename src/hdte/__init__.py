"""Treatment effect detection across many outcome dimensions.

Randomized-experiment data with a high-dimensional outcome vector: estimate
per-dimension effects with optional covariate adjustment, select the few
dimensions that carry the effect via a weighted treatment-on-outcomes
regression, and test the selected subset on held-out data with sample
splitting and p-value aggregation.

Names are resolved on first access (PEP 562), so ``import hdte`` loads no
submodule, nor numpy or scipy; ``hdte.X`` is the defining module's ``X``.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by its defining module; a module's ``__all__`` is its list.
_EXPORTS = {
    "data": ("CsvSchema", "TrialDataset", "aggregate_columns", "center_columns",
             "column_group_means", "load_csv", "split_indices", "write_csv"),
    "errors": ("DataError", "HdteError", "NumericalError"),
    "estimators": ("EffectEstimate", "adjusted_estimate"),
    "inference": ("MultiSplitReport", "PValueReport", "aggregate_pvalues", "hotelling_pvalue",
                  "hotelling_statistic", "multi_split", "single_split_pipeline", "split_seeds",
                  "z_pvalues"),
    "selection": ("PopulationTarget", "SelectionResult", "SelectionSpec", "baseline_select",
                  "method_l1_ratio", "population_beta_star", "run_selection"),
    "simharness": ("ExperimentMetrics", "LinearModelConfig", "LinearModelGenerator",
                   "TraceExperimentConfig", "apply_window_effect", "compute_tir",
                   "gen_glucose_traces", "run_power_experiment", "run_recovery_experiment",
                   "run_semisynth_experiment", "window_level_groupings", "write_metrics_csv"),
    "wlasso": ("EnetConfig", "EnetFit", "EnetPath", "WeightedProblem", "fit_weighted_enet",
               "lambda_max", "level_problems", "propensity_weights", "regularization_path"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
