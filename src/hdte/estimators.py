"""Difference-in-means and covariate-adjusted treatment effect estimation.

All estimators return an :class:`EffectEstimate` holding the effect vector
``tau_hat`` and a covariance matrix ``sigma_hat`` normalized so that
``sigma_hat / n`` estimates ``Var(tau_hat)``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import TrialDataset, center_columns, project_columns
from .errors import DataError, NumericalError

__all__ = [
    "EffectEstimate",
    "AdjustedOutcomes",
    "diff_in_means",
    "cuped_adjust",
    "lin_adjust",
    "adjusted_estimate",
    "check_estimator",
]

_METHODS = ("dim", "cuped", "lin")


@dataclass(frozen=True)
class EffectEstimate:
    """Estimated effects on a set of outcome columns.

    ``tau_hat`` is ``(s,)``, ``sigma_hat`` is the ``(s, s)`` covariance scaled
    by ``n`` (i.e. ``sqrt(sigma_hat[j, j] / n)`` is the standard error of
    ``tau_hat[j]``), and ``index_set`` records which outcome columns of the
    source dataset the entries refer to.
    """

    tau_hat: np.ndarray
    sigma_hat: np.ndarray
    n_t: int
    n_c: int
    n: int
    method: str
    index_set: tuple[int, ...]

    def __post_init__(self):
        tau = np.asarray(self.tau_hat, dtype=np.float64)
        sigma = np.asarray(self.sigma_hat, dtype=np.float64)
        s = tau.shape[0]
        if sigma.shape != (s, s):
            raise DataError(
                f"sigma_hat shape {sigma.shape} does not match tau_hat length {s}"
            )
        if s and not np.allclose(sigma, sigma.T, atol=1e-10, rtol=0.0):
            raise NumericalError("sigma_hat is not symmetric")
        if np.any(np.diag(sigma) < 0):
            raise NumericalError("sigma_hat has a negative diagonal entry")
        if self.method not in _METHODS:
            raise DataError(f"unknown estimation method {self.method!r}")
        if self.n_t + self.n_c != self.n:
            raise DataError("arm sizes do not add up to n")
        object.__setattr__(self, "tau_hat", tau)
        object.__setattr__(self, "sigma_hat", sigma)
        object.__setattr__(self, "index_set", tuple(int(j) for j in self.index_set))

    @classmethod
    def _trusted(cls, *values) -> "EffectEstimate":
        """An estimate of fields built as ``__post_init__`` leaves them (an exactly
        symmetric ``sigma_hat`` among them), without validating them again."""
        est = object.__new__(cls)
        for field, value in zip(fields(cls), values):
            object.__setattr__(est, field.name, value)
        return est


@dataclass(frozen=True)
class AdjustedOutcomes:
    """Covariate-adjusted outcome matrix plus the regression coefficients used.

    ``theta`` is ``(m, p)`` for the pooled adjustment and a pair of ``(m, p)``
    arrays ``(treated, control)`` for the per-arm one.
    """

    y_tilde: np.ndarray
    theta: np.ndarray | tuple[np.ndarray, np.ndarray]
    method: str


def check_estimator(ds: TrialDataset, method: str) -> None:
    """Raise the :class:`DataError` that :func:`adjusted_estimate` raises on
    any rows of ``ds``: an unknown ``method``, or an adjustment without
    covariates."""
    if method not in _METHODS:
        raise DataError(f"unknown estimation method {method!r}")
    if method != "dim" and ds.covariates is None:
        raise DataError("dataset has no covariates to adjust on")


def _check_arms(ds: TrialDataset) -> tuple[np.ndarray, int, int]:
    t_mask = ds.treatments == 1
    n_t = int(t_mask.sum())
    n_c = ds.n - n_t
    if n_t < 2 or n_c < 2:
        raise DataError(
            f"each arm needs at least 2 units, got n_t={n_t}, n_c={n_c}"
        )
    return t_mask, n_t, n_c


def _difference_of_means(ds: TrialDataset, y: np.ndarray, method: str,
                         subset) -> EffectEstimate:
    """The estimate :func:`diff_in_means` describes, of the columns ``y`` on
    the rows of ``ds``: its outcome columns ``subset`` (all for ``None``)
    adjusted by ``method``."""
    t_mask, n_t, n_c = _check_arms(ds)
    n = ds.n
    y_t = y[t_mask]
    y_c = y[~t_mask]
    mean_t = y_t.mean(axis=0)
    mean_c = y_c.mean(axis=0)
    tau = mean_t - mean_c
    dev_t = y_t - mean_t
    dev_c = y_c - mean_c
    sigma = (n / n_t) * (dev_t.T @ dev_t) / n_t + (n / n_c) * (dev_c.T @ dev_c) / n_c
    sigma = (sigma + sigma.T) / 2.0
    index_set = tuple(range(ds.p) if subset is None else map(int, subset))
    return EffectEstimate._trusted(tau, sigma, n_t, n_c, n, method, index_set)


def diff_in_means(ds: TrialDataset, subset=None) -> EffectEstimate:
    """Difference of arm means and its covariance.

    ``tau_hat`` is the treated-arm mean minus the control-arm mean per outcome
    column. ``sigma_hat`` sums the within-arm scatter matrices, each divided
    by its own arm size and rescaled by ``n / n_arm``.
    """
    work = ds if subset is None else ds.restrict_outcomes(subset)
    return _difference_of_means(ds, work.outcomes, "dim", subset)


def cuped_adjust(ds: TrialDataset) -> AdjustedOutcomes:
    """Pooled covariate adjustment: regress each outcome on the covariates
    over the full sample and subtract the fitted covariate contribution.

    The pooled regression does not condition on treatment; slopes come from
    centered data (:func:`hdte.data.project_columns`, which raises on a rank
    below ``m``), so no explicit intercept is carried.
    """
    check_estimator(ds, "cuped")
    if ds.m >= ds.n:
        raise DataError(f"adjustment needs m < n, got m={ds.m}, n={ds.n}")
    theta, _ = project_columns(center_columns(ds.covariates)[0],
                               center_columns(ds.outcomes)[0],
                               "covariate design in pooled adjustment")
    y_tilde = ds.outcomes - ds.covariates @ theta
    return AdjustedOutcomes(y_tilde, theta, "cuped")


def lin_adjust(ds: TrialDataset) -> AdjustedOutcomes:
    """Per-arm covariate adjustment with cross-weighted slopes.

    Fits the outcome-on-covariate regression separately within each arm
    (:func:`hdte.data.project_columns`) and subtracts ``(n_c / n) *
    theta_treated + (n_t / n) * theta_control`` applied to the covariates.
    """
    check_estimator(ds, "lin")
    t_mask, n_t, n_c = _check_arms(ds)
    if ds.m >= min(n_t, n_c):
        raise DataError(
            f"per-arm adjustment needs m < min(n_t, n_c), got m={ds.m}, "
            f"n_t={n_t}, n_c={n_c}"
        )
    theta_t, theta_c = (
        project_columns(center_columns(ds.covariates[arm])[0],
                        center_columns(ds.outcomes[arm])[0],
                        f"covariate design in {name}")[0]
        for arm, name in ((t_mask, "treated arm"), (~t_mask, "control arm"))
    )
    combined = (n_c / ds.n) * theta_t + (n_t / ds.n) * theta_c
    y_tilde = ds.outcomes - ds.covariates @ combined
    return AdjustedOutcomes(y_tilde, (theta_t, theta_c), "lin")


def adjusted_estimate(ds: TrialDataset, method: str, subset=None) -> EffectEstimate:
    """Covariate-adjusted estimate: adjust outcomes, then difference of means.

    ``method`` is ``"cuped"`` (pooled slopes), ``"lin"`` (per-arm slopes), or
    ``"dim"`` (no adjustment). Column restriction happens before adjustment;
    because slopes are fit per outcome column, restricting first or last gives
    the same numbers.
    """
    check_estimator(ds, method)
    if method == "dim":
        return diff_in_means(ds, subset)
    work = ds if subset is None else ds.restrict_outcomes(subset)
    adjusted = cuped_adjust(work) if method == "cuped" else lin_adjust(work)
    return _difference_of_means(ds, adjusted.y_tilde, method, subset)
