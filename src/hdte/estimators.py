"""Difference-in-means and covariate-adjusted treatment effect estimation.

:func:`adjusted_estimate` is the one estimator. It returns an
:class:`EffectEstimate` holding the effect vector ``tau_hat`` and a
covariance matrix ``sigma_hat`` normalized so that ``sigma_hat / n``
estimates ``Var(tau_hat)``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import TrialDataset, center_columns, covariate_coefficients
from .errors import DataError, NumericalError

__all__ = [
    "EffectEstimate",
    "adjusted_estimate",
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


def check_estimator(ds: TrialDataset | None, method: str) -> None:
    """Raise the :class:`DataError` that :func:`adjusted_estimate` raises on
    any rows of ``ds``: an unknown ``method``, or an adjustment without
    covariates. With ``ds`` ``None`` only the name is checked."""
    if method not in _METHODS:
        raise DataError(f"unknown estimation method {method!r}")
    if method != "dim" and ds is not None and ds.covariates is None:
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


def _slopes(x: np.ndarray, y: np.ndarray, what: str) -> np.ndarray:
    """Slopes of the columns ``y`` on the covariates ``x``, both centered
    (:func:`hdte.data.covariate_coefficients`, which raises on a rank below
    ``m``), so no explicit intercept is carried and no residual is formed."""
    return covariate_coefficients(center_columns(x)[0], center_columns(y)[0],
                                  f"covariate design in {what}")[2]


def adjusted_estimate(ds: TrialDataset, method: str, subset=None) -> EffectEstimate:
    """Effects on the outcome columns ``subset`` of ``ds`` (all for ``None``):
    the difference of arm means of the columns adjusted by ``method``.

    ``"dim"`` adjusts nothing. ``"cuped"`` subtracts the covariates times the
    slopes of one regression over the full sample, which does not condition
    on treatment (needs ``m < n``). ``"lin"`` fits the regression within each
    arm and subtracts the covariates times ``(n_c / n) * theta_treated +
    (n_t / n) * theta_control`` (needs ``m < min(n_t, n_c)``).

    ``tau_hat`` is the treated-arm mean minus the control-arm mean per
    column. ``sigma_hat`` sums the within-arm scatter matrices, each divided
    by its own arm size and rescaled by ``n / n_arm``. Slopes are fit per
    column, so restricting to ``subset`` before or after estimation gives
    the same numbers; an index outside the columns is reported before any
    other check of the rows.
    """
    check_estimator(ds, method)
    y = ds.outcomes if subset is None else ds.restrict_outcomes(subset).outcomes
    x, n = ds.covariates, ds.n
    if method == "cuped":
        if ds.m >= n:
            raise DataError(f"adjustment needs m < n, got m={ds.m}, n={n}")
        y = y - x @ _slopes(x, y, "pooled adjustment")
    t_mask, n_t, n_c = _check_arms(ds)
    if method == "lin":
        if ds.m >= min(n_t, n_c):
            raise DataError(
                f"per-arm adjustment needs m < min(n_t, n_c), got m={ds.m}, "
                f"n_t={n_t}, n_c={n_c}"
            )
        theta_t, theta_c = (_slopes(x[arm], y[arm], name)
                            for arm, name in ((t_mask, "treated arm"),
                                              (~t_mask, "control arm")))
        y = y - x @ ((n_c / n) * theta_t + (n_t / n) * theta_c)
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
