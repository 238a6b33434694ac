"""Scaling-law fits for the Fig. 3(b) analysis.

The paper's trick: if the energy law is ``W = c (log n)^b``, then
``log W = log c + b log log n`` — so regressing ``log W`` on
``log log n`` recovers the *power of the logarithm* as the slope.  The
paper reads slopes of about 2 (GHS), 1 (EOPT), 0 (Co-NNT) off that plot;
:func:`fit_loglog_slope` reproduces the fit numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError, ExperimentError


@dataclass(frozen=True)
class FitResult:
    """Least-squares line fit ``y = intercept + slope * x``."""

    slope: float
    intercept: float
    r_squared: float


def _linfit(x: np.ndarray, y: np.ndarray) -> FitResult:
    if len(x) != len(y):
        raise ExperimentError(f"x and y lengths differ: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ExperimentError("need at least 2 points to fit a line")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ConvergenceError("non-finite values in fit input")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(slope=float(slope), intercept=float(intercept), r_squared=r2)


def fit_loglog_slope(ns: np.ndarray, energies: np.ndarray) -> FitResult:
    """Fit ``log W`` against ``log log n`` (paper Fig. 3(b)).

    The returned slope estimates ``b`` in ``W = c (log n)^b``.  All ``n``
    must exceed ``e`` so ``log log n > 0``, and energies must be positive.
    """
    ns = np.asarray(ns, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if np.any(ns <= np.e):
        raise ExperimentError("all n must exceed e for log log n to be positive")
    if np.any(energies <= 0):
        raise ExperimentError("energies must be positive for the log fit")
    return _linfit(np.log(np.log(ns)), np.log(energies))


def fit_power_law(ns: np.ndarray, values: np.ndarray) -> FitResult:
    """Fit ``log y`` against ``log n`` — slope is the polynomial exponent.

    Used to check e.g. that Co-NNT's total *message* count grows linearly
    (slope ≈ 1) while its energy stays flat.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(ns <= 0) or np.any(values <= 0):
        raise ExperimentError("power-law fit needs positive inputs")
    return _linfit(np.log(ns), np.log(values))
