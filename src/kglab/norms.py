"""Norms, the weighted-norm sandwich, and growth-law fitting.

Everything the estimates are measured in: Sobolev H^s, derivative sup
norms W^{m,inf}, weighted <x>^alpha L^2, and the physically-localized
dyadic composite l^1_k l^2_j of 2^{j alpha} ||Q_j P_k f||, which
sandwich_check compares with the weighted norm.  Exponent fits are
ordinary least squares in log-log (or log-linear) coordinates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import Field
from .spectral import derivative, lambda_mag, lp_project, q_shell

__all__ = [
    "sobolev",
    "holder_sup",
    "weighted_l2",
    "sandwich_check",
    "FitResult",
    "loglog_fit",
    "linlog_fit",
]


def sobolev(f: Field, s: float) -> float:
    """|| <xi>^s f ||_{L^2} via the coefficient-side Parseval sum."""
    lam = lambda_mag(f.grid)
    total = np.sum((lam ** (2.0 * s)) * np.abs(f.coeffs) ** 2)
    return float(np.sqrt(f.grid.volume * total))


def holder_sup(f: Field, m: int) -> float:
    """max over multi-indices |beta| <= m of sup |d^beta f|.

    Spectral derivatives (:func:`spectral.derivative`, one axis at a
    time) evaluated at the collocation points; for the band-limited
    fields the lab works with, the grid sup is the sup.
    """
    best = 0.0
    for order in range(int(m) + 1):
        for beta in itertools.combinations_with_replacement(range(f.grid.d), order):
            d_beta = f
            for axis in beta:
                d_beta = derivative(d_beta, axis)
            best = max(best, d_beta.sup())
    return best


def weighted_l2(f: Field, alpha: float) -> float:
    """|| <x>^alpha f ||_{L^2} by direct quadrature on the box."""
    grid = f.grid
    w = (1.0 + grid.x_mags**2) ** alpha
    total = np.sum(w * np.abs(f.values) ** 2)
    return float(np.sqrt(grid.quad_weight * total))


def sandwich_check(f: Field, alpha: float) -> dict:
    """Measure the two-sided comparison around the weighted L^2 norm.

    Every single piece 2^{j alpha}||Q_j P_k f|| sits below the weighted
    norm, and the weighted norm sits below the full composite, the l^1
    in k of the l^2-in-j norm of the pieces, with the shells running
    over the full lattice ranges -1..k_top and -1..j_top.  Returns the
    measured constants; both must be finite for nonzero input.
    """
    mid = weighted_l2(f, alpha)
    grid = f.grid
    largest_piece = 0.0
    upper = 0.0
    for k in range(-1, grid.k_top + 1):
        pk = lp_project(f, k)
        sq = 0.0
        for j in range(-1, grid.j_top + 1):
            val = 2.0 ** (j * alpha) * q_shell(pk, j).l2()
            largest_piece = max(largest_piece, val)
            sq += val * val
        upper += math.sqrt(sq)
    lower_const = largest_piece / mid if mid > 0 else 0.0
    upper_const = mid / upper if upper > 0 else 0.0
    return {
        "weighted": mid,
        "largest_piece": largest_piece,
        "composite": upper,
        "piece_over_weighted": lower_const,
        "weighted_over_composite": upper_const,
        "ok": bool(largest_piece <= mid * (1.0 + 1e-10) and mid <= upper * (1.0 + 1e-10))
        if mid > 0
        else True,
    }


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r2: float
    n_points: int
    window: tuple
    stderr: float = 0.0

    @property
    def ci95(self) -> float:
        """Half-width of a 2-sigma confidence band on the slope."""
        return 2.0 * self.stderr

    def __str__(self):
        return (
            f"slope={self.slope:+.4f}+-{self.ci95:.4f} r2={self.r2:.4f} "
            f"({self.n_points} pts on [{self.window[0]:g}, {self.window[1]:g}])"
        )


def _ols(x: np.ndarray, y: np.ndarray, window) -> FitResult:
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    sxx = float(np.sum((x - np.mean(x)) ** 2))
    if len(x) > 2 and sxx > 0:
        stderr = math.sqrt(ss_res / (len(x) - 2) / sxx)
    else:
        stderr = 0.0
    return FitResult(float(slope), float(intercept), r2, len(x), window, stderr)


def loglog_fit(ts, ys, t_min: float = None, t_max: float = None) -> FitResult:
    """OLS fit of log y against log t over the trust window."""
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    lo = ts.min() if t_min is None else t_min
    hi = ts.max() if t_max is None else t_max
    keep = (ts >= lo) & (ts <= hi) & (ys > 0)
    if keep.sum() < 2 or ts[keep].min() == ts[keep].max():
        raise ValueError("need positive samples at two distinct t inside the window")
    return _ols(np.log(ts[keep]), np.log(ys[keep]), (float(lo), float(hi)))


def linlog_fit(ts, ys, t_min: float = None, t_max: float = None) -> FitResult:
    """OLS fit of y against ln t; for logarithmic growth laws."""
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    lo = ts.min() if t_min is None else t_min
    hi = ts.max() if t_max is None else t_max
    keep = (ts >= lo) & (ts <= hi)
    if keep.sum() < 2 or ts[keep].min() == ts[keep].max():
        raise ValueError("need samples at two distinct t inside the window")
    return _ols(np.log(ts[keep]), ys[keep], (float(lo), float(hi)))
