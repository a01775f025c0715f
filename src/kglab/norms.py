"""Norms, time-accumulated functionals, and growth-law fitting.

Everything the estimates are measured in: Sobolev H^s, derivative sup
norms W^{m,inf}, weighted <x>^alpha L^2, the physically-localized dyadic
composite l^1_k l^2_j of 2^{j alpha} ||Q_j P_k f||, and Strichartz-type
time integrals accumulated over checkpoint schedules.  Exponent fits are
ordinary least squares in log-log (or log-linear) coordinates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Field
from .spectral import lambda_mag, lp_interval, lp_project, q_shell, semigroup

__all__ = [
    "NormSpec",
    "norm",
    "sobolev",
    "holder_sup",
    "weighted_l2",
    "dyadic_composite",
    "sandwich_check",
    "StrichartzAccumulator",
    "FitResult",
    "loglog_fit",
    "linlog_fit",
    "interpolation_check",
    "localized_estimates_check",
]

_KINDS = ("sobolev", "holder_sup", "weighted_l2", "dyadic_composite")


@dataclass(frozen=True)
class NormSpec:
    """A named norm with its parameters.

    kind         one of "sobolev", "holder_sup", "weighted_l2",
                 "dyadic_composite"
    s            Sobolev regularity (sobolev only), s >= 0
    m            derivative count (holder_sup only), integer m >= 0
    alpha        spatial weight exponent (weighted_l2 / dyadic_composite),
                 0 < alpha < 1
    """

    kind: str
    s: float = 0.0
    m: int = 0
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == "sobolev" and self.s < 0:
            raise ValueError("sobolev index must be >= 0")
        if self.kind == "holder_sup":
            if self.m < 0 or self.m != int(self.m):
                raise ValueError("derivative count must be a nonnegative integer")
        if self.kind in ("weighted_l2", "dyadic_composite"):
            if not 0.0 < self.alpha < 1.0:
                raise ValueError("weight exponent must lie in (0, 1)")

    @property
    def label(self) -> str:
        """Stable column name for CSV headers."""
        if self.kind == "sobolev":
            return f"sobolev_{self.s:g}"
        if self.kind == "holder_sup":
            return f"holdersup_{self.m}"
        if self.kind == "weighted_l2":
            return f"weightedL2_{self.alpha:g}"
        return f"dyadic_{self.alpha:g}"


def sobolev(f: Field, s: float) -> float:
    """|| <xi>^s f ||_{L^2} via the coefficient-side Parseval sum."""
    lam = lambda_mag(f.grid)
    total = np.sum((lam ** (2.0 * s)) * np.abs(f.coeffs) ** 2)
    return float(np.sqrt(f.grid.volume * total))


def holder_sup(f: Field, m: int) -> float:
    """max over multi-indices |beta| <= m of sup |d^beta f|.

    Spectral derivatives evaluated at the collocation points; for the
    band-limited fields the lab works with, the grid sup is the sup.
    """
    grid = f.grid
    xi = grid.xi_components()
    best = 0.0
    for order in range(int(m) + 1):
        for beta in itertools.combinations_with_replacement(range(grid.d), order):
            mult = np.ones(grid.shape, dtype=complex)
            for axis in beta:
                mult = mult * (1j * xi[axis])
            vals = np.fft.ifftn(f.coeffs * mult, norm="forward")
            best = max(best, float(np.max(np.abs(vals))))
    return best


def weighted_l2(f: Field, alpha: float) -> float:
    """|| <x>^alpha f ||_{L^2} by direct quadrature on the box."""
    grid = f.grid
    w = (1.0 + grid.x_mags**2) ** alpha
    total = np.sum(w * np.abs(f.values) ** 2)
    return float(np.sqrt(grid.quad_weight * total))


def dyadic_composite(f: Field, alpha: float) -> float:
    """l^1 in k of the l^2-in-j norm of 2^{j alpha} || Q_j P_k f ||.

    The controlling side of the weighted-norm sandwich; the shells run
    over the full lattice ranges -1..k_top and -1..j_top.
    """
    grid = f.grid
    total = 0.0
    for k in range(-1, grid.k_top + 1):
        pk = lp_project(f, k)
        sq = 0.0
        for j in range(-1, grid.j_top + 1):
            val = 2.0 ** (j * alpha) * q_shell(pk, j).l2()
            sq += val * val
        total += math.sqrt(sq)
    return total


def norm(f: Field, spec: NormSpec) -> float:
    """Evaluate the norm named by spec on a field."""
    if spec.kind == "sobolev":
        return sobolev(f, spec.s)
    if spec.kind == "holder_sup":
        return holder_sup(f, spec.m)
    if spec.kind == "weighted_l2":
        return weighted_l2(f, spec.alpha)
    return dyadic_composite(f, spec.alpha)


def sandwich_check(f: Field, alpha: float) -> dict:
    """Measure the two-sided comparison around the weighted L^2 norm.

    Every single piece 2^{j alpha}||Q_j P_k f|| sits below the weighted
    norm, and the weighted norm sits below the full composite.  Returns
    the measured constants; both must be finite for nonzero input.
    """
    mid = weighted_l2(f, alpha)
    grid = f.grid
    largest_piece = 0.0
    for k in range(-1, grid.k_top + 1):
        pk = lp_project(f, k)
        for j in range(-1, grid.j_top + 1):
            largest_piece = max(largest_piece, 2.0 ** (j * alpha) * q_shell(pk, j).l2())
    upper = dyadic_composite(f, alpha)
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


@dataclass
class StrichartzAccumulator:
    """Trapezoid accumulation of integral (s^weight ||f(s)||_inf)^p ds.

    Checkpoints must arrive in strictly increasing time order; value()
    reports the p-th root, i.e. the L^p-in-time norm accumulated so far.
    """

    p: float = 2.0
    weight: float = 0.0
    times: list = field(default_factory=list)
    integrands: list = field(default_factory=list)
    total: float = 0.0

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("time integrability exponent must be >= 2")

    @property
    def label(self) -> str:
        return f"strichartz_p{self.p:g}_w{self.weight:g}"

    def update(self, t: float, sup_value: float) -> float:
        """Push one checkpoint; returns the accumulated norm."""
        if self.times and t <= self.times[-1]:
            raise ValueError("checkpoints must be strictly increasing in t")
        integrand = (t**self.weight * sup_value) ** self.p
        if self.times:
            self.total += 0.5 * (self.integrands[-1] + integrand) * (t - self.times[-1])
        self.times.append(float(t))
        self.integrands.append(float(integrand))
        return self.value()

    def value(self) -> float:
        return float(self.total ** (1.0 / self.p))


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
    if keep.sum() < 2:
        raise ValueError("need at least two positive samples inside the window")
    return _ols(np.log(ts[keep]), np.log(ys[keep]), (float(lo), float(hi)))


def linlog_fit(ts, ys, t_min: float = None, t_max: float = None) -> FitResult:
    """OLS fit of y against ln t; for logarithmic growth laws."""
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    lo = ts.min() if t_min is None else t_min
    hi = ts.max() if t_max is None else t_max
    keep = (ts >= lo) & (ts <= hi)
    if keep.sum() < 2:
        raise ValueError("need at least two samples inside the window")
    return _ols(np.log(ts[keep]), ys[keep], (float(lo), float(hi)))


def interpolation_check(V: Field, alpha: float, N: float, eps2: float, ns=None) -> dict:
    """Measured constant in ||Q_j P_k V|| <= C 2^{-j alpha (1-n/N) - n k} eps2.

    Interpolates the weighted bound (n=0) against the H^N bound (n=N);
    sampled over the lattice shells and a few intermediate n.
    """
    if eps2 <= 0:
        raise ValueError("bootstrap size must be positive")
    grid = V.grid
    if ns is None:
        ns = (0.0, N / 2.0, N)
    worst = 0.0
    arg = None
    for n in ns:
        if not 0.0 <= n <= N:
            raise ValueError("interpolation index must lie in [0, N]")
        for k in range(-1, grid.k_top + 1):
            pk = lp_project(V, k)
            for j in range(-1, grid.j_top + 1):
                lhs = q_shell(pk, j).l2()
                rhs = 2.0 ** (-j * alpha * (1.0 - n / N) - n * k) * eps2
                ratio = lhs / rhs
                if ratio > worst:
                    worst, arg = ratio, (j, k, n)
    return {"constant": worst, "argmax": arg, "ns": tuple(ns)}


def localized_estimates_check(
    snapshots,
    k: int,
    j: int,
    *,
    alpha: float,
    N: float,
    eps2: float,
    n1: float = 0.0,
    n2: float = None,
    beta1: float = 0.0,
    beta2: float = 1.0,
    n_str: float = None,
    mu: int = +1,
) -> dict:
    """Left/right ratios for the localized dispersive and Strichartz bounds.

    snapshots: iterable of (t, V) profile pairs, strictly increasing t.
    The dispersive side tests, for each snapshot,

        sup |e^{i t mu Lambda} P_[k-1,k+1] Q_j P_k V_mu|
            <= C 2^{k(1-n1+alpha(1-n2/N)) + j alpha (n1-n2)/N}
               t^{-alpha(1-n2/N)} eps2

    and the Strichartz side accumulates the square of s^{beta1/2} times
    the same sup over [1, t] against

        C 2^{k(1+beta2-n) + j beta2 - j alpha (1-n/N)} eps2.

    Requires beta1 < beta2; n-type indices must lie in [0, N].
    """
    if n2 is None:
        n2 = N
    if n_str is None:
        n_str = N
    for name, val in (("n1", n1), ("n2", n2), ("n", n_str)):
        if not 0.0 <= val <= N:
            raise ValueError(f"{name} must lie in [0, {N}]")
    if not 0.0 <= beta1 < beta2 <= 1.0:
        raise ValueError("need 0 <= beta1 < beta2 <= 1")
    if mu not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if eps2 <= 0:
        raise ValueError("bootstrap size must be positive")

    disp_ratio = 0.0
    disp_arg = None
    acc = StrichartzAccumulator(p=2.0, weight=beta1 / 2.0)
    str_ratio = 0.0
    last_t = None
    for t, V in snapshots:
        if last_t is not None and t <= last_t:
            raise ValueError("snapshots must be strictly increasing in t")
        last_t = t
        Vmu = V if mu == +1 else V.conj()
        piece = lp_interval(q_shell(lp_project(Vmu, k), j), k - 1, k + 1)
        sup = semigroup(piece, t, mu).sup()
        rhs_disp = (
            2.0 ** (k * (1.0 - n1 + alpha * (1.0 - n2 / N)) + j * alpha * (n1 - n2) / N)
            * t ** (-alpha * (1.0 - n2 / N))
            * eps2
        )
        if sup / rhs_disp > disp_ratio:
            disp_ratio, disp_arg = sup / rhs_disp, t
        acc.update(t, sup)
        rhs_str = (
            2.0 ** (k * (1.0 + beta2 - n_str) + j * beta2 - j * alpha * (1.0 - n_str / N))
            * eps2
        )
        str_ratio = max(str_ratio, acc.value() / rhs_str)
    if last_t is None:
        raise ValueError("no snapshots supplied")
    return {
        "k": k,
        "j": j,
        "mu": mu,
        "dispersive_ratio": disp_ratio,
        "dispersive_argmax_t": disp_arg,
        "strichartz_ratio": str_ratio,
        "params": {
            "alpha": alpha,
            "N": N,
            "eps2": eps2,
            "n1": n1,
            "n2": n2,
            "beta1": beta1,
            "beta2": beta2,
            "n": n_str,
        },
    }
