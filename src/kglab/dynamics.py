"""Quasilinear Klein-Gordon evolution and the good-unknown reduction.

The first-order system in the real unknowns (u, w = du/dt), its
fourth-order pseudospectral integrators, and the analysis-side derived
objects: the half-wave variables U = w + i Lambda u, the profile
V = e^{-it Lambda} U, the good unknown built from the square-root
paradifferential symbol, the reduced-equation residual, and the
normal-form pieces of the profile identity (quadratic boundary term,
cubic time integral).  Those pieces apply resonance.Pseudoproduct
kernels built once per grid and spec on the whole 2/3 box
(make_boundary_kernels, make_cubic_kernels), so an audit of many
states, or of many amplitudes, evaluates each kernel once.

The square root sqrt(1+q) is carried as its cubic Taylor polynomial
W(q) = 1 + q/2 - q^2/8 + q^3/16 throughout; the neglected tail is
quartic in q and is the measured floor of the residual check.  The
symbols are keyed (paradiff.Symbol): q^k keeps one x-part per monomial
zeta^alpha of degree 2k, so in 2-D q has 3 keys, q^3 has 7 and the
tail's q^6 has 13.  A state's good-unknown objects (Z list, Q^{0j},
Q^{jl}, q and W(q)) are built once, by :func:`paralinearize`; the good
unknown, its drift and the reduced right side all read that one build.

A semilinear spec (no Q^{0j}, no Q^{jl}) steps with Lawson's
integrating-factor RK4 (Lawson 1967; Cox & Matthews 2002): the linear
Klein-Gordon flow is moved exactly, mode by mode, and only F is
sampled at the stages, so the step is bounded by accuracy rather than
stability.  Every other spec steps with classical RK4 within the CFL
limit; see :func:`step_limit`.

u and w are real-valued.  The initial data are real fields, built from
float values (``grid.Field.real``, ``data``), and :class:`KGState`
takes nothing else.  Realness propagates from there through both
steppers, every F evaluation and the good-unknown products, so their
transforms are the half-cost real ones, and their coefficients are the
rfftn halves, n^(d-1) (n/2+1) of them: the multipliers and the 2/3
masks of F, the classical RK4 combinations and Lawson's linear turn all
act on the half, and none of them completes it to the full Hermitian
array; ``Field.from_spectrum`` makes a half back into a real field.  Only
the reductions (norms, residuals) and the complex objects complete it:
the half-wave variable U and the profile V are complex.

Each step frees and reallocates the same grid-sized temporaries, so
:func:`run_to_time` first holds the heap for the grid
(``grid._hold_heap``; the ``grid`` module docstring says how and why).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import Field, Grid, _hold_heap
from .nonlinearity import NonlinearitySpec
from .norms import holder_sup, loglog_fit, sobolev
from .paradiff import Symbol, error_op, remainder, weyl_apply, zeta_factor
from .resonance import (
    SIGN_PAIRS,
    SIGN_TRIPLES,
    Pseudoproduct,
    a_kernel,
    b_kernel,
    resonant_kernel,
)
from .spectral import (
    dealiased_product,
    dealiased_sum,
    derivative,
    laplacian,
    lambda_mag,
    lambda_power,
    semigroup,
)

__all__ = [
    "KGState",
    "GoodUnknownReport",
    "RunResult",
    "z_fields",
    "coefficient_fields",
    "source_value",
    "nonlinearity_value",
    "rhs",
    "step_limit",
    "step",
    "checkpoint_times",
    "run_to_time",
    "default_norm_order",
    "paralinearize",
    "q_sup_bound",
    "good_unknown_field",
    "good_unknown",
    "reduced_equation_residual",
    "make_boundary_kernels",
    "normal_form_boundary",
    "make_cubic_kernels",
    "duhamel_check",
    "scattering_limit",
]


@dataclass(frozen=True)
class KGState:
    """One time slice of the first-order system: u and w = du/dt.

    u and w are real-valued, and the state holds the real fields it is
    given (``Field.real``), so F and both steppers run on real
    transforms.  A complex u or w raises ``ValueError``: the state does
    not convert it.
    """

    grid: Grid
    t: float
    u: Field
    w: Field

    def __post_init__(self):
        if not (self.grid == self.u.grid == self.w.grid):
            raise ValueError("state fields live on a different grid")
        if not (self.u.real and self.w.real):
            raise ValueError("u and w must be real fields: build them from real"
                             " values (Field.from_values) or from an rfftn half of"
                             " grid.half_shape (Field.from_spectrum)")

    def half_wave(self) -> Field:
        """U = w + i Lambda u."""
        lam_u = lambda_power(self.u, 1.0)
        return self.w + lam_u * 1j

    def profile(self) -> Field:
        """V = e^{-it Lambda} U."""
        return semigroup(self.half_wave(), self.t, -1)


def z_fields(state: KGState) -> list:
    """The argument list (u, du/dt, d_1 u, ..., d_d u) of the coefficients."""
    zs = [state.u, state.w]
    for axis in range(state.grid.d):
        zs.append(derivative(state.u, axis))
    return zs


def _linear_combo(coeffs: np.ndarray, zs: list, grid: Grid) -> Field:
    out = None
    for c, z in zip(coeffs, zs):
        if c == 0.0:
            continue
        # a unit coefficient passes z itself: z * 1.0 is bitwise z
        term = z if c == 1.0 else z * c
        out = term if out is None else out + term
    return Field.zero(grid) if out is None else out


def coefficient_fields(zs: list, spec: NonlinearitySpec):
    """Q^{0j} and Q^{jl} on the argument list ``zs = z_fields(state)``,
    as (list, list-of-lists); a unit coefficient row is its Z slot."""
    g = zs[0].grid
    q0 = [_linear_combo(spec.q0[j], zs, g) for j in range(g.d)]
    qd = [[_linear_combo(spec.qjl[j, l], zs, g) for l in range(g.d)] for j in range(g.d)]
    return q0, qd


def _source_terms(zs: list, spec: NonlinearitySpec):
    """The (coefficient, factor, factor) terms of S on the argument list."""
    nz = spec.nz
    for c in range(nz):
        for cp in range(c, nz):
            coeff = spec.s[c, cp] * (1.0 if c == cp else 2.0)
            if coeff != 0.0:
                yield coeff, zs[c], zs[cp]


def source_value(zs: list, spec: NonlinearitySpec) -> Field:
    """The constant-coefficient quadratic form S(u, du) on the argument
    list ``zs = z_fields(state)``: one :func:`spectral.dealiased_sum` of
    its products, sharing the Z list.
    """
    return dealiased_sum(zs[0].grid, _source_terms(zs, spec), zs)


def nonlinearity_value(state: KGState, spec: NonlinearitySpec) -> Field:
    """F = 2 Q^{0j} d_j w + Q^{jl} d^2_{jl} u + S, all products dealiased.

    One evaluation builds the Z list once and takes d_jl u from d_j u.
    A Z slot enters several products (in S, and as every unit
    coefficient row), so F is one :func:`spectral.dealiased_sum` that
    shares the Z list: each slot is inverse-transformed once per
    evaluation, and the products are summed in physical space and
    truncated once.  So F makes one forward transform (none when every
    product is zero) and is returned in coefficient space.
    """
    zs = z_fields(state)
    return _nonlinearity(zs, *coefficient_fields(zs, spec), spec)


def _nonlinearity(zs: list, q0: list, qd: list, spec: NonlinearitySpec) -> Field:
    """F on the Z list of a state and the coefficient fields on it: the
    terms of S, then 2 Q^{0j} d_j w, then Q^{jl} d_l d_j u."""
    g = zs[0].grid
    w, du = zs[1], zs[2:]
    terms = itertools.chain(
        _source_terms(zs, spec),
        ((2.0, q0[j], derivative(w, j)) for j in range(g.d)),
        ((1.0, qd[j][l], derivative(du[j], l)) for j in range(g.d) for l in range(g.d)))
    return dealiased_sum(g, terms, zs)


def rhs(state: KGState, spec: NonlinearitySpec):
    """Time derivative of (u, w): du = w, dw = Lap u - u + F."""
    dw = laplacian(state.u) - state.u + nonlinearity_value(state, spec)
    return state.w, dw


def _semilinear(spec: NonlinearitySpec) -> bool:
    return not (spec.q0.any() or spec.qjl.any())


def step_limit(grid: Grid, spec: NonlinearitySpec) -> float:
    """Largest admissible step for this spec on this grid.

    Classical RK4 needs 0.5 / lambda_max for a quasilinear spec (the CFL
    limit).  A semilinear spec steps with Lawson's method, which turns
    the linear flow exactly; its limit 2 / lambda_max lets the fastest
    mode turn at most 2 rad per step, the largest power-of-two multiple
    of the CFL step at which it is more accurate than classical RK4 at
    the CFL step on the pinned lifespan sweep.
    """
    lam_max = math.sqrt(1.0 + float(grid.xi_mags.max()) ** 2)
    return (2.0 if _semilinear(spec) else 0.5) / lam_max


def _lawson_step(state: KGState, spec: NonlinearitySpec, dt: float) -> KGState:
    """Lawson IF-RK4 in coefficient space: classical RK4 on the profile
    e^{-tL} y, written back in the state variables y = (u, w).

    With E the linear flow over dt/2 and the nonlinear part N = (0, F):
    y' = E^2 y + dt/6 (E^2 N1 + 2 E (N2 + N3) + N4), where N1 = N(y),
    N2 = N(E (y + dt/2 N1)), N3 = N(E y + dt/2 N2), N4 = N(E (E y + dt N3)).
    """
    g, t = state.grid, state.t
    # the exact linear flow over dt/2 per mode: (u, w) -> (cos u + sin/lam w,
    # -lam sin u + cos w), at the angle lam dt/2, on the rfftn halves that
    # the state's real fields store
    lam_g = g.half(lambda_mag(g))
    angle = lam_g * (dt / 2)
    cos, sin = np.cos(angle), np.sin(angle)
    sin_over_lam, lam_sin = sin / lam_g, lam_g * sin
    u, w = state.u.spectrum(), state.w.spectrum()

    def turn(a, b):
        return cos * a + sin_over_lam * b, cos * b - lam_sin * a

    def F(tt, a, b):
        state = KGState(g, tt, Field.from_spectrum(g, a), Field.from_spectrum(g, b))
        return nonlinearity_value(state, spec).spectrum()

    eu, ew = turn(u, w)
    f1 = F(t, u, w)
    f2 = F(t + dt / 2, *turn(u, w + f1 * (dt / 2)))
    f3 = F(t + dt / 2, eu, ew + f2 * (dt / 2))
    f4 = F(t + dt, *turn(eu, ew + f3 * dt))
    au, aw = turn(u, w + f1 * (dt / 6))
    nu, nw = turn(au, aw + (f2 + f3) * (dt / 3))
    return KGState(g, t + dt, Field.from_spectrum(g, nu),
                   Field.from_spectrum(g, nw + f4 * (dt / 6)))


def step(state: KGState, spec: NonlinearitySpec, dt: float) -> KGState:
    """One fourth-order step: Lawson IF-RK4 for a semilinear spec,
    classical RK4 otherwise.  dt may not exceed :func:`step_limit`."""
    limit = step_limit(state.grid, spec)
    if dt > limit * (1.0 + 1e-9):
        kind = "semilinear" if _semilinear(spec) else "quasilinear (CFL)"
        raise ValueError(f"dt={dt:g} exceeds the {kind} step limit {limit:g}")
    if _semilinear(spec):
        return _lawson_step(state, spec, dt)
    g, t, u, w = state.grid, state.t, state.u, state.w
    k1u, k1w = rhs(state, spec)
    k2u, k2w = rhs(KGState(g, t + dt / 2, u + k1u * (dt / 2), w + k1w * (dt / 2)), spec)
    k3u, k3w = rhs(KGState(g, t + dt / 2, u + k2u * (dt / 2), w + k2w * (dt / 2)), spec)
    k4u, k4w = rhs(KGState(g, t + dt, u + k3u * dt, w + k3w * dt), spec)
    du = (k1u + (k2u + k3u) * 2.0 + k4u) * (dt / 6.0)
    dw = (k1w + (k2w + k3w) * 2.0 + k4w) * (dt / 6.0)
    return KGState(g, t + dt, u + du, w + dw)


def default_norm_order(d: int) -> int:
    """Monitoring regularity floor 2d + floor(d/2) + 6."""
    return 2 * d + d // 2 + 6


def checkpoint_times(t0: float, t1: float, checkpoints: int, schedule: str) -> np.ndarray:
    """checkpoints times from t0 to t1, geometrically ("log") or evenly
    ("linear") spaced.

    Raises ValueError when a time is not finite or computing the times
    overflows: np.geomspace writes t1 over an endpoint that overflowed
    to inf, so a t1 near the largest float gives times that look finite
    though no run could step through them.
    """
    if schedule == "log":
        if t0 <= 0:
            raise ValueError("logarithmic schedule needs a positive start time")
        spacing = np.geomspace
    elif schedule == "linear":
        spacing = np.linspace
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            times = spacing(t0, t1, checkpoints)
        finite = np.all(np.isfinite(times))
    except FloatingPointError:
        finite = False
    if not finite:
        raise ValueError(f"the {schedule} schedule of {checkpoints} checkpoint times from"
                         f" t0 = {t0:g} to t1 = {t1:g} is not finite in float64")
    return times


@dataclass
class RunResult:
    rows: list
    states: list
    verdict: str
    blowup_time: float | None


def run_to_time(
    state: KGState,
    spec: NonlinearitySpec,
    t_end: float,
    *,
    dt: float = None,
    checkpoints: int = 33,
    schedule: str = "log",
    blow_up_factor: float = 10.0,
    norm_order: float = None,
    keep_states: bool = False,
) -> RunResult:
    """Integrate to t_end, recording the half-wave Sobolev norm on a
    checkpoint schedule.

    Stops early with a blow-up verdict when the recorded half-wave
    Sobolev norm exceeds blow_up_factor times its initial value or goes
    non-finite.  The checkpoint schedule is logarithmic by default (all
    decay fits are against t); substeps between checkpoints are uniform
    and respect both dt and :func:`step_limit`.

    Before the first step the heap is held for the grid
    (``grid._hold_heap``; see the ``grid`` module docstring).
    """
    if t_end <= state.t:
        raise ValueError("t_end must exceed the initial time")
    times = checkpoint_times(state.t, t_end, checkpoints, schedule)
    limit = step_limit(state.grid, spec)
    h_max = limit if dt is None else min(dt, limit)
    if norm_order is None:
        norm_order = default_norm_order(state.grid.d)
    _hold_heap(state.grid)

    key = f"sobolev_{norm_order:g}"
    initial = sobolev(state.half_wave(), norm_order)
    rows = [{"t": state.t, key: initial, "flag": "ok"}]
    states = [state] if keep_states else []
    verdict, blowup_time = "survived", None

    current = state
    for t_next in times[1:]:
        span = t_next - current.t
        n_sub = max(1, int(math.ceil(span / h_max - 1e-12)))
        h = span / n_sub
        for _ in range(n_sub):
            current = step(current, spec, h)
        hn = sobolev(current.half_wave(), norm_order)
        blew_up = not np.isfinite(hn) or hn > blow_up_factor * initial
        rows.append({"t": current.t, key: hn, "flag": "blow-up" if blew_up else "ok"})
        if keep_states:
            states.append(current)
        if blew_up:
            verdict, blowup_time = f"blew-up-at-{current.t:.6g}", current.t
            break
    return RunResult(rows, states, verdict, blowup_time)


# -- the good unknown ------------------------------------------------------


class Paralinearization(NamedTuple):
    """The good-unknown objects of one state: the Z list, Q^{0j} and
    Q^{jl} on it, the symbol q, and W(q) with the parts the reduced
    equation reads (W - 1, W - 1 - q/2 and Vt - 1)."""

    zs: list
    q0: list
    qd: list
    q: Symbol
    w: Symbol
    wm1: Symbol
    wm1mq2: Symbol
    vtm1: Symbol


def paralinearize(state: KGState, spec: NonlinearitySpec) -> Paralinearization:
    """Build the good-unknown objects of one state once.

    q(x, zeta) = (Q^{jl} + Q^{0j} Q^{0l}) zeta_j zeta_l / (1 + |zeta|^2),
    and W is the cubic Taylor polynomial of sqrt(1+q).  Vt = 2 W'
    replaces (1+q)^{-1/2} wherever the time derivative of W is needed,
    keeping the reduced-equation algebra exact up to the quartic tail.
    """
    d = state.grid.d
    zs = z_fields(state)
    q0, qd = coefficient_fields(zs, spec)
    q = _pair_sum([[qd[j][l] + dealiased_product(q0[j], q0[l]) for l in range(d)]
                   for j in range(d)])
    q2 = q.power(2)
    q3 = q2 * q
    wm1mq2 = q2 * (-0.125) + q3 * 0.0625
    wm1 = q * 0.5 + wm1mq2
    w = Symbol.one(q.grid) + wm1
    vtm1 = q * (-0.5) + q2 * 0.375
    return Paralinearization(zs, q0, qd, q, w, wm1, wm1mq2, vtm1)


def q_sup_bound(q: Symbol) -> float:
    """Triangle-inequality sup bound: sum over keys of sup|xpart| times
    sup|zeta^alpha <zeta>^p|.

    The zeta sup is taken over a half-step refinement of the frequency
    lattice, which is where the Weyl quantization actually samples the
    symbol.
    """
    g = q.grid
    axes = [np.arange(-g.n, g.n) * (g.dxi / 2.0) for _ in range(g.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    total = 0.0
    for (alpha, p), xpart in q.parts.items():
        zmax = float(np.max(np.abs(zeta_factor(pts, alpha, p))))
        total += float(np.max(np.abs(xpart.values))) * zmax
    return total


def _zeta_sum(fs: list, p: int = 0) -> Symbol:
    """sum_j fs[j](x) zeta_j <zeta>^p."""
    return sum((Symbol.term(f, (j,), p) for j, f in enumerate(fs)), Symbol(fs[0].grid, {}))


def _pair_sum(fs: list) -> Symbol:
    """sum_{j,l} fs[j][l](x) zeta_j zeta_l / <zeta>^2."""
    return sum((Symbol.term(f, (j, l), -2) for j, row in enumerate(fs) for l, f in enumerate(row)),
               Symbol(fs[0][0].grid, {}))


def good_unknown_field(para: Paralinearization):
    """The good unknown of the paralinearized state (u, w) = para.zs[:2]
    and its q bound, which may not exceed 1/2; no report wrapper."""
    q_bound = q_sup_bound(para.q)
    if q_bound > 0.5:
        raise ValueError(
            f"square-root symbol out of range: sup bound {q_bound:.4f} > 1/2; "
            "the data is too large for the good-unknown reduction"
        )
    u, w = para.zs[:2]
    lam_u = lambda_power(u, 1.0)
    ucal = w - weyl_apply(_zeta_sum(para.q0), u) * 1j + weyl_apply(para.w, lam_u) * 1j
    return ucal, q_bound


@dataclass(frozen=True)
class GoodUnknownReport:
    diff_norm: float
    quadratic_ratio: float
    q_bound: float


def good_unknown(state: KGState, spec: NonlinearitySpec, N: float = None) -> GoodUnknownReport:
    """Assemble the good unknown and the quadratic-closeness diagnostics."""
    if N is None:
        N = default_norm_order(state.grid.d)
    ucal, q_bound = good_unknown_field(paralinearize(state, spec))
    U = state.half_wave()
    diff = sobolev(ucal - U, N)
    denom = holder_sup(U, 3) * sobolev(U, N)
    ratio = diff / denom if denom > 0 else 0.0
    return GoodUnknownReport(diff, ratio, q_bound)


# -- reduced equation ------------------------------------------------------


def _f_q_symbols(state: KGState, para: Paralinearization, spec: NonlinearitySpec):
    """Split d(q/2)/dt into its linear part and the rest, as symbols,
    with the linear (f1_0) and quadratic (f2_0) parts of dQ^{0j}/dt;
    para is the state's paralinearization.

    The linear parts substitute du/dt = w, dw/dt = Lap u - u; the
    quadratic ones carry the nonlinearity F through the same slots, and
    F is evaluated on para's Z list and coefficient fields.
    """
    g = state.grid
    q0 = para.q0
    lin_dz = [state.w, laplacian(state.u) - state.u] + [
        derivative(state.w, axis) for axis in range(g.d)
    ]
    F = _nonlinearity(para.zs, q0, para.qd, spec)
    f1_0 = [_linear_combo(spec.q0[j], lin_dz, g) for j in range(g.d)]
    f2_0 = [F * spec.q0[j, 1] for j in range(g.d)]
    g1 = [[_linear_combo(spec.qjl[j, l], lin_dz, g) for l in range(g.d)] for j in range(g.d)]
    g2 = [[F * spec.qjl[j, l, 1] for l in range(g.d)] for j in range(g.d)]
    dq0_full = [f1_0[j] + f2_0[j] for j in range(g.d)]
    f1q = _pair_sum([[x * 0.5 for x in row] for row in g1])
    f2q = _pair_sum([[(g2[j][l] + dealiased_product(dq0_full[j], q0[l])
                       + dealiased_product(q0[j], dq0_full[l])) * 0.5 for l in range(g.d)]
                     for j in range(g.d)])
    return f1q, f2q, f1_0, f2_0


def reduced_rhs(state: KGState, para: Paralinearization, spec: NonlinearitySpec, *,
                include_truncation_tail: bool = False) -> Field:
    """Right side of the reduced equation for the good unknown, on the
    state's paralinearization ``para``.

    Sums the terms by homogeneity: the semilinear block (remainders and
    the source), the quadratic paradifferential block, and the cubic and
    higher block.  With include_truncation_tail the quartic Taylor tail
    of the square root is added too, making the identity exact up to the
    time discretization of the left side.
    """
    g = state.grid
    u, w = state.u, state.w
    lam_u = lambda_power(u, 1.0)
    zs, q0, qd, q = para.zs, para.q0, para.qd, para.q
    wm1, wm1mq2, vtm1 = para.wm1, para.wm1mq2, para.vtm1
    f1q, f2q, f1_0, f2_0 = _f_q_symbols(state, para, spec)

    one = Field.one(g)
    lam_mult = Symbol.term(one, p=1)
    inv_lam_mult = Symbol.term(one, p=-1)

    dw = [derivative(w, j) for j in range(g.d)]
    ddu = [[derivative(derivative(u, j), l) for l in range(g.d)] for j in range(g.d)]

    # semilinear block: the source plus both coefficient remainders
    sem = source_value(zs, spec)
    for j in range(g.d):
        sem = sem + remainder(q0[j], dw[j]) * 2.0
    for j in range(g.d):
        for l in range(g.d):
            sem = sem + remainder(qd[j][l], ddu[j][l])

    # quadratic block
    quad = Field.zero(g)
    for j in range(g.d):
        quad = quad + weyl_apply(Symbol.term(dw[j]), q0[j]) * 2.0
    for j in range(g.d):
        for l in range(g.d):
            quad = quad + weyl_apply(Symbol.term(ddu[j][l]), qd[j][l])
    quad = quad - weyl_apply(_zeta_sum(f1_0, -1), lam_u) * 1j
    quad = quad + weyl_apply(f1q, lam_u) * 1j
    for j in range(g.d):
        quad = quad + error_op([Symbol.term(q0[j]), Symbol.term(one, (j,))], w) * 2j
    for j in range(g.d):
        for l in range(g.d):
            quad = quad - error_op([Symbol.term(qd[j][l]), Symbol.term(one, (j, l), -1)], lam_u)
    for j in range(g.d):
        quad = quad - error_op([Symbol.term(f1_0[j], (j,)), inv_lam_mult], lam_u) * 1j
    quad = quad + error_op([q * 0.5, lam_mult], w) * 1j
    for j in range(g.d):
        quad = quad - error_op([lam_mult, Symbol.term(q0[j], (j,)), inv_lam_mult], lam_u)
    quad = quad + error_op([lam_mult, q * 0.5], lam_u)

    # cubic and higher block
    cub = Field.zero(g)
    for j in range(g.d):
        for l in range(g.d):
            cub = cub - error_op(
                [Symbol.term(q0[j], (j,)), Symbol.term(q0[l], (l,)), inv_lam_mult], lam_u
            )
    cub = cub + error_op([wm1mq2, lam_mult], w) * 1j
    wm1_lam = wm1.lam_power(1)
    for j in range(g.d):
        q0z = Symbol.term(q0[j], (j,))
        cub = cub + error_op([q0z, wm1], lam_u)
        cub = cub - error_op([wm1_lam, q0z, inv_lam_mult], lam_u)
    cub = cub + error_op([wm1_lam, wm1], lam_u)
    cub = cub + error_op([lam_mult, wm1mq2], lam_u)
    cub = cub - weyl_apply(_zeta_sum(f2_0, -1), lam_u) * 1j
    for j in range(g.d):
        cub = cub - error_op([Symbol.term(f2_0[j], (j,)), inv_lam_mult], lam_u) * 1j
    vt_f = vtm1 * f1q + f2q + vtm1 * f2q
    cub = cub + weyl_apply(vt_f, lam_u) * 1j

    total = sem + quad + cub
    if include_truncation_tail:
        q2 = q.power(2)
        q4 = q2 * q2
        tail_sym = q4 * (5.0 / 64.0) + q4 * q * (-1.0 / 64.0) + q4 * q2 * (1.0 / 256.0)
        total = total + weyl_apply(tail_sym.lam_power(1), lam_u)
    return total


def transport_symbol(para: Paralinearization) -> Symbol:
    """A = Q^{0j} zeta_j + W(q) Lambda(zeta), the paradifferential drift."""
    return _zeta_sum(para.q0) + para.w.lam_power(1)


def reduced_equation_residual(
    prev: KGState,
    nxt: KGState,
    spec: NonlinearitySpec,
    *,
    include_truncation_tail: bool = False,
) -> float:
    """|| (d/dt - i T_A) Ucal - (S + Q + C) ||_{L^2} at the midpoint.

    The time derivative is the centered difference of the good unknown
    across the two states; every other object is evaluated on the
    averaged midpoint state, whose one paralinearization serves the good
    unknown, the drift and the right side.  Converges like dt^2 down to
    the quartic Taylor floor of the square root (or to roundoff when the
    tail is included).
    """
    if prev.grid != nxt.grid:
        raise ValueError("states live on different grids")
    dt_span = nxt.t - prev.t
    if dt_span <= 0:
        raise ValueError("states must be in increasing time order")
    mid = KGState(
        prev.grid,
        0.5 * (prev.t + nxt.t),
        (prev.u + nxt.u) * 0.5,
        (prev.w + nxt.w) * 0.5,
    )
    ucal_prev, _ = good_unknown_field(paralinearize(prev, spec))
    ucal_next, _ = good_unknown_field(paralinearize(nxt, spec))
    para = paralinearize(mid, spec)
    ucal_mid, _ = good_unknown_field(para)
    dt_ucal = (ucal_next - ucal_prev) * (1.0 / dt_span)
    lhs = dt_ucal - weyl_apply(transport_symbol(para), ucal_mid) * 1j
    total = reduced_rhs(mid, para, spec, include_truncation_tail=include_truncation_tail)
    return (lhs - total).l2()


# -- profile identities ----------------------------------------------------


def _profile_sum(state: KGState, kernels: dict) -> Field:
    """e^{-it Lambda} of the sum of kern(U_s1, U_s2, ...) over the kernels'
    sign keys, with U_+ = U and U_- = conj(U)."""
    U = state.half_wave()
    fields = {+1: U, -1: U.conj()}
    total = Field.zero(state.grid)
    for signs, kern in kernels.items():
        total = total + kern.apply(*(fields[s] for s in signs))
    return semigroup(total, state.t, -1)


def make_boundary_kernels(grid: Grid, spec: NonlinearitySpec) -> dict:
    """The B_{Phi^{-1} a} pseudoproducts on the whole 2/3 box, per sign pair."""
    return {
        (mu, nu): Pseudoproduct(resonant_kernel(a_kernel(spec, mu, nu), mu, nu),
                                grid, None, None)
        for mu, nu in SIGN_PAIRS
    }


def normal_form_boundary(state: KGState, kernels: dict) -> Field:
    """-i e^{-it Lambda} B_{Phi^{-1} a}(U_mu, U_nu), summed over sign pairs,
    with the kernels of make_boundary_kernels.

    The boundary contribution of integrating the quadratic interaction
    by parts in time.
    """
    return _profile_sum(state, kernels) * (-1j)


def make_cubic_kernels(grid: Grid, spec: NonlinearitySpec) -> dict:
    """The T_b pseudoproducts on the whole 2/3 box, per sign triple."""
    return {trip: Pseudoproduct(b_kernel(spec, *trip), grid, None, None, None)
            for trip in SIGN_TRIPLES}


def _quad_weights(ts: np.ndarray, rule: str) -> np.ndarray:
    n = len(ts)
    if n < 2:
        raise ValueError("need at least two quadrature nodes")
    if rule == "trapezoid":
        wts = np.zeros(n)
        gaps = np.diff(ts)
        wts[:-1] += 0.5 * gaps
        wts[1:] += 0.5 * gaps
        return wts
    if rule == "simpson":
        if n < 3 or n % 2 == 0:
            raise ValueError("simpson needs an odd number of nodes (>= 3)")
        h = ts[1] - ts[0]
        if not np.allclose(np.diff(ts), h, rtol=1e-8):
            raise ValueError("simpson needs uniform node spacing")
        wts = np.ones(n)
        wts[1:-1:2] = 4.0
        wts[2:-1:2] = 2.0
        return wts * (h / 3.0)
    raise ValueError(f"unknown quadrature rule {rule!r}")


def duhamel_check(
    states: list,
    boundary_kernels: dict,
    cubic_kernels: dict,
    *,
    rule: str = "simpson",
) -> dict:
    """Profile identity audit: V(T) - V(1) vs boundary + cubic integral.

    The states are quadrature nodes of one trajectory, and the kernels
    those of make_boundary_kernels and make_cubic_kernels on their grid.
    Returns the L^2 sizes of the boundary term, the cubic integral and
    the mismatch, and the number of nodes; for small data the boundary
    is quadratic in the amplitude, the integral cubic, and the mismatch
    carries only the integrator and quadrature errors.
    """
    if len(states) < 2:
        raise ValueError("need at least the two endpoint states")
    ts = np.array([s.t for s in states])
    if np.any(np.diff(ts) <= 0):
        raise ValueError("states must be strictly increasing in time")
    grid = states[0].grid
    lhs = states[-1].profile() - states[0].profile()
    bnd = (normal_form_boundary(states[-1], boundary_kernels)
           - normal_form_boundary(states[0], boundary_kernels))
    wts = _quad_weights(ts, rule)
    integral = Field.zero(grid)
    for wt, s in zip(wts, states):
        # the cubic node: +i e^{-it Lambda} of the trilinear interactions
        integral = integral + _profile_sum(s, cubic_kernels) * 1j * wt
    mismatch = lhs - bnd - integral
    return {
        "boundary": bnd.l2(),
        "cubic": integral.l2(),
        "mismatch": mismatch.l2(),
        "nodes": len(states),
    }


def scattering_limit(snapshots: list, *, alpha: float, N: float) -> dict:
    """Cauchy audit of the profile: V(t) settles toward its last snapshot.

    snapshots: (t, V) pairs, strictly increasing, at least ten of them.
    Fits the decay exponent of ||V(t) - V_inf|| over all but the final
    checkpoint, and reports the consistency band around the dispersive
    rate -alpha(1 - 1/N).
    """
    if len(snapshots) < 10:
        raise ValueError("need at least ten checkpoints to estimate the limit")
    ts = np.array([t for t, _ in snapshots])
    if np.any(np.diff(ts) <= 0):
        raise ValueError("snapshots must be strictly increasing in time")
    v_inf = snapshots[-1][1]
    diff_ts, diffs = [], []
    for t, v in snapshots[:-1]:
        diff_ts.append(t)
        diffs.append((v - v_inf).l2())
    positive = [(t, d) for t, d in zip(diff_ts, diffs) if d > 0]
    fit = None
    if len(positive) >= 2:
        fit = loglog_fit([t for t, _ in positive], [d for _, d in positive])
    monotone = all(diffs[i] >= diffs[i + 1] - 1e-14 for i in range(len(diffs) - 1))
    # oscillating boundary phases ride on the slow decay; comparing
    # octave to octave removes them without touching the trend
    octave = []
    due = diff_ts[0]
    for t, d in zip(diff_ts, diffs):
        if t >= due:
            octave.append(d)
            due = 2.0 * t
    monotone_octave = all(octave[i] >= octave[i + 1] - 1e-14
                          for i in range(len(octave) - 1))
    target = -alpha * (1.0 - 1.0 / N)
    return {
        "cauchy": diffs,
        "fit": fit,
        "monotone": monotone,
        "monotone_octave": monotone_octave,
        "target_exponent": target,
        "band": (1.5 * target, 0.5 * target),
    }
