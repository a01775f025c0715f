"""Experiment drivers: from a config to a measured, verdicted report.

Each driver takes an :class:`ExperimentConfig`, runs one experiment
family at the configured desk scale, and returns a :class:`RunReport`
whose checks encode the quantitative claims that family is supposed to
witness.  The acceptance battery at the bottom runs every family at
pinned parameters and tolerances; ``kglab acceptance`` and the test
suite both call it.

Determinism: every random draw goes through one counter-based
generator seeded from the config, and matrix entries are independent
draws, so worker count and execution order never change a number.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .config import ExperimentConfig, _env_workers
from .cutoffs import PARA_CUT_BAND
from .data import envelope_field, gaussian_bump, make_rng, random_band_field
from .dynamics import (
    KGState,
    checkpoint_times,
    default_norm_order,
    duhamel_check,
    good_unknown,
    make_boundary_kernels,
    make_cubic_kernels,
    reduced_equation_residual,
    run_to_time,
    scattering_limit,
    step,
    step_limit,
)
from .grid import Field, make_grid
from .nonlinearity import default_spec
from .norms import (
    linlog_fit,
    loglog_fit,
    sandwich_check,
    weighted_l2,
)
from .oracles import bilinear_oracle, trilinear_oracle, weyl_matrix, weyl_oracle
from .paradiff import Symbol, error_op, remainder, weyl_apply
from .reports import RunReport
from .resonance import (
    Pseudoproduct,
    a_kernel,
    b_kernel,
    bilinear_apply,
    phase_bound_scan,
    quasilinear_symbol,
    resonant_kernel,
    semilinear_symbol,
    trilinear_apply,
)
from .spectral import lp_interval, semigroup

__all__ = ["run_experiment", "EXPERIMENT_DRIVERS", "acceptance_battery", "CRITERIA"]

_SIGN_OF = {"+": 1, "-": -1}


def _signs(pair: str) -> tuple:
    return _SIGN_OF[pair[0]], _SIGN_OF[pair[1]]


def _spec_of(cfg: ExperimentConfig):
    return default_spec(cfg.dim, cfg.coeff_alpha, cfg.coeff_beta,
                        cfg.coeff_gamma_u, cfg.coeff_gamma_t)


def _times(cfg: ExperimentConfig) -> np.ndarray:
    return checkpoint_times(cfg.t0, cfg.t1, cfg.checkpoints, cfg.schedule)


def _fit_window(cfg: ExperimentConfig) -> tuple:
    lo = cfg.fit_lo if cfg.fit_lo > 0 else None
    hi = cfg.fit_hi if cfg.fit_hi > 0 else None
    return lo, hi


def _report(cfg: ExperimentConfig) -> RunReport:
    return RunReport(experiment=cfg.experiment, config_hash=cfg.content_hash(),
                     seed=cfg.seed)


def _band_state(grid, rng, eps: float, t: float) -> KGState:
    """Random band-limited data pair with sup size eps.

    Amplitude sweeps scale against the pointwise size, so eps is the
    size the quadratic terms actually see; Sobolev-normalized data
    would hide the quartic truncation floor under the grid constant.
    """
    u0 = random_band_field(grid, rng, k_lo=-1, k_hi=0)
    w0 = random_band_field(grid, rng, k_lo=-1, k_hi=0)
    return KGState(grid, t, u0 * (eps / u0.sup()), w0 * (eps / w0.sup()))


def _map_entries(cfg: ExperimentConfig, fn, entries):
    """Run fn over matrix entries, concurrently when workers allow."""
    entries = list(entries)
    workers = min(cfg.worker_count(), len(entries))
    if workers <= 1:
        return [fn(e) for e in entries]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, entries))


# --------------------------------------------------------------------------
# operator-level experiments


def run_paradiff_oracle(cfg: ExperimentConfig) -> RunReport:
    """Fast paths against literal-sum oracles on tiny grids.

    Covers the Weyl application, the paraproduct remainder, the
    composition error operator, and the bilinear and trilinear phase
    kernels, in one and two dimensions.
    """
    report = _report(cfg)
    tol = 1e-10
    rng = make_rng(cfg.seed)

    def sym_and_fields(d, n):
        grid = make_grid(d, n, 4 * math.pi)
        af = random_band_field(grid, rng, k_lo=-1, k_hi=1)
        a = Symbol.term(af, (0,), -1)
        f = random_band_field(grid, rng, real=False)
        g = random_band_field(grid, rng, real=False)
        h = random_band_field(grid, rng, real=False)
        return grid, a, f, g, h

    def rel(got: Field, want: Field) -> float:
        scale = want.l2()
        return (got - want).l2() / (scale if scale > 0 else 1.0)

    for d, n_weyl, n_tri in ((1, 64, 16), (2, 16, 8)):
        grid, a, f, g, h = sym_and_fields(d, n_weyl)
        report.rows.append({"dim": d, "op": "weyl_apply", "n": n_weyl,
                            "rel_err": rel(weyl_apply(a, f), weyl_oracle(a, f))})

        fr = random_band_field(grid, rng)
        gr = random_band_field(grid, rng)
        prod = bilinear_oracle(lambda z1, z2: np.ones(z1.shape[:-1]), fr, gr)
        para = (weyl_oracle(Symbol.term(fr), gr)
                + weyl_oracle(Symbol.term(gr), fr))
        report.rows.append({"dim": d, "op": "remainder", "n": n_weyl,
                            "rel_err": rel(remainder(fr, gr), prod - para)})

        b = Symbol.term(random_band_field(grid, rng, k_lo=-1, k_hi=1), p=-2)
        want = weyl_oracle(a, weyl_oracle(b, f)) - weyl_oracle(a * b, f)
        report.rows.append({"dim": d, "op": "error_op", "n": n_weyl,
                            "rel_err": rel(error_op([a, b], f), want)})

        spec = default_spec(d, cfg.coeff_alpha, cfg.coeff_beta,
                            cfg.coeff_gamma_u, cfg.coeff_gamma_t)
        akern = a_kernel(spec, 1, -1)
        report.rows.append({"dim": d, "op": "bilinear_apply", "n": n_weyl,
                            "rel_err": rel(bilinear_apply(akern, f, g),
                                           bilinear_oracle(akern, f, g))})

        tgrid = make_grid(d, n_tri, 4 * math.pi)
        ft = random_band_field(tgrid, rng, real=False)
        gt = random_band_field(tgrid, rng, real=False)
        ht = random_band_field(tgrid, rng, real=False)
        bkern = b_kernel(spec, 1, 1, -1)
        report.rows.append({"dim": d, "op": "trilinear_apply", "n": n_tri,
                            "rel_err": rel(trilinear_apply(bkern, ft, gt, ht),
                                           trilinear_oracle(bkern, ft, gt, ht))})

    worst = max(row["rel_err"] for row in report.rows)
    report.constants["worst_rel_err"] = worst
    report.constants["tolerance"] = tol
    for row in report.rows:
        report.checks[f"{row['op']}-{row['dim']}d"] = row["rel_err"] <= tol
    return report.finalize()


# Holder exponents (p; q_1, ..., q_m) of the measured bounds, by operand count
_HOLDER = {2: (2.0, 2.0, math.inf), 3: (2.0, 6.0, 6.0, 6.0)}
_BOUND_TRIALS = 6


def _lp_norm(field: Field, p: float) -> float:
    v = np.abs(field.values)
    if np.isinf(p):
        return float(np.max(v))
    return float((np.sum(v ** p) * field.grid.quad_weight) ** (1.0 / p))


def _bound_constant(kernel, grid, bands, log2_scale: int, rng) -> float:
    """Measured constant of a pseudoproduct bound on dyadic bands.

    The max over six trials of

        ||P(f_1, ..., f_m)||_{L^p} / (2^log2_scale ||f_1||_{L^q_1} ... ||f_m||_{L^q_m})

    where f_i is a random complex field drawn on band bands[i] (in
    operand order, trial by trial), P applies the kernel on the
    operands' supports, and (p; q_i) is (2; 2, inf) for two operands and
    (2; 6, 6, 6) for three.  Trials whose inputs vanish are skipped.
    The supports are the bands themselves, the same in every trial, so
    the kernel is tabulated once, on the first trial's.
    """
    p, *qs = _HOLDER[len(bands)]
    scale = 2.0 ** log2_scale
    product, ratios = None, []
    for _ in range(_BOUND_TRIALS):
        fs = [random_band_field(grid, rng, k_lo=k, k_hi=k, real=False) for k in bands]
        if product is None:
            product = Pseudoproduct(kernel, grid, *(f.coeffs != 0 for f in fs))
        out = product.apply(*fs)
        denom = scale
        for f, q in zip(fs, qs):
            denom *= _lp_norm(f, q)
        if denom != 0:
            ratios.append(_lp_norm(out, p) / denom)
    return max(ratios, default=0.0)


def run_multiplier_bounds(cfg: ExperimentConfig) -> RunReport:
    """Measured operator constants of each kernel family on dyadic bands.

    Every family is normalized by its own dyadic right-hand scale, so a
    correct scale caps the normalized constants: they may decay on bands
    where the bound is lax, but must not grow systematically with the
    band index.  Checks: finite everywhere, and fitted log2-growth at
    most half a bit per band; absolute sizes are reported, not asserted.
    """
    report = _report(cfg)
    spec = _spec_of(cfg)
    d = cfg.dim
    grid = make_grid(d, cfg.n, cfg.box)
    small = make_grid(d, min(cfg.n, 256), min(cfg.box, 4 * math.pi))
    rng = make_rng(cfg.seed)
    N = cfg.norm_order or default_norm_order(d)

    diag = [k for k in range(6) if k <= grid.k_max]
    # the commutator kernel carries the paradifferential cut on the
    # frequency ratio, so pairs closer than -PARA_CUT_BAND bands are
    # identically zero; measure on the live separations only
    gap = -PARA_CUT_BAND
    gapped = [k for k in (gap - 1, gap) if k <= grid.k_max]
    # (name, kernel, grid, [(operand bands, log2 of the claimed scale)])
    runs = []
    for mu, nu in ((1, 1), (1, -1)):
        sgn = f"{'+' if mu > 0 else '-'}{'+' if nu > 0 else '-'}"
        a = a_kernel(spec, mu, nu)
        runs += [
            (f"energy({sgn})", semilinear_symbol(mu, nu), grid,
             [((k, k), (2 * d + 3) * k) for k in diag]),
            (f"interaction({sgn})", a, grid, [((k, k), k) for k in diag]),
            (f"resonant({sgn})", resonant_kernel(a, mu, nu), grid,
             [((k, k), (2 * d + 4) * k) for k in diag]),
        ]
    # both commutator bounds are for the resonance-divided kernel; the
    # low-high variant gains a band from the second sign being minus
    runs += [
        ("commutator(++)", resonant_kernel(quasilinear_symbol(N), 1, 1), grid,
         [((k - gap, k), (2 * d + 4) * (k - gap) + 2 * N * k) for k in gapped]),
        ("commutator-lh(+-)", resonant_kernel(quasilinear_symbol(N), 1, -1), grid,
         [((k - gap, k), (k - gap) + (2 * N - 1) * k) for k in gapped]),
        # the cubic bound's scale is 2^(3 max k_i + 2 sum k_i)
        ("cubic(++-)", b_kernel(spec, 1, 1, -1), small,
         [((k, k, k), 9 * k) for k in (-1, 0, 1)]),
    ]

    for tag, kernel, g, cases in runs:
        consts, drivers = [], []
        for bands, log2_scale in cases:
            const = _bound_constant(kernel, g, bands, log2_scale, rng)
            report.rows.append({"family": tag, "k1": bands[0], "k2": bands[1],
                                "constant": const})
            consts.append(const)
            drivers.append(max(bands))
        arr = np.asarray(consts)
        finite = bool(np.isfinite(arr).all() and (arr > 0).all())
        # a correct dyadic envelope caps the normalized constants: they
        # may decay where the bound is lax, but systematic growth with
        # the band index means the claimed scale is short a power
        growth = float(np.polyfit(drivers, np.log2(arr), 1)[0]) if finite \
            else float("inf")
        report.constants[f"{tag}-max"] = float(arr.max())
        report.constants[f"{tag}-growth"] = growth
        report.checks[f"{tag}-finite"] = finite
        report.checks[f"{tag}-capped"] = growth <= 0.5
    return report.finalize()


def run_phase_scan(cfg: ExperimentConfig) -> RunReport:
    """Lower bounds on the bilinear phases over a lattice ball.

    Scans every requested sign pair at the configured step and at half
    the step; the claim is no near-resonance (no value under the hard
    floor) and a minimum stable under refinement.
    """
    report = _report(cfg)

    def scan(pair):
        mu, nu = _signs(pair)
        coarse = phase_bound_scan(cfg.dim, mu, nu, radius=cfg.radius, step=cfg.step)
        fine = phase_bound_scan(cfg.dim, mu, nu, radius=cfg.radius, step=cfg.step / 2)
        drift = abs(fine["min_abs_phase"] - coarse["min_abs_phase"])
        rel_drift = drift / coarse["min_abs_phase"] if coarse["min_abs_phase"] > 0 else math.inf
        return pair, coarse, fine, rel_drift

    for pair, coarse, fine, rel_drift in _map_entries(cfg, scan, cfg.signs):
        report.rows.append({
            "dim": cfg.dim, "pair": pair, "n_pairs": coarse["n_pairs"],
            "n_pairs_covered": coarse["n_pairs_covered"],
            "min_abs_phase": coarse["min_abs_phase"],
            "min_refined": fine["min_abs_phase"],
            "rel_drift": rel_drift,
            "c_phi": coarse["c_phi"], "c_grad": coarse["c_grad"],
            "floor_violations": coarse["floor_violations"] + fine["floor_violations"],
        })
        report.constants[f"min-phase-{pair}"] = coarse["min_abs_phase"]
        report.checks[f"{pair}-above-floor"] = (
            coarse["floor_violations"] == 0 and fine["floor_violations"] == 0)
        report.checks[f"{pair}-refinement-stable"] = rel_drift <= 0.25
    return report.finalize()


# --------------------------------------------------------------------------
# linear-flow experiments


def run_dispersive_decay(cfg: ExperimentConfig) -> RunReport:
    """Sup-norm decay of the half-wave group on band-limited data.

    The measured exponent of ||exp(itL) f||_inf over the fit window is
    checked against -d/2 within 0.15.
    """
    report = _report(cfg)
    grid = make_grid(cfg.dim, cfg.n, cfg.box)
    datum = lp_interval(gaussian_bump(grid, sigma=1.0), cfg.band_lo, cfg.band_hi)
    ts = _times(cfg)
    sups = _map_entries(cfg, lambda t: semigroup(datum, t).sup(), ts)
    for t, s in zip(ts, sups):
        report.rows.append({"t": t, "sup": s})
    lo, hi = _fit_window(cfg)
    fit = loglog_fit(ts, sups, lo, hi)
    report.add_fit("decay_exponent", fit)
    target = -cfg.dim / 2.0
    report.constants["target"] = target
    report.checks["decay-exponent-in-band"] = abs(fit.slope - target) <= 0.15
    return report.finalize()


def run_strichartz_growth(cfg: ExperimentConfig) -> RunReport:
    """Accumulated square sup-norm of the group on slowly decaying data.

    d = 2: the accumulated integral grows affinely in ln t (fit R^2 at
    least 0.95).  d = 1: it grows like t^0.5 within 0.15.
    """
    report = _report(cfg)
    grid = make_grid(cfg.dim, cfg.n, cfg.box)
    rng = make_rng(cfg.seed)
    datum = envelope_field(grid, rng, decay=cfg.envelope,
                           k_lo=cfg.band_lo, k_hi=cfg.band_hi, core=2.0)
    datum = datum * (1.0 / datum.l2())
    ts = _times(cfg)
    sups = np.asarray(_map_entries(cfg, lambda t: semigroup(datum, t).sup(), ts))
    acc = np.concatenate([[0.0], np.cumsum(0.5 * (sups[1:] ** 2 + sups[:-1] ** 2)
                                           * np.diff(ts))])
    for t, s, a in zip(ts, sups, acc):
        report.rows.append({"t": t, "sup": s, "strichartz_p2_w0": a})
    lo, hi = _fit_window(cfg)
    if cfg.dim >= 2:
        fit = linlog_fit(ts, acc, lo, hi)
        report.add_fit("accumulated_vs_ln_t", fit)
        report.checks["log-growth-affine"] = fit.r2 >= 0.95
    else:
        fit = loglog_fit(ts, acc, lo, hi)
        report.add_fit("accumulated_exponent", fit)
        report.checks["half-power-growth"] = abs(fit.slope - 0.5) <= 0.15
    return report.finalize()


# --------------------------------------------------------------------------
# nonlinear-flow experiments


def run_good_unknown_scaling(cfg: ExperimentConfig) -> RunReport:
    """Distance between the good unknown and the raw half-wave.

    Sweeps data size eps and fits ||Ucal - U||_{H^N}; the paralinear
    substitution is quadratic, so the exponent must be 2 within 0.1,
    with the square-root symbol bound q <= 1/2 never violated.
    """
    report = _report(cfg)
    grid = make_grid(cfg.dim, cfg.n, cfg.box)
    spec = _spec_of(cfg)
    N = cfg.norm_order or default_norm_order(cfg.dim)

    def entry(eps):
        state = _band_state(grid, make_rng(cfg.seed), eps, cfg.t0)
        rep = good_unknown(state, spec, N=N)
        return eps, rep

    diffs = []
    for eps, rep in _map_entries(cfg, entry, cfg.eps):
        report.rows.append({
            "eps": eps, f"diff_sobolev_{N:g}": rep.diff_norm,
            "q_bound": rep.q_bound, "quadratic_ratio": rep.quadratic_ratio,
        })
        diffs.append(rep.diff_norm)
        report.checks[f"q-in-range-eps-{eps:g}"] = rep.q_bound <= 0.5
    fit = loglog_fit(cfg.eps, diffs)
    report.add_fit("substitution_exponent", fit)
    report.checks["quadratic-in-eps"] = abs(fit.slope - 2.0) <= 0.1
    return report.finalize()


def run_reduced_residual(cfg: ExperimentConfig) -> RunReport:
    """Residual of the reduced equation under time-step halving.

    For each eps the residual must drop by at least 3.5x per halving
    until it hits the truncation floor left by the cubic square-root
    Taylor polynomial; the floor itself must shrink with exponent at
    least 3.5 in eps.
    """
    report = _report(cfg)
    grid = make_grid(cfg.dim, cfg.n, cfg.box)
    spec = _spec_of(cfg)
    dt0 = cfg.dt if cfg.dt > 0 else 0.08

    def ladder(eps):
        base = _band_state(grid, make_rng(cfg.seed), eps, cfg.t0)
        rows = []
        prev = None
        clean = 0
        dt = dt0
        for _ in range(cfg.ladder):
            advanced = step(step(base, spec, dt), spec, dt)
            res = reduced_equation_residual(base, advanced, spec,
                                            include_truncation_tail=cfg.include_tail)
            ratio = (prev / res) if prev is not None else math.nan
            rows.append({"eps": eps, "dt": dt, "residual": res, "ratio": ratio})
            if prev is not None:
                if ratio >= 3.5:
                    clean += 1
                else:
                    break  # the floor: no claim past it
            prev = res
            dt /= 2
        return eps, rows, clean, rows[-1]["residual"]

    floors = []
    for eps, rows, clean, floor in _map_entries(cfg, ladder, cfg.eps):
        report.rows.extend(rows)
        floors.append(floor)
        report.constants[f"floor-eps-{eps:g}"] = floor
        report.checks[f"clean-halvings-eps-{eps:g}"] = clean >= 2
    if not cfg.include_tail:
        fit = loglog_fit(cfg.eps, floors)
        report.add_fit("floor_exponent", fit)
        report.checks["floor-shrinks-fast"] = fit.slope >= 3.5
    else:
        report.notes.append("tail included: no floor, ladder is pure dt^2")
    return report.finalize()


def run_scattering(cfg: ExperimentConfig) -> RunReport:
    """Profile increment against the boundary + cubic decomposition.

    Integrates the full flow over [t0, t1] for each eps with dt
    proportional to eps, then audits the profile increment: boundary
    terms must scale like eps^2 within 0.1, the cubic integral like
    eps^3 within 0.15, and the unexplained mismatch must both decay
    with exponent at least 3 and stay far below the cubic term at
    every eps.
    """
    report = _report(cfg)
    grid = make_grid(cfg.dim, cfg.n, cfg.box)
    spec = _spec_of(cfg)
    # every eps shares the kernels: they depend on the grid and spec only
    boundary_kernels = make_boundary_kernels(grid, spec)
    cubic_kernels = make_cubic_kernels(grid, spec)

    def entry(eps):
        state = _band_state(grid, make_rng(cfg.seed), eps, cfg.t0)
        dt = min((cfg.dt if cfg.dt > 0 else 0.25) * eps, step_limit(grid, spec))
        result = run_to_time(state, spec, cfg.t1, dt=dt, checkpoints=cfg.checkpoints,
                             schedule="linear", keep_states=True)
        audit = duhamel_check(result.states, boundary_kernels, cubic_kernels,
                              rule=cfg.rule)
        return eps, audit

    boundaries, cubics, mismatches = [], [], []
    for eps, audit in _map_entries(cfg, entry, cfg.eps):
        boundary = audit["boundary"]
        cubic = audit["cubic"]
        mismatch = audit["mismatch"]
        report.rows.append({
            "eps": eps, "boundary": boundary, "cubic": cubic,
            "mismatch": mismatch,
            "mismatch_over_cubic": mismatch / cubic if cubic > 0 else math.inf,
        })
        boundaries.append(boundary)
        cubics.append(cubic)
        mismatches.append(mismatch)
        report.checks[f"closes-at-eps-{eps:g}"] = mismatch <= 0.05 * cubic

    report.add_fit("boundary_exponent", loglog_fit(cfg.eps, boundaries))
    report.add_fit("cubic_exponent", loglog_fit(cfg.eps, cubics))
    report.add_fit("mismatch_exponent", loglog_fit(cfg.eps, mismatches))
    report.checks["boundary-quadratic"] = (
        abs(report.fits["boundary_exponent"].slope - 2.0) <= 0.1)
    report.checks["cubic-cubic"] = (
        abs(report.fits["cubic_exponent"].slope - 3.0) <= 0.15)
    report.checks["mismatch-higher-order"] = (
        report.fits["mismatch_exponent"].slope >= 3.0)
    return report.finalize()


def run_lifespan_sweep(cfg: ExperimentConfig) -> RunReport:
    """Lifespan of a blow-up-prone model against data size.

    Runs each eps until the half-wave Sobolev norm crosses the blow-up
    threshold.  Lifespans must be monotone nonincreasing in eps and
    grow with exponent at least 2 as eps shrinks; the quartic-power
    comparison T * eps^4 is reported, not asserted.  The exponent needs
    two finite lifespans: with fewer, no fit is recorded and the growth
    check fails.
    """
    report = _report(cfg)
    grid = make_grid(cfg.dim, cfg.n, cfg.box)
    spec = _spec_of(cfg)
    N = cfg.norm_order or default_norm_order(cfg.dim)

    def entry(eps):
        state = _band_state(grid, make_rng(cfg.seed), eps, cfg.t0)
        result = run_to_time(state, spec, cfg.t1, dt=cfg.dt or None,
                             checkpoints=cfg.checkpoints, schedule=cfg.schedule,
                             blow_up_factor=cfg.blow_up_factor, norm_order=N)
        return eps, result

    lifespans = []
    for eps, result in _map_entries(cfg, entry, cfg.eps):
        lifespan = result.blowup_time if result.blowup_time is not None else math.inf
        report.rows.append({"eps": eps, "lifespan": lifespan,
                            "verdict": result.verdict})
        lifespans.append(lifespan)
        report.constants[f"eps4-product-{eps:g}"] = (
            lifespan * eps ** 4 if math.isfinite(lifespan) else math.inf)
        report.checks[f"blew-up-eps-{eps:g}"] = math.isfinite(lifespan)

    order = np.argsort(cfg.eps)
    sorted_eps = np.asarray(cfg.eps)[order]
    sorted_T = np.asarray(lifespans)[order]
    report.checks["lifespan-monotone"] = bool(np.all(np.diff(sorted_T) <= 1e-12))
    if sorted_T.size >= 2 and np.isfinite(sorted_T).all():
        fit = loglog_fit(sorted_eps, sorted_T)
        report.add_fit("lifespan_exponent", fit)
        report.checks["grows-at-least-square"] = fit.slope <= -2.0
        report.constants["lifespan_power"] = -fit.slope
    else:
        report.checks["grows-at-least-square"] = False
    return report.finalize()


def run_weighted_bootstrap(cfg: ExperimentConfig) -> RunReport:
    """Small-data run to the box horizon under the bootstrap norms.

    Both controlled norms (half-wave Sobolev and the weighted profile
    norm) must stay within twice their initial size up to T = L/4, the
    profile must be Cauchy with monotone decreasing increments, and
    the localized sandwich at the final time must be finite.
    """
    report = _report(cfg)
    grid = make_grid(cfg.dim, cfg.n, cfg.box)
    spec = _spec_of(cfg)
    N = cfg.norm_order or default_norm_order(cfg.dim)
    rng = make_rng(cfg.seed)
    eps = cfg.eps[0]
    u0 = envelope_field(grid, rng, decay=cfg.envelope or 2.0,
                        k_lo=cfg.band_lo, k_hi=cfg.band_hi, core=2.0)
    w0 = envelope_field(grid, rng, decay=cfg.envelope or 2.0,
                        k_lo=cfg.band_lo, k_hi=cfg.band_hi, core=2.0)
    # sup-sized so the quadratic terms act visibly inside the run
    state = KGState(grid, cfg.t0, u0 * (eps / u0.sup()), w0 * (eps / w0.sup()))

    t_end = grid.L / 4.0
    result = run_to_time(state, spec, t_end, dt=cfg.dt or None,
                         checkpoints=cfg.checkpoints, norm_order=N, keep_states=True)
    # one profile per state, built once: V(T) first, then each state's
    # weighted norm (before the row's flag) and gap to V(T), so at most
    # two profiles are alive at a time
    label = f"weightedL2_{cfg.alpha:g}"
    v_end = result.states[-1].profile()
    gaps = []
    for row, s in zip(result.rows, result.states):
        v = v_end if s is result.states[-1] else s.profile()
        row[label] = weighted_l2(v, cfg.alpha)
        row["flag"] = row.pop("flag")
        gaps.append((v - v_end).l2())
    report.rows.extend(result.rows)

    sob_key = f"sobolev_{N:g}"
    sob0 = result.rows[0][sob_key]
    wgt0 = result.rows[0][label]
    sob_max = max(row[sob_key] for row in result.rows)
    wgt_max = max(row[label] for row in result.rows)
    report.constants["sobolev_growth"] = sob_max / sob0
    report.constants["weighted_growth"] = wgt_max / wgt0
    report.checks["survived"] = result.verdict == "survived"
    report.checks["sobolev-bounded"] = sob_max <= 2.0 * sob0
    report.checks["weighted-bounded"] = wgt_max <= 2.0 * wgt0

    limit = scattering_limit([s.t for s in result.states], gaps, alpha=cfg.alpha, N=N)
    report.constants["final_cauchy_gap"] = limit["cauchy"][-1]
    report.constants["cauchy_rate"] = limit["fit"].slope
    report.constants["cauchy_rate_target"] = limit["target_exponent"]
    lo_band, hi_band = limit["band"]
    report.checks["profile-cauchy-monotone"] = limit["monotone_octave"]
    report.checks["cauchy-rate-dispersive"] = lo_band <= limit["fit"].slope <= hi_band

    sandwich = sandwich_check(v_end, cfg.alpha)
    report.constants["sandwich_piece_over_weighted"] = sandwich["piece_over_weighted"]
    report.constants["sandwich_weighted_over_composite"] = sandwich["weighted_over_composite"]
    report.checks["sandwich-finite"] = (
        math.isfinite(sandwich["piece_over_weighted"])
        and math.isfinite(sandwich["weighted_over_composite"])
        and sandwich["ok"])
    return report.finalize()


EXPERIMENT_DRIVERS = {
    "paradiff-oracle": run_paradiff_oracle,
    "multiplier-bounds": run_multiplier_bounds,
    "phase-scan": run_phase_scan,
    "dispersive-decay": run_dispersive_decay,
    "strichartz-growth": run_strichartz_growth,
    "good-unknown-scaling": run_good_unknown_scaling,
    "reduced-residual": run_reduced_residual,
    "scattering": run_scattering,
    "lifespan-sweep": run_lifespan_sweep,
    "weighted-bootstrap": run_weighted_bootstrap,
}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    cfg.worker_count()  # a malformed KGLAB_WORKERS fails before compute
    return EXPERIMENT_DRIVERS[cfg.experiment](cfg)


# --------------------------------------------------------------------------
# pinned desk-scale configurations


def pinned_config(experiment: str, dim: int = None) -> ExperimentConfig:
    """The tuned parameters each experiment family ships with."""
    key = (experiment, dim)
    builder = _PINNED.get(key) or _PINNED.get((experiment, None))
    if builder is None:
        raise ValueError(f"no pinned config for {experiment} (dim={dim})")
    return builder()


_PINNED = {
    ("paradiff-oracle", None): lambda: ExperimentConfig(
        experiment="paradiff-oracle", seed=7),
    ("multiplier-bounds", None): lambda: ExperimentConfig(
        experiment="multiplier-bounds", dim=1, n=32768, box=4 * math.pi,
        seed=5),
    ("phase-scan", 1): lambda: ExperimentConfig(
        experiment="phase-scan", dim=1, radius=8.0, step=0.25),
    ("phase-scan", 2): lambda: ExperimentConfig(
        experiment="phase-scan", dim=2, radius=8.0, step=0.25),
    ("phase-scan", 3): lambda: ExperimentConfig(
        experiment="phase-scan", dim=3, radius=8.0, step=0.25),
    ("dispersive-decay", 2): lambda: ExperimentConfig(
        experiment="dispersive-decay", dim=2, n=256, box=64 * math.pi,
        band_lo=0, band_hi=3, t0=2.0, t1=16.0, checkpoints=9),
    ("dispersive-decay", 1): lambda: ExperimentConfig(
        experiment="dispersive-decay", dim=1, n=2048, box=256 * math.pi,
        band_lo=-1, band_hi=1, t0=4.0, t1=48.0, checkpoints=11),
    ("strichartz-growth", 2): lambda: ExperimentConfig(
        experiment="strichartz-growth", dim=2, n=256, box=64 * math.pi,
        envelope=1.5, band_lo=0, band_hi=2, seed=1234,
        t0=1.0, t1=16 * math.pi, checkpoints=48, fit_lo=2.0),
    ("strichartz-growth", 1): lambda: ExperimentConfig(
        experiment="strichartz-growth", dim=1, n=4096, box=512 * math.pi,
        envelope=0.75, band_lo=-1, band_hi=0, seed=99,
        t0=1.0, t1=128 * math.pi, checkpoints=80, fit_lo=16.0),
    ("good-unknown-scaling", None): lambda: ExperimentConfig(
        experiment="good-unknown-scaling", dim=1, n=256, box=16 * math.pi,
        seed=11, eps=(0.05, 0.025, 0.0125)),
    ("reduced-residual", None): lambda: ExperimentConfig(
        experiment="reduced-residual", dim=1, n=64, box=8 * math.pi,
        seed=11, eps=(0.3, 0.2, 0.1), dt=0.08, ladder=10),
    ("scattering", None): lambda: ExperimentConfig(
        experiment="scattering", dim=1, n=64, box=8 * math.pi,
        seed=11, eps=(0.2, 0.1, 0.05, 0.025), t0=1.0, t1=2.0,
        checkpoints=9, dt=0.25, rule="simpson"),
    # focusing u^2 source, no quasilinear couplings: the potential hill
    # sits just above the largest swept amplitude, so lifespans spread
    # from O(1) escape to near-threshold survival across the sweep
    ("lifespan-sweep", None): lambda: ExperimentConfig(
        experiment="lifespan-sweep", dim=1, n=256, box=8 * math.pi,
        seed=11, eps=(0.4, 0.3, 0.2), t0=1.0, t1=900.0,
        coeff_alpha=0.0, coeff_beta=0.0, coeff_gamma_u=2.0, coeff_gamma_t=0.0,
        checkpoints=600, schedule="log"),
    ("weighted-bootstrap", None): lambda: ExperimentConfig(
        experiment="weighted-bootstrap", dim=2, n=128, box=32 * math.pi,
        seed=21, eps=(0.05,), envelope=2.0, band_lo=0, band_hi=2,
        t0=1.0, checkpoints=17, t1=8 * math.pi),
}


# --------------------------------------------------------------------------
# the acceptance battery


def _crit_oracle_equivalence():
    report = run_paradiff_oracle(pinned_config("paradiff-oracle"))
    detail = f"worst rel err {report.constants['worst_rel_err']:.2e} (tol 1e-10)"
    return report.verdict == "pass", detail


def _crit_operator_identities():
    """Exact identities: T_1 = Id, Hermitian symmetry, E(a, 1) = 0.

    On the two small grids the symbol's spatial frequencies all fail the
    paradifferential cutoff, so T_a is a pure multiplier there; the 1-D
    n=1024 grid on [-8 pi, 8 pi) has live off-diagonal couplings, and
    their count must be positive.
    """
    checks = {}
    live = 0
    rng = make_rng(3)
    for d, n, L in ((1, 64, 4 * math.pi), (2, 16, 4 * math.pi), (1, 1024, 8 * math.pi)):
        grid = make_grid(d, n, L)
        f = random_band_field(grid, rng, real=False)
        one = Symbol.one(grid)
        ident = (weyl_apply(one, f) - f).l2()
        checks[f"identity-{d}d-n{n}"] = ident == 0.0

        af = random_band_field(grid, rng, k_lo=-1, k_hi=1)
        a = Symbol.term(af, p=-2)
        mat = weyl_matrix(a)
        live += int(np.count_nonzero(mat) - np.count_nonzero(np.diag(mat)))
        herm = float(np.abs(mat - mat.conj().T).max())
        checks[f"hermitian-{d}d-n{n}"] = herm <= 1e-10

        e_right = error_op([a, one], f).l2()
        e_left = error_op([one, a], f).l2()
        scale = f.l2()
        checks[f"unit-error-{d}d-n{n}"] = max(e_right, e_left) <= 1e-10 * scale
    checks["live-couplings"] = live > 0
    detail = (f"T_1 exact, Hermitian defect and E(a,1), E(1,a) below 1e-10, "
              f"{live} live off-diagonal couplings")
    return all(checks.values()), detail


def _crit_dispersive_decay():
    rep2 = run_dispersive_decay(pinned_config("dispersive-decay", 2))
    rep1 = run_dispersive_decay(pinned_config("dispersive-decay", 1))
    s2 = rep2.fits["decay_exponent"].slope
    s1 = rep1.fits["decay_exponent"].slope
    detail = f"2d exponent {s2:+.3f} (want -1), 1d {s1:+.3f} (want -0.5)"
    return (rep2.verdict == "pass" and rep1.verdict == "pass"), detail


def _crit_strichartz_growth():
    rep2 = run_strichartz_growth(pinned_config("strichartz-growth", 2))
    rep1 = run_strichartz_growth(pinned_config("strichartz-growth", 1))
    r2 = rep2.fits["accumulated_vs_ln_t"].r2
    s1 = rep1.fits["accumulated_exponent"].slope
    detail = f"2d ln-affine R^2 {r2:.4f} (>= 0.95), 1d exponent {s1:+.3f} (want 0.5)"
    return (rep2.verdict == "pass" and rep1.verdict == "pass"), detail


def _crit_phase_scan():
    reports = [run_phase_scan(pinned_config("phase-scan", d)) for d in (1, 2, 3)]
    worst_min = min(min(row["min_abs_phase"] for row in rep.rows) for rep in reports)
    detail = f"12 sign/dimension scans, smallest |Phi| = {worst_min:.3f}, refinement-stable"
    return all(rep.verdict == "pass" for rep in reports), detail


def _crit_multiplier_bounds():
    report = run_multiplier_bounds(pinned_config("multiplier-bounds"))
    growth = {k[:-len("-growth")]: v for k, v in report.constants.items()
              if k.endswith("-growth")}
    worst = max(growth, key=growth.get)
    finite = sum(report.checks[f"{tag}-finite"] for tag in growth)
    detail = (f"{finite}/{len(growth)} kernel runs finite, worst fitted growth "
              f"{growth[worst]:+.3f} bits/band in {worst} (cap 0.5)")
    return report.verdict == "pass", detail


def _crit_good_unknown():
    report = run_good_unknown_scaling(pinned_config("good-unknown-scaling"))
    fit = report.fits["substitution_exponent"]
    qmax = max(row["q_bound"] for row in report.rows)
    detail = f"exponent {fit.slope:+.3f} (want 2 +- 0.1), max q bound {qmax:.3f} (< 0.5)"
    return report.verdict == "pass", detail


def _crit_reduced_residual():
    report = run_reduced_residual(pinned_config("reduced-residual"))
    fit = report.fits["floor_exponent"]
    detail = f"halvings clean at every eps, floor exponent {fit.slope:+.2f} (>= 3.5)"
    return report.verdict == "pass", detail


def _crit_scattering():
    report = run_scattering(pinned_config("scattering"))
    b = report.fits["boundary_exponent"].slope
    c = report.fits["cubic_exponent"].slope
    m = report.fits["mismatch_exponent"].slope
    detail = f"boundary {b:+.2f} (2), cubic {c:+.2f} (3), mismatch {m:+.2f} (>= 3)"
    return report.verdict == "pass", detail


def _crit_lifespan():
    report = run_lifespan_sweep(pinned_config("lifespan-sweep"))
    if "lifespan_exponent" in report.fits:
        power = -report.fits["lifespan_exponent"].slope
        prods = [report.constants[k] for k in sorted(report.constants)
                 if k.startswith("eps4-product")]
        detail = (f"monotone lifespans, power {power:.2f} (>= 2), "
                  f"T*eps^4 in [{min(prods):.2f}, {max(prods):.2f}]")
    else:
        detail = "a run failed to blow up inside the budget"
    return report.verdict == "pass", detail


def _crit_weighted_bootstrap():
    report = run_weighted_bootstrap(pinned_config("weighted-bootstrap"))
    detail = (f"norm growth x{report.constants['sobolev_growth']:.3f} / "
              f"x{report.constants['weighted_growth']:.3f} (<= 2), "
              f"profile Cauchy monotone, sandwich finite")
    return report.verdict == "pass", detail


# (name, criterion, in the fast battery); a criterion returns (ok, detail)
CRITERIA = (
    ("oracle-equivalence", _crit_oracle_equivalence, True),
    ("operator-identities", _crit_operator_identities, True),
    ("dispersive-decay", _crit_dispersive_decay, True),
    ("strichartz-growth", _crit_strichartz_growth, True),
    ("phase-lower-bounds", _crit_phase_scan, True),
    ("multiplier-bounds", _crit_multiplier_bounds, True),
    ("good-unknown-scaling", _crit_good_unknown, True),
    ("reduced-residual", _crit_reduced_residual, False),
    ("profile-decomposition", _crit_scattering, False),
    ("lifespan-sweep", _crit_lifespan, False),
    ("weighted-bootstrap", _crit_weighted_bootstrap, False),
)


def acceptance_battery(fast: bool = False) -> bool:
    """Run the acceptance criteria, printing one line per criterion.

    fast skips the long-running nonlinear sweeps (they stay in the
    full battery and the test suite).  Returns overall success.
    """
    _env_workers()  # a malformed KGLAB_WORKERS fails before compute
    all_ok = True
    for name, fn, in_fast in CRITERIA:
        if fast and not in_fast:
            continue
        start = time.time()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a red result, not a skip
            ok, detail = False, f"crashed: {exc!r}"
        elapsed = time.time() - start
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name}  {detail}  [{elapsed:.1f}s]")
    return all_ok
