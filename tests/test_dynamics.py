"""Time stepping, the good unknown, the reduced-equation residual, and
the profile identities on small grids."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kglab.data import gaussian_bump, make_rng, random_band_field
from kglab import dynamics
from kglab import grid as grid_module
from kglab import paradiff as paradiff_module
from kglab import spectral as spectral_module
from kglab.dynamics import (
    KGState,
    default_norm_order,
    duhamel_check,
    good_unknown,
    good_unknown_field,
    make_boundary_kernels,
    make_cubic_kernels,
    nonlinearity_value,
    normal_form_boundary,
    paralinearize,
    q_sup_bound,
    reduced_equation_residual,
    rhs,
    run_to_time,
    scattering_limit,
    step,
    step_limit,
    transport_symbol,
)
from kglab.grid import Field, make_grid
from kglab.nonlinearity import NonlinearitySpec, default_spec
from kglab.oracles import fd_gradient_oracle, weyl_matrix
from kglab.paradiff import weyl_apply
from kglab.resonance import SIGN_PAIRS, a_kernel, bilinear_apply, resonant_kernel
from kglab.spectral import dealiased_product, derivative, lambda_mag, semigroup


def _small_state(g, eps, seed=60, t=0.0):
    rng = make_rng(seed)
    u = random_band_field(g, rng, k_lo=-1, k_hi=1)
    w = random_band_field(g, rng, k_lo=-1, k_hi=1)
    return KGState(g, t, u * (eps / u.sup()), w * (eps / w.sup()))


def _spectral_state(st, t):
    """st at time t, its real fields rebuilt from their halves alone, so
    no values are cached."""
    g = st.grid
    return KGState(g, t, Field.from_spectrum(g, st.u.spectrum()),
                   Field.from_spectrum(g, st.w.spectrum()))


def test_spectral_derivative_against_finite_differences():
    g = make_grid(1, 128, np.pi)
    f = gaussian_bump(g, 0.4)
    spectral = derivative(f, 0)
    fd = fd_gradient_oracle(f, 0)
    # fourth-order stencil at h = 2 pi / 128; the difference is the
    # stencil's truncation error, not the spectral side's
    assert (spectral - fd).sup() < 1e-4 * spectral.sup()
    g2 = make_grid(1, 256, np.pi)
    f2 = gaussian_bump(g2, 0.4)
    err2 = (derivative(f2, 0) - fd_gradient_oracle(f2, 0)).sup()
    err1 = (spectral - fd).sup()
    assert err2 < err1 / 12.0  # h -> h/2 gains about 2^4


# the lifespan spec S = 2u^2 is semilinear; the default spec is not
LIFESPAN_SPEC = default_spec(1, 0.0, 0.0, 2.0, 0.0)
# linear Klein-Gordon: F = 0
LINEAR_SPEC = default_spec(1, 0.0, 0.0, 0.0, 0.0)


def test_step_rejects_super_cfl_dt():
    g = make_grid(1, 64, np.pi)
    st = _small_state(g, 0.1)
    assert step_limit(g, LINEAR_SPEC) == pytest.approx(4.0 * step_limit(g, default_spec(1)))
    for spec in (LINEAR_SPEC, LIFESPAN_SPEC, default_spec(1)):
        step(st, spec, step_limit(g, spec))
        with pytest.raises(ValueError, match="step limit"):
            step(st, spec, 2.0 * step_limit(g, spec))


def _self_convergence(st, spec, T, base):
    """|y_h - y_{h/2}| / |y_{h/2} - y_{h/4}| over [t, t + T], h = T / base."""

    def integrate(substeps):
        cur, h = st, T / substeps
        for _ in range(substeps):
            cur = step(cur, spec, h)
        return cur.half_wave()

    y1, y2, y4 = integrate(base), integrate(2 * base), integrate(4 * base)
    return (y1 - y2).l2() / (y2 - y4).l2()


def test_lawson_linear_flow_is_the_semigroup():
    # a zero nonlinearity leaves only the linear flow, which Lawson's
    # method moves exactly, even at the step limit
    g = make_grid(1, 64, np.pi)
    st = _small_state(g, 0.5)
    spec = LINEAR_SPEC
    T = 0.5
    exact = semigroup(st.half_wave(), T, +1)
    n_sub = int(math.ceil(T / step_limit(g, spec)))
    cur = st
    for _ in range(n_sub):
        cur = step(cur, spec, T / n_sub)
    assert (cur.half_wave() - exact).l2() < 1e-12 * exact.l2()


def test_classical_rk4_is_fourth_order():
    g = make_grid(1, 64, np.pi)
    spec = default_spec(1)
    T = 0.5
    base = int(math.ceil(T / step_limit(g, spec)))
    assert _self_convergence(_small_state(g, 0.3), spec, T, base) == pytest.approx(16.0, rel=0.3)


def test_lawson_rk4_is_fourth_order_on_the_lifespan_spec():
    g = make_grid(1, 64, np.pi)
    T = 2.0
    base = int(math.ceil(T / step_limit(g, LIFESPAN_SPEC)))
    ratio = _self_convergence(_small_state(g, 0.3), LIFESPAN_SPEC, T, base)
    assert ratio == pytest.approx(16.0, rel=0.3)


def test_nonlinear_step_preserves_reality():
    g = make_grid(1, 64, 2 * np.pi)
    st = _small_state(g, 0.05)
    for spec in (LIFESPAN_SPEC, default_spec(1)):
        cur = st
        for _ in range(5):
            cur = step(cur, spec, 0.8 * step_limit(g, spec))
        # the state holds u and w as real fields; the complex route on the
        # same coefficients must agree, i.e. the step keeps them Hermitian
        for f in (cur.u, cur.w):
            cplx = Field.from_spectrum(g, f.coeffs).values
            assert f.real and np.max(np.abs(cplx.imag)) <= 1e-12 * np.max(np.abs(cplx))


def test_building_a_state_makes_no_transform_and_shares_arrays(fft_calls):
    # the state holds the real fields it is given, with both caches or
    # only the half, and makes no copy and no transform
    g = make_grid(2, 16, 4 * np.pi)
    rng = make_rng(61)
    u = random_band_field(g, rng)  # both caches filled
    _ = u.values
    w = Field.from_spectrum(g, random_band_field(g, rng).spectrum())
    fft_calls.update(fftn=0, ifftn=0)
    st = KGState(g, 0.0, u, w)
    assert st.u is u and st.w is w
    assert st.w._values is None
    assert KGState(g, 0.0, st.u, st.w).u is st.u
    assert fft_calls == {"fftn": 0, "ifftn": 0}


def test_a_state_refuses_complex_fields():
    g = make_grid(1, 32, 4 * np.pi)
    rng = make_rng(64)
    u, w = random_band_field(g, rng), random_band_field(g, rng)
    cplx_u = Field.from_spectrum(g, u.coeffs)
    cplx_w = Field.from_values(g, w.values.astype(complex))
    for pair in ((cplx_u, w), (u, cplx_w)):
        with pytest.raises(ValueError, match="u and w must be real fields"):
            KGState(g, 0.0, *pair)


def test_band_states_and_their_steps_stay_on_real_transforms(monkeypatch):
    # the pinned data are real fields from their draws on: building a
    # state makes one complex transform per field, the draw of its
    # complex coefficients, and neither stepper makes any
    from kglab.experiments import _band_state

    calls = []
    for name in ("fftn", "ifftn"):
        original = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _f=original, _n=name, **k:
                            calls.append(_n) or _f(*a, **k))
    for d, n, spec in ((1, 256, LIFESPAN_SPEC), (2, 32, default_spec(2))):
        g = make_grid(d, n, 8 * np.pi)
        calls.clear()
        st = _band_state(g, make_rng(65), 0.1, 1.0)
        assert calls == ["ifftn", "ifftn"]
        calls.clear()
        nxt = step(st, spec, step_limit(g, spec))
        assert nxt.u.real and nxt.w.real
        assert calls == []


def test_real_nonlinearity_matches_complex_products():
    # F on the real state against the same products on complex copies
    # of its Z list, which no state holds
    g = make_grid(2, 32, 8 * np.pi)
    st = _small_state(g, 0.1, t=1.0)
    spec = default_spec(2)
    real = nonlinearity_value(st, spec)
    assert real.real
    cplx_u, cplx_w = Field.from_spectrum(g, st.u.coeffs), Field.from_spectrum(g, st.w.coeffs)
    cplx = _f_on(_z_list(cplx_u, cplx_w), spec)
    assert not cplx.real
    assert np.max(np.abs(real.coeffs - cplx.coeffs)) <= 1e-13 * np.max(np.abs(cplx.coeffs))


def test_lifespan_rhs_makes_two_transforms(fft_calls):
    # the pinned lifespan spec S = 2u^2: the square is the only live
    # product, one inverse transform in and one forward transform out
    g = make_grid(1, 256, 8 * np.pi)
    st = _small_state(g, 0.1)
    st = _spectral_state(st, 1.0)
    fft_calls.update(fftn=0, ifftn=0)
    du, dw = rhs(st, LIFESPAN_SPEC)
    assert fft_calls == {"fftn": 1, "ifftn": 1}
    assert du._values is None and dw._values is None


def test_lawson_step_makes_two_transforms_per_stage(fft_calls):
    g = make_grid(1, 256, 8 * np.pi)
    st = _small_state(g, 0.1)
    st = _spectral_state(st, 1.0)
    fft_calls.update(fftn=0, ifftn=0)
    nxt = step(st, LIFESPAN_SPEC, step_limit(g, LIFESPAN_SPEC))
    assert fft_calls == {"fftn": 4, "ifftn": 4}
    assert nxt.u._values is None and nxt.w._values is None


def test_2d_rhs_transforms_each_operand_once(fft_calls, monkeypatch):
    # Q^{0j} = Q^{jj} = u and S = u^2 + w^2: 8 products, 6 of them live,
    # on the distinct operands u, w, d_j w and d_jj u; u enters 5 of them
    # but, like every operand, is inverse-transformed once, and the live
    # products are summed in physical space and forward-transformed once
    g = make_grid(2, 32, 8 * np.pi)
    st = _small_state(g, 0.1)
    st = _spectral_state(st, 1.0)
    pairs = []
    product = spectral_module.dealiased_product

    def counted(f, h, memo):
        pairs.append(not (f.is_zero() or h.is_zero()))
        return product(f, h, memo)

    monkeypatch.setattr(spectral_module, "dealiased_product", counted)
    fft_calls.update(fftn=0, ifftn=0)
    rhs(st, default_spec(2))
    assert fft_calls == {"fftn": 1, "ifftn": 6}
    assert len(pairs) == 8 and sum(pairs) == 6


def test_f_and_both_steppers_never_complete_a_half(fft_calls, monkeypatch):
    # real fields keep their rfftn halves: no 2-D F, classical RK4 step
    # or Lawson step builds a full Hermitian array, and F still makes 6
    # inverse transforms and 1 forward one
    g = make_grid(2, 32, 8 * np.pi)
    st = _small_state(g, 0.1, t=1.0)
    completions = []
    complete = grid_module._hermitian_coeffs
    monkeypatch.setattr(grid_module, "_hermitian_coeffs",
                        lambda *args: completions.append(1) or complete(*args))
    fft_calls.update(fftn=0, ifftn=0)
    F = nonlinearity_value(st, default_spec(2))
    assert fft_calls == {"fftn": 1, "ifftn": 6}
    assert F.real and F._coeffs.shape == g.half_shape
    semilinear = default_spec(2, 0.0, 0.0, 2.0, 0.0)
    for spec in (default_spec(2), semilinear):
        nxt = step(st, spec, step_limit(g, spec))
        assert nxt.u._coeffs.shape == nxt.w._coeffs.shape == g.half_shape
    assert completions == []


@pytest.mark.parametrize("d, n, spec, forward", [
    (1, 256, LIFESPAN_SPEC, 1),
    (2, 32, default_spec(2), 1),
    (3, 16, default_spec(3), 1),
    (2, 32, default_spec(2, 0.0, 0.0, 2.0, 0.0), 1),
    (2, 32, default_spec(2, 0.0, 0.0, 0.0, 0.0), 0),
], ids=["lifespan-1d", "default-2d", "default-3d", "semilinear-2d", "zero-2d"])
def test_nonlinearity_makes_one_forward_transform(fft_calls, d, n, spec, forward):
    # F sums its live products in physical space and forward-transforms
    # the sum once; with every product zero it transforms nothing
    g = make_grid(d, n, 4 * np.pi)
    st = _small_state(g, 0.1)
    st = _spectral_state(st, 1.0)
    fft_calls.update(fftn=0, ifftn=0)
    F = nonlinearity_value(st, spec)
    assert fft_calls["fftn"] == forward
    assert F._values is None
    assert F.is_zero() == (forward == 0)


def _full_spec(d, seed):
    """Every slot of Q^{0j}, Q^{jl} and S live, with non-unit coefficients."""
    rng = make_rng(seed)
    nz = d + 2
    qjl, s = rng.normal(size=(d, d, nz)), rng.normal(size=(nz, nz))
    return NonlinearitySpec(d=d, q0=rng.normal(size=(d, nz)),
                            qjl=qjl + np.swapaxes(qjl, 0, 1), s=s + s.T)


def _z_list(u, w):
    """The Z list (u, w, d_1 u, ..., d_d u) of u and w, which may be complex."""
    return [u, w] + [derivative(u, axis) for axis in range(u.grid.d)]


def _f_on(zs, spec):
    """F on a Z list, through the one evaluation that nonlinearity_value makes."""
    return dynamics._nonlinearity(zs, *dynamics.coefficient_fields(zs, spec), spec)


def _product_by_product(zs, spec):
    """F on a Z list as the sum of its products, each dealiased on its
    own by a plain dealiased_product call."""
    g = zs[0].grid
    q0, qd = dynamics.coefficient_fields(zs, spec)
    out = Field.zero(g)
    for c in range(spec.nz):
        for cp in range(c, spec.nz):
            coeff = spec.s[c, cp] * (1.0 if c == cp else 2.0)
            out = out + dealiased_product(zs[c], zs[cp]) * coeff
    for j in range(g.d):
        out = out + dealiased_product(q0[j], derivative(zs[1], j)) * 2.0
    for j in range(g.d):
        for l in range(g.d):
            out = out + dealiased_product(qd[j][l], derivative(zs[2 + j], l))
    return out


def _mirrored(coeffs):
    """c_{-m} at every mode m."""
    axes = tuple(range(coeffs.ndim))
    return np.roll(np.flip(coeffs, axes), 1, axes)


@pytest.mark.parametrize("d, n", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_nonlinearity_matches_products_dealiased_one_at_a_time(d, n, real):
    # the 2/3 projector is linear, so truncating the summed products once
    # equals summing the truncated products, up to rounding; the complex
    # route runs on complex u and w, which no state holds
    g = make_grid(d, n, 4 * np.pi)
    st = _small_state(g, 0.1, t=1.0)
    zs = _z_list(st.u, st.w)
    if not real:
        rng = make_rng(62)
        zs = _z_list(st.u + random_band_field(g, rng, k_lo=-1, k_hi=1) * 0.05j,
                     st.w + random_band_field(g, rng, k_lo=-1, k_hi=1) * 0.05j)
    for spec in (default_spec(d, 0.7, -1.3, 2.0, 0.5), _full_spec(d, 63)):
        F = nonlinearity_value(st, spec) if real else _f_on(zs, spec)
        old = _product_by_product(zs, spec)
        assert F.real == real and old.real == real
        assert F._values is None
        assert np.max(np.abs(F.coeffs - old.coeffs)) <= 1e-14 * np.max(np.abs(old.coeffs))
        assert not np.any(F.coeffs[~g.dealias_mask])
        if real:
            assert np.array_equal(F.coeffs, np.conj(_mirrored(F.coeffs)))


@pytest.mark.parametrize("d, n, spec, calls, live", [
    (1, 256, LIFESPAN_SPEC, 3, 1),
    (2, 32, default_spec(2), 8, 6),
    (3, 16, _full_spec(3, 63), 15 + 3 + 9, 15 + 3 + 9),
], ids=["lifespan-1d", "default-2d", "full-3d"])
def test_f_makes_one_product_call_per_term_and_no_dead_operand(monkeypatch, d, n, spec,
                                                               calls, live):
    # every product of the general form makes its one dealiased_product
    # call; a product whose coefficient row is structurally zero gets one
    # zero field as both operands, and F builds no derivative that only
    # such a product would read: 2u^2 takes none at all
    g = make_grid(d, n, 4 * np.pi)
    st = _small_state(g, 0.1, t=1.0)
    pairs, derivatives = [], []
    product, derivative_ = spectral_module.dealiased_product, dynamics.derivative

    def counted(f, h, memo):
        pairs.append((f, h))
        return product(f, h, memo)

    monkeypatch.setattr(spectral_module, "dealiased_product", counted)
    monkeypatch.setattr(dynamics, "derivative",
                        lambda f, axis: derivatives.append(axis) or derivative_(f, axis))
    nonlinearity_value(st, spec)
    assert len(pairs) == calls
    assert sum(not (f.is_zero() or h.is_zero()) for f, h in pairs) == live
    zero = Field.zero(g).spectrum()
    assert all(f is h and f.spectrum() is zero
               for f, h in pairs if f.is_zero() and h.is_zero())
    if spec is LIFESPAN_SPEC:
        assert derivatives == []


def _inline_lawson_step(st, spec, dt):
    """Lawson IF-RK4 written out from lambda_mag and a public F per stage."""
    g = st.grid
    lam = g.half(lambda_mag(g))
    angle = lam * (dt / 2)
    cos, sin = np.cos(angle), np.sin(angle)
    sin_over_lam, lam_sin = sin / lam, lam * sin

    def turn(a, b):
        return cos * a + sin_over_lam * b, cos * b - lam_sin * a

    def F(t, a, b):
        state = KGState(g, t, Field.from_spectrum(g, a), Field.from_spectrum(g, b))
        return nonlinearity_value(state, spec).spectrum()

    t, u, w = st.t, st.u.spectrum(), st.w.spectrum()
    eu, ew = turn(u, w)
    f1 = F(t, u, w)
    f2 = F(t + dt / 2, *turn(u, w + f1 * (dt / 2)))
    f3 = F(t + dt / 2, eu, ew + f2 * (dt / 2))
    f4 = F(t + dt, *turn(eu, ew + f3 * dt))
    au, aw = turn(u, w + f1 * (dt / 6))
    nu, nw = turn(au, aw + (f2 + f3) * (dt / 3))
    return (cos, sin_over_lam, lam_sin), nu, nw + f4 * (dt / 6)


@pytest.mark.parametrize("d, n, spec", [
    (1, 256, LIFESPAN_SPEC),
    (2, 32, default_spec(2, 0.0, 0.0, 2.0, 0.0)),
], ids=["lifespan-1d", "semilinear-2d"])
def test_lawson_step_is_bitwise_the_inline_step(d, n, spec):
    # the flow tables are cached per (grid, dt): repeated steps hit the
    # cache and a new dt misses it, and either way the step has the bits
    # of the inline one, and the tables those of its expressions
    g = make_grid(d, n, 8 * np.pi)
    st = _small_state(g, 0.1, t=1.0)
    limit = step_limit(g, spec)
    dynamics._flow.cache_clear()
    for dt in (limit, 0.5 * limit, limit, 0.3 * limit, 0.5 * limit):
        nxt = step(st, spec, dt)
        tables, nu, nw = _inline_lawson_step(st, spec, dt)
        assert nxt.t == st.t + dt
        assert nxt.u.spectrum().tobytes() == nu.tobytes()
        assert nxt.w.spectrum().tobytes() == nw.tobytes()
        for got, want in zip(dynamics._flow(g, dt), tables):
            assert not got.flags.writeable
            assert got.tobytes() == want.tobytes()
        st = nxt
    info = dynamics._flow.cache_info()
    assert (info.misses, info.hits) == (3, 2 + 5)


def _assert_masked_coefficients(p):
    assert p._values is None
    assert not np.any(p.coeffs[~p.grid.dealias_mask])


@pytest.mark.parametrize("spec", [default_spec(2), default_spec(2, 0.0, 0.0, 2.0, 0.0)],
                         ids=["quasilinear", "semilinear"])
def test_product_memo_ends_with_the_evaluation(fft_calls, spec):
    # F shares the transforms of its Z list, and leaves its products in
    # physical space, only inside its own sum: after a step and an F
    # evaluation, a product transforms both of its operands and comes
    # back truncated, in coefficient space
    g = make_grid(2, 16, 4 * np.pi)
    st = _small_state(g, 0.1, t=1.0)
    step(st, spec, step_limit(g, spec))
    nonlinearity_value(st, spec)
    fft_calls.update(fftn=0, ifftn=0)
    first, second = dealiased_product(st.u, st.w), dealiased_product(st.u, st.w)
    assert fft_calls == {"fftn": 2, "ifftn": 4}
    _assert_masked_coefficients(first)
    _assert_masked_coefficients(second)


def test_run_to_time_guards_and_rows():
    g = make_grid(1, 64, 2 * np.pi)
    st = _small_state(g, 0.05, t=1.0)
    spec = LINEAR_SPEC
    with pytest.raises(ValueError):
        run_to_time(st, spec, 0.5)
    with pytest.raises(ValueError):
        run_to_time(st, spec, 2.0, schedule="cubic")
    with pytest.raises(ValueError):
        run_to_time(KGState(g, 0.0, st.u, st.w), spec, 2.0, schedule="log")
    out = run_to_time(st, spec, 2.0, checkpoints=5)
    assert out.verdict == "survived"
    assert len(out.rows) == 5
    order = default_norm_order(1)
    for row in out.rows:
        assert list(row) == ["t", f"sobolev_{order:g}", "flag"]
        assert row["flag"] == "ok"
    assert out.rows[-1]["t"] == pytest.approx(2.0, rel=1e-12)


def test_run_to_time_blow_up_verdict():
    # a conserved norm trips a sub-unity blow-up factor immediately;
    # exercises the early-stop path without needing actual blow-up
    g = make_grid(1, 64, 2 * np.pi)
    st = _small_state(g, 0.05, t=1.0)
    out = run_to_time(st, LINEAR_SPEC, 4.0, checkpoints=9, blow_up_factor=0.99)
    assert out.verdict.startswith("blew-up-at-")
    assert out.blowup_time is not None
    assert out.rows[-1]["flag"] == "blow-up"
    assert len(out.rows) == 2


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# one-checkpoint warm-up, then minor page faults per step of a 2-D n=128
# quasilinear run, and per 4 MiB array allocated after it; a fresh
# process, so no earlier allocation has raised glibc's dynamic malloc
# thresholds first
_FAULT_PROBE = """
import math, resource
import numpy as np
from kglab.data import make_rng, random_band_field
from kglab.dynamics import KGState, run_to_time, step_limit
from kglab.grid import make_grid
from kglab.nonlinearity import default_spec

g = make_grid(2, 128, 16 * math.pi)
rng = make_rng(5)
u = random_band_field(g, rng, k_lo=-1, k_hi=1)
w = random_band_field(g, rng, k_lo=-1, k_hi=1)
st = KGState(g, 1.0, u * (0.05 / u.sup()), w * (0.05 / w.sup()))
spec = default_spec(2)
h, steps = step_limit(g, spec), 10
run_to_time(st, spec, st.t + 2 * h, checkpoints=2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_to_time(st, spec, st.t + steps * h, checkpoints=2)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps)
np.ones(1 << 19)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(steps):
    np.ones(1 << 19)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or not _glibc(),
                    reason="the heap is held through glibc's mallopt")
def test_run_to_time_keeps_its_heap_between_steps():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    per_step, per_array = map(float, proc.stdout.split())
    assert per_step < 50
    # the held heap also serves arrays larger than a grid array: a frozen
    # mmap threshold below them would map and fault each one afresh
    assert per_array < 50


def test_good_unknown_is_half_wave_for_linear_equation():
    g = make_grid(1, 64, 2 * np.pi)
    st = _small_state(g, 0.4)
    ucal, q_bound = good_unknown_field(paralinearize(st, LINEAR_SPEC))
    assert q_bound == 0.0
    assert (ucal - st.half_wave()).l2() < 1e-14


def test_good_unknown_difference_is_quadratic_in_amplitude():
    g = make_grid(1, 64, 4 * np.pi)
    spec = default_spec(1)
    r1 = good_unknown(_small_state(g, 0.1), spec)
    r2 = good_unknown(_small_state(g, 0.05), spec)
    assert r1.diff_norm > 0
    assert r1.diff_norm / r2.diff_norm == pytest.approx(4.0, rel=0.15)
    assert np.isfinite(r1.quadratic_ratio) and r1.quadratic_ratio > 0


def test_good_unknown_guard_on_large_data():
    g = make_grid(1, 64, 4 * np.pi)
    big = KGState(g, 0.0, gaussian_bump(g, 1.0) * 5.0, Field.zero(g))
    spec = default_spec(1)
    with pytest.raises(ValueError, match="sup bound"):
        good_unknown_field(paralinearize(big, spec))
    assert q_sup_bound(paralinearize(big, spec).q) > 0.5


def test_q_is_keyed_by_monomial_so_its_powers_stay_few():
    # in 2-D q carries zeta_1^2, zeta_1 zeta_2 and zeta_2^2 over <zeta>^2;
    # q^k keeps one key per monomial of degree 2k: 2k + 1 of them
    g = make_grid(2, 8, 4 * np.pi)
    q = paralinearize(_small_state(g, 0.1), default_spec(2)).q
    assert set(q.parts) == {((2, 0), -2), ((1, 1), -2), ((0, 2), -2)}
    assert [len(q.power(k).parts) for k in (3, 6)] == [7, 13]


def _q_on_lattice(q):
    """max |q(x, zeta)| over the grid points x and the half-step lattice
    zeta, written out key by key."""
    g = q.grid
    axes = [np.arange(-g.n, g.n) * (g.dxi / 2.0)] * g.d
    zeta = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    bracket2 = 1.0 + np.sum(zeta**2, axis=-1)
    total = 0.0
    for (alpha, p), f in q.parts.items():
        zf = np.prod([zeta[:, j] ** k for j, k in enumerate(alpha)], axis=0) * bracket2 ** (p / 2)
        total = total + np.outer(f.values.ravel(), zf)
    return float(np.abs(total).max())


def test_q_sup_bound_bounds_q_on_the_sampled_lattice():
    g2 = make_grid(2, 16, 4 * np.pi)
    q2 = paralinearize(_small_state(g2, 0.1), default_spec(2)).q
    assert q_sup_bound(q2) >= _q_on_lattice(q2) > 0
    # one key in 1-D: the bound is sup|x-part| times sup zeta^2 / (1 + zeta^2)
    g1 = make_grid(1, 64, 4 * np.pi)
    q1 = paralinearize(_small_state(g1, 0.1), default_spec(1)).q
    (xpart,) = q1.parts.values()
    z = np.arange(-g1.n, g1.n) * (g1.dxi / 2.0)
    want = float(np.max(np.abs(xpart.values))) * float(np.max(np.abs(z * z / (1.0 + z * z))))
    assert q_sup_bound(q1) == want >= _q_on_lattice(q1)


def test_transport_symbol_matches_the_matrix_on_live_couplings():
    # W(q) <zeta> + Q^{01} zeta: five keys, products of q's x-parts; the
    # 1-D n = 1024 grid on [-8 pi, 8 pi) has live off-diagonal couplings
    g = make_grid(1, 1024, 8 * np.pi)
    a = transport_symbol(paralinearize(_small_state(g, 0.1), default_spec(1)))
    assert len(a.parts) == 5
    M = weyl_matrix(a)
    assert np.count_nonzero(M) > np.count_nonzero(np.diag(M))
    f = random_band_field(g, make_rng(62), real=False)
    slow = Field.from_spectrum(g, M @ f.coeffs)
    assert (weyl_apply(a, f) - slow).l2() <= 1e-12 * slow.l2()


@pytest.mark.parametrize("d, n, full, tail", [
    (1, 64, False, False), (2, 16, False, False), (3, 8, False, False), (2, 16, True, False),
    (1, 64, False, True), (2, 16, False, True), (3, 8, False, True), (2, 16, True, True),
], ids=["1d", "2d", "3d", "2d-full", "1d-tail", "2d-tail", "3d-tail", "2d-full-tail"])
def test_reduced_residual_halves_like_dt_squared(d, n, full, tail):
    # the full spec has every Q^{0j}, Q^{jl} and S slot live, so F enters
    # dQ^{0j}/dt and dQ^{jl}/dt through the w slot
    g = make_grid(d, n, 8 * np.pi)
    spec = _full_spec(d, 71) if full else default_spec(d)
    st = _small_state(g, 0.1, seed=61, t=1.0)

    def advance(s, span):
        n_sub = max(1, int(math.ceil(span / (0.8 * step_limit(g, spec)))))
        cur, h = s, span / n_sub
        for _ in range(n_sub):
            cur = step(cur, spec, h)
        return cur

    res = []
    for span in (0.16, 0.08):
        res.append(reduced_equation_residual(st, advance(st, span), spec,
                                             include_truncation_tail=tail))
    assert res[0] / res[1] == pytest.approx(4.0, rel=0.25)


@pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8)], ids=["1d", "2d", "3d"])
def test_reduced_rhs_makes_a_fixed_number_of_operator_calls(monkeypatch, d, n):
    # the eight terms are four T_a calls and three error operators (with 3,
    # 3 and 4 T_a calls inside): 14 T_a calls whatever the dimension
    g = make_grid(d, n, 8 * np.pi)
    spec = default_spec(d)
    st = _small_state(g, 0.1, seed=61, t=1.0)
    para = paralinearize(st, spec)
    calls = {"weyl_apply": 0, "error_op": 0}
    weyl_apply_, error_op_ = paradiff_module.weyl_apply, paradiff_module.error_op

    def counting_weyl_apply(a, f):
        calls["weyl_apply"] += 1
        return weyl_apply_(a, f)

    def counting_error_op(symbols, f):
        calls["error_op"] += 1
        return error_op_(symbols, f)

    for module in (dynamics, paradiff_module):
        monkeypatch.setattr(module, "weyl_apply", counting_weyl_apply)
    monkeypatch.setattr(dynamics, "error_op", counting_error_op)
    dynamics.reduced_rhs(st, para, spec)
    assert calls == {"weyl_apply": 14, "error_op": 3}


def test_q_squared_transforms_each_x_part_once_and_each_output_key_once(fft_calls):
    # the 2-D q has 3 keys, zeta_j zeta_l <zeta>^-2, and q q has 5; its 9
    # key pairs share one memo, so each distinct x-part makes one inverse
    # transform and each output key one forward transform (15 and 9 when
    # each pair was its own dealiased product)
    g = make_grid(2, 32, 8 * np.pi)
    q = paralinearize(_small_state(g, 0.1, seed=61, t=1.0), default_spec(2)).q
    # x-parts held in coefficient space alone, so every inverse transform counts
    q = paradiff_module.Symbol(g, {key: Field.from_spectrum(g, f.spectrum())
                                   for key, f in q.parts.items()})
    assert len(q.parts) == 3 and not any(f.is_zero() for f in q.parts.values())
    fft_calls.update(fftn=0, ifftn=0)
    qq = q * q
    assert len(qq.parts) == 5
    assert fft_calls == {"fftn": 5, "ifftn": 3}


def test_reduced_residual_paralinearizes_each_state_once(monkeypatch):
    # prev, nxt and the midpoint are each paralinearized once, and the
    # midpoint's build serves the good unknown, the drift and the right
    # side, the midpoint's F included: three coefficient builds in all
    g = make_grid(2, 32, 8 * np.pi)
    spec = default_spec(2)
    prev = _small_state(g, 0.1, seed=61, t=1.0)
    nxt = step(prev, spec, 0.5 * step_limit(g, spec))
    built, coeff_calls = [], []
    paralinearize_, coefficient_fields_ = dynamics.paralinearize, dynamics.coefficient_fields

    def counting_paralinearize(state, spec):
        built.append(state.t)
        return paralinearize_(state, spec)

    def counting_coefficient_fields(zs, spec):
        coeff_calls.append(1)
        return coefficient_fields_(zs, spec)

    monkeypatch.setattr(dynamics, "paralinearize", counting_paralinearize)
    monkeypatch.setattr(dynamics, "coefficient_fields", counting_coefficient_fields)
    assert reduced_equation_residual(prev, nxt, spec) > 0
    assert sorted(built) == [prev.t, 0.5 * (prev.t + nxt.t), nxt.t]
    assert len(coeff_calls) == 3


@pytest.mark.parametrize("d, n", [(1, 64), (2, 32)])
def test_f_on_a_paralinearization_is_f_on_its_state(d, n):
    # the reduced right side evaluates F on the midpoint's build; that is
    # bitwise the F that nonlinearity_value builds from the state itself
    g = make_grid(d, n, 8 * np.pi)
    spec = default_spec(d)
    st = _small_state(g, 0.1, seed=64, t=1.0)
    para = paralinearize(st, spec)
    from_para = dynamics._nonlinearity(para.zs, para.q0, para.qd, spec)
    assert from_para.coeffs.tobytes() == nonlinearity_value(st, spec).coeffs.tobytes()


def test_reduced_residual_guards():
    g = make_grid(1, 64, 8 * np.pi)
    spec = default_spec(1)
    st = _small_state(g, 0.1, t=1.0)
    with pytest.raises(ValueError):
        reduced_equation_residual(st, st, spec)
    other = _small_state(make_grid(1, 128, 8 * np.pi), 0.1, t=2.0)
    with pytest.raises(ValueError):
        reduced_equation_residual(st, other, spec)


def test_duhamel_pieces_scale_and_close():
    g = make_grid(1, 32, 4 * np.pi)
    spec = default_spec(1)
    st = _small_state(g, 0.05, seed=62, t=1.0)
    run = run_to_time(st, spec, 2.0, checkpoints=5, schedule="linear",
                      keep_states=True)
    out = duhamel_check(run.states, make_boundary_kernels(g, spec),
                        make_cubic_kernels(g, spec), rule="simpson")
    assert out["nodes"] == 5
    assert out["mismatch"] < 0.2 * out["boundary"]
    assert out["cubic"] < out["boundary"]


def test_quadrature_weights_integrate_polynomials_exactly():
    # trapezoid on non-uniform nodes is exact on affine functions, Simpson
    # on uniform odd nodes on cubics, and both sum to t_N - t_0
    ts = np.array([1.0, 1.3, 2.0, 2.25, 3.5])
    wts = dynamics._quad_weights(ts, "trapezoid")
    assert wts.sum() == pytest.approx(ts[-1] - ts[0], rel=1e-14)
    assert wts @ (3.0 * ts - 2.0) == pytest.approx(1.5 * (3.5**2 - 1.0) - 2.0 * 2.5, rel=1e-14)

    ts = np.linspace(1.0, 3.0, 7)
    wts = dynamics._quad_weights(ts, "simpson")
    assert wts.sum() == pytest.approx(2.0, rel=1e-14)
    cubic = ts**3 - 2.0 * ts**2 + 0.5 * ts + 1.0
    exact = (3.0**4 - 1.0) / 4 - 2.0 * (3.0**3 - 1.0) / 3 + 0.25 * (3.0**2 - 1.0) + 2.0
    assert wts @ cubic == pytest.approx(exact, rel=1e-14)


def test_duhamel_quadrature_guards():
    g = make_grid(1, 32, 4 * np.pi)
    kernels = make_boundary_kernels(g, default_spec(1)), make_cubic_kernels(g, default_spec(1))
    sts = [_small_state(g, 0.05, t=float(t)) for t in (1, 2, 3, 4)]
    with pytest.raises(ValueError, match="odd"):
        duhamel_check(sts, *kernels, rule="simpson")
    with pytest.raises(ValueError, match="quadrature rule"):
        duhamel_check(sts, *kernels, rule="midpoint")
    with pytest.raises(ValueError):
        duhamel_check(sts[:1], *kernels)
    with pytest.raises(ValueError):
        duhamel_check([sts[1], sts[0]], *kernels, rule="trapezoid")


def test_normal_form_boundary_sums_over_sign_pairs():
    # the full-box kernels built once give bitwise the sum of the
    # one-shot pseudoproducts on the half-waves' own supports
    g = make_grid(1, 16, 2 * np.pi)
    spec = default_spec(1)
    st = _small_state(g, 0.2, seed=63, t=1.5)
    total = normal_form_boundary(st, make_boundary_kernels(g, spec))
    U = st.half_wave()
    fields = {1: U, -1: U.conj()}
    parts = Field.zero(g)
    for mu, nu in SIGN_PAIRS:
        kern = resonant_kernel(a_kernel(spec, mu, nu), mu, nu)
        parts = parts + bilinear_apply(kern, fields[mu], fields[nu])
    want = semigroup(parts, st.t, -1) * (-1j)
    assert np.array_equal(total.coeffs, want.coeffs)
    assert total.l2() > 0


def test_scattering_limit_on_synthetic_cauchy_sequence():
    g = make_grid(1, 64, 4 * np.pi)
    rng = make_rng(64)
    v_inf = random_band_field(g, rng, k_lo=-1, k_hi=1)
    w = random_band_field(g, rng, k_lo=-1, k_hi=1)
    ts = np.geomspace(1.0, 200.0, 14)
    vs = [v_inf + w * (1.0 / t) for t in ts]
    out = scattering_limit(ts, [(v - vs[-1]).l2() for v in vs], alpha=0.8, N=8.0)
    assert out["monotone"] and out["monotone_octave"]
    assert out["fit"].slope < -0.9
    assert out["target_exponent"] == pytest.approx(-0.7)
    assert out["band"][0] < out["target_exponent"] < out["band"][1]


def test_scattering_limit_guards():
    with pytest.raises(ValueError, match="ten"):
        scattering_limit([float(t) for t in range(1, 6)], [0.0] * 5, alpha=0.18, N=8.0)
    ts = [float(t) for t in range(1, 12)]
    ts[5] = ts[4]
    with pytest.raises(ValueError, match="increasing"):
        scattering_limit(ts, [0.0] * 11, alpha=0.18, N=8.0)
    with pytest.raises(ValueError, match="one gap per time"):
        scattering_limit([float(t) for t in range(1, 12)], [0.0] * 10, alpha=0.18, N=8.0)
