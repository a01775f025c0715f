"""The quadratic resonance phase, its lattice lower bounds against the
full-lattice oracle, the kernel families, and the exact pseudoproduct
machinery against literal-sum oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest

from kglab import resonance
from kglab.data import make_rng, random_band_field
from kglab.dynamics import make_cubic_kernels
from kglab.grid import make_grid
from kglab.nonlinearity import default_spec
from kglab.oracles import bilinear_oracle, phase_scan_oracle, trilinear_oracle
from kglab.resonance import (
    BilinearSymbol,
    Pseudoproduct,
    TrilinearSymbol,
    a_kernel,
    b_kernel,
    bilinear_apply,
    lam,
    phase,
    phase_bound_scan,
    phi_inv,
    quasilinear_symbol,
    resonant_kernel,
    semilinear_symbol,
    trilinear_apply,
)
from kglab.spectral import dealiased_product, lp_project


def _vecs(rng, n, d):
    return 4.0 * rng.standard_normal((n, d))


# ---------------------------------------------------------------------------
# phase conventions


def test_phase_sign_convention():
    rng = make_rng(31)
    z1, z2 = _vecs(rng, 40, 2), _vecs(rng, 40, 2)
    for mu in (1, -1):
        for nu in (1, -1):
            want = -lam(z1 + z2) + mu * lam(z1) + nu * lam(z2)
            assert np.allclose(phase(mu, nu, z1, z2), want, rtol=0, atol=0)


def test_phase_rejects_bad_signs():
    with pytest.raises(ValueError):
        phase(0, 1, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        phase(1, 2, np.zeros(1), np.zeros(1))


def test_minus_minus_phase_below_minus_three():
    # -lam(z1+z2) - lam(z1) - lam(z2) <= -3 with equality only at 0
    rng = make_rng(33)
    z1, z2 = _vecs(rng, 200, 2), _vecs(rng, 200, 2)
    assert np.all(phase(-1, -1, z1, z2) <= -3.0)
    assert phase(-1, -1, np.zeros(2), np.zeros(2)) == -3.0


def test_phi_inv_is_reciprocal_away_from_floor():
    rng = make_rng(34)
    z1, z2 = _vecs(rng, 50, 1), _vecs(rng, 50, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = phi_inv(-1, -1, z1, z2)
    assert np.allclose(got, 1.0 / phase(-1, -1, z1, z2), rtol=1e-15)


def test_phi_inv_floors_with_warning():
    z1 = np.array([[0.3]])
    z2 = np.array([[0.4]])
    with pytest.warns(UserWarning):
        out = phi_inv(1, 1, z1, z2, floor=10.0)
    assert out == 0.0


# ---------------------------------------------------------------------------
# brute-force phase bounds: frozen values, dimension independence


_FROZEN = {
    # (mu, nu): (min |Phi|, c_phi, c_grad) at radius 8, step 0.5
    (1, 1): (0.183954, 1.2992, 1.9846),
    (1, -1): (0.093296, 1.3984, 2.7622),
    (-1, -1): (3.0, 0.3333, 2.7753),
}


@pytest.mark.parametrize("signs", sorted(_FROZEN), ids=lambda s: f"{s[0]:+d}{s[1]:+d}")
def test_phase_scan_frozen_values_1d(signs):
    out = phase_bound_scan(1, *signs, radius=8.0, step=0.5)
    mn, cp, cg = _FROZEN[signs]
    assert out["floor_violations"] == 0
    assert out["min_abs_phase"] == pytest.approx(mn, rel=1e-3)
    assert out["c_phi"] == pytest.approx(cp, rel=1e-3)
    assert out["c_grad"] == pytest.approx(cg, rel=1e-3)


def test_phase_scan_dimension_independent():
    # the phase is radial in each argument; planar pairs can beat
    # collinear ones in principle, but measured bounds agree
    a = phase_bound_scan(1, 1, -1, radius=8.0, step=0.5)
    b = phase_bound_scan(2, 1, -1, radius=8.0, step=0.5)
    assert b["n_pairs"] > a["n_pairs"]
    assert b["min_abs_phase"] == pytest.approx(a["min_abs_phase"], rel=1e-6)
    assert b["c_phi"] == pytest.approx(a["c_phi"], rel=1e-3)
    assert b["c_grad"] == pytest.approx(a["c_grad"], rel=1e-3)
    c = phase_bound_scan(3, 1, -1, radius=8.0, step=0.5)
    assert c["min_abs_phase"] == pytest.approx(a["min_abs_phase"], rel=1e-6)
    # the d = 3 slice stands for no countable part of the full lattice
    assert c["n_pairs_covered"] == c["n_pairs"]


def test_phase_scan_refinement_is_monotone():
    # the step-0.25 lattice contains the step-0.5 lattice, so the
    # scanned minimum can only drop and c_phi can only rise
    coarse = phase_bound_scan(1, 1, 1, radius=4.0, step=0.5)
    fine = phase_bound_scan(1, 1, 1, radius=4.0, step=0.25)
    assert fine["min_abs_phase"] <= coarse["min_abs_phase"]
    assert fine["c_phi"] >= coarse["c_phi"]
    assert fine["min_abs_phase"] == pytest.approx(coarse["min_abs_phase"], rel=0.15)


@pytest.mark.parametrize("floor", [1e-8, 0.6], ids=["floor-default", "floor-0.6"])
@pytest.mark.parametrize("step", [0.5, 0.25])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)],
                         ids=lambda s: f"{s[0]:+d}{s[1]:+d}")
def test_wedge_scan_matches_full_lattice_oracle(signs, d, step, floor):
    # at floor 0.6 the (++), (+-) and (-+) phases dip below the floor,
    # so the orbit weights of the wedge rows decide the count
    fast = phase_bound_scan(d, *signs, radius=8.0, step=step, floor=floor)
    full = phase_scan_oracle(d, *signs, radius=8.0, step=step, floor=floor)
    assert fast["min_abs_phase"] == full["min_abs_phase"]
    assert fast["c_phi"] == full["c_phi"]
    assert fast["c_grad"] == pytest.approx(full["c_grad"], rel=1e-12, abs=0)
    assert fast["floor_violations"] == full["floor_violations"]
    if floor == 0.6 and signs != (-1, -1):
        assert full["floor_violations"] > 0
    assert fast["n_pairs_covered"] == full["n_pairs"]
    assert fast["n_pairs"] < full["n_pairs"]


@pytest.mark.parametrize("d", [2, 3])
def test_scan_blocking_changes_no_bit(monkeypatch, d):
    # one row per block, several rows with a ragged last block, one block
    reports = []
    for budget in (1, 5000, 1 << 40):
        monkeypatch.setattr(resonance, "_BLOCK_PAIRS", budget)
        reports.append(phase_bound_scan(d, -1, 1, radius=8.0, step=0.5))
    first = reports[0]
    for out in reports[1:]:
        assert out.keys() == first.keys()
        for key, value in first.items():
            assert np.asarray(out[key]).tobytes() == np.asarray(value).tobytes(), key


def test_refined_2d_scan_working_set_is_bounded():
    # the pinned refinement: about 21M pairs in blocks of 2^16 (8 MiB measured)
    tracemalloc.start()
    try:
        phase_bound_scan(2, 1, -1, radius=8.0, step=0.125)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_phase_scan_rejects_bad_lattice():
    with pytest.raises(ValueError):
        phase_bound_scan(1, 1, 1, radius=-2.0, step=0.5)
    with pytest.raises(ValueError):
        phase_bound_scan(1, 1, 1, radius=2.0, step=0.0)


# ---------------------------------------------------------------------------
# kernels


def test_resonant_kernel_is_phi_inv_times_base():
    rng = make_rng(35)
    z1, z2 = _vecs(rng, 60, 1), _vecs(rng, 60, 1)
    base = semilinear_symbol(1, -1)
    res = resonant_kernel(base, 1, -1)
    want = phi_inv(1, -1, z1, z2) * base(z1, z2)
    assert np.allclose(res(z1, z2), want, rtol=1e-14)


def test_quasilinear_symbol_vanishes_off_gap():
    # the ratio cutoff kills pairings with |z1| >= 1.6 * 2^-10 |z1+2z2|
    N = 8
    m = quasilinear_symbol(N)
    z1 = np.array([[1.0], [0.001]])
    z2 = np.array([[1.5], [30.0]])
    vals = m(z1, z2)
    assert vals[0] == 0.0  # comparable frequencies: cut
    assert vals[1] != 0.0  # ratio ~ 1.7e-5: live


def test_high_high_and_high_low_products_reach_a_lower_band():
    # band 5 times band 5 cascades down into band 2, and band 2 times
    # the low block stays in band 2: both products have band-2 content
    g = make_grid(1, 256, 2 * np.pi)
    rng = make_rng(36)
    k = 2
    f5 = random_band_field(g, rng, k_lo=5, k_hi=5)
    h5 = random_band_field(g, rng, k_lo=5, k_hi=5)
    f2 = random_band_field(g, rng, k_lo=2, k_hi=2)
    h0 = random_band_field(g, rng, k_lo=-1, k_hi=0)
    assert lp_project(dealiased_product(f2, h0), k).l2() > 0
    assert lp_project(dealiased_product(f5, h5), k).l2() > 0


# ---------------------------------------------------------------------------
# pseudoproduct application against oracles


def test_unit_kernel_reproduces_product():
    g = make_grid(1, 64, np.pi)
    rng = make_rng(37)
    f = random_band_field(g, rng)
    h = random_band_field(g, rng)
    one = BilinearSymbol(lambda z1, z2: np.ones(z1.shape[:-1]))
    out = bilinear_apply(one, f, h)
    assert (out - dealiased_product(f, h)).l2() < 1e-13 * f.l2() * h.l2()


def test_bilinear_apply_matches_oracle_1d():
    g = make_grid(1, 32, np.pi)
    rng = make_rng(38)
    spec = default_spec(1)
    m = a_kernel(spec, 1, -1)
    f = random_band_field(g, rng, real=False)
    h = random_band_field(g, rng, real=False)
    fast = bilinear_apply(m, f, h)
    slow = bilinear_oracle(m, f, h)
    assert (fast - slow).l2() <= 1e-12 * max(slow.l2(), 1e-30)


def test_bilinear_apply_matches_oracle_2d():
    g = make_grid(2, 8, np.pi)
    rng = make_rng(39)
    spec = default_spec(2)
    m = resonant_kernel(a_kernel(spec, 1, 1), 1, 1)
    f = random_band_field(g, rng, real=False)
    h = random_band_field(g, rng, real=False)
    fast = bilinear_apply(m, f, h)
    slow = bilinear_oracle(m, f, h)
    assert (fast - slow).l2() <= 1e-12 * max(slow.l2(), 1e-30)


@pytest.mark.parametrize("d, n", [(1, 16), (2, 8)])
def test_full_box_bilinear_pseudoproduct_matches_oracle(d, n):
    # the cached route that normal_form_boundary applies at every state
    g = make_grid(d, n, np.pi)
    rng = make_rng(44)
    m = resonant_kernel(a_kernel(default_spec(d), 1, -1), 1, -1)
    f = random_band_field(g, rng, real=False)
    h = random_band_field(g, rng, real=False)
    slow = bilinear_oracle(m, f, h)
    fast = Pseudoproduct(m, g, None, None).apply(f, h)
    assert (fast - slow).l2() <= 1e-12 * slow.l2()


def test_pseudoproduct_takes_two_or_three_operands():
    g = make_grid(1, 16, np.pi)
    f = random_band_field(g, make_rng(45), real=False)
    one = BilinearSymbol(lambda z1, z2: np.ones(z1.shape[:-1]))
    with pytest.raises(ValueError, match="2 or 3 operands"):
        Pseudoproduct(one, g, None)
    with pytest.raises(ValueError, match="2 or 3 operands"):
        Pseudoproduct(one, g, None, None, None, None)
    kern = Pseudoproduct(one, g, None, None)
    with pytest.raises(ValueError, match="takes 2 fields, got 3"):
        kern.apply(f, f, f)
    with pytest.raises(ValueError, match="takes 2 fields, got 1"):
        kern.apply(f)


def test_trilinear_apply_matches_oracle():
    g = make_grid(1, 16, np.pi)
    rng = make_rng(40)
    spec = default_spec(1, alpha=0.5, beta=0.0, gamma_u=1.0, gamma_t=0.3)
    b = b_kernel(spec, 1, 1, -1)
    f, h, w = (random_band_field(g, rng, real=False) for _ in range(3))
    fast = trilinear_apply(b, f, h, w)
    slow = trilinear_oracle(b, f, h, w)
    assert (fast - slow).l2() <= 1e-12 * max(slow.l2(), 1e-30)


def test_cubic_kernels_match_oracle():
    # the full-box cached kernels that duhamel_check re-applies at
    # every quadrature node
    g = make_grid(1, 16, np.pi)
    rng = make_rng(43)
    spec = default_spec(1)
    kern = make_cubic_kernels(g, spec)[(1, 1, -1)]
    f, h, w = (random_band_field(g, rng, real=False) for _ in range(3))
    slow = trilinear_oracle(b_kernel(spec, 1, 1, -1), f, h, w)
    assert (kern.apply(f, h, w) - slow).l2() <= 1e-12 * slow.l2()


def test_trilinear_unit_kernel_is_triple_product():
    # full-box inputs, so the inner (h, w) truncation is live and only
    # the right-associated product f*(h*w) matches
    rng = make_rng(41)
    one = TrilinearSymbol(lambda z1, z2, z3: np.ones(z1.shape[:-1]))
    for g in (make_grid(1, 64, np.pi), make_grid(2, 16, np.pi)):
        f, h, w = (random_band_field(g, rng, real=False) for _ in range(3))
        out = trilinear_apply(one, f, h, w)
        want = dealiased_product(f, dealiased_product(h, w))
        assert (out - want).l2() < 1e-12 * want.l2()
