"""Projectors, multipliers, dealiased products, and the half-flow."""

import numpy as np
import pytest

from kglab.data import make_rng, random_band_field
from kglab import spectral
from kglab.grid import Field, make_grid
from kglab.spectral import (
    dealias,
    dealiased_product,
    dealiased_sum,
    derivative,
    laplacian,
    lambda_power,
    lp_interval,
    lp_low,
    lp_project,
    q_shell,
    semigroup,
)

G1 = make_grid(1, 128, 4 * np.pi)
G2 = make_grid(2, 32, 2 * np.pi)


def _field(g, seed, real=False):
    return random_band_field(g, make_rng(seed), real=real)


def test_partition_of_unity():
    for g, seed in ((G1, 0), (G2, 1)):
        f = _field(g, seed)
        total = Field.zero(g)
        for k in range(-1, g.k_top + 1):
            total = total + lp_project(f, k)
        # bands reconstruct everything except the Nyquist rows, which
        # random_band_field never populates
        assert (total - f).l2() < 1e-12 * f.l2()


def test_lp_low_matches_band_sum():
    f = _field(G1, 2)
    acc = lp_project(f, -1)
    for k in range(0, 4):
        acc = acc + lp_project(f, k)
    assert (acc - lp_low(f, 3)).l2() < 1e-13 * f.l2()


def test_lp_interval_endpoints():
    f = _field(G1, 3)
    got = lp_interval(f, 1, 2)
    want = lp_project(f, 1) + lp_project(f, 2)
    assert (got - want).l2() < 1e-13 * f.l2()


def test_band_projection_is_frequency_local():
    f = _field(G1, 4)
    pk = lp_project(f, 2)
    mags = G1.xi_mags
    live = np.abs(pk.coeffs) > 0
    assert np.all(mags[live] >= 1.25 * 2.0 ** 1 - 1e-12)
    assert np.all(mags[live] <= 1.6 * 2.0 ** 2 + 1e-12)


def test_semigroup_unitary_and_group_law():
    f = _field(G2, 5)
    assert semigroup(f, 0.7).l2() == pytest.approx(f.l2(), rel=1e-13)
    two_step = semigroup(semigroup(f, 0.3), 0.4)
    one_step = semigroup(f, 0.7)
    assert (two_step - one_step).l2() < 1e-12 * f.l2()
    undone = semigroup(semigroup(f, 0.7), 0.7, -1)
    assert (undone - f).l2() < 1e-12 * f.l2()


def test_semigroup_sign_guard():
    with pytest.raises(ValueError):
        semigroup(_field(G1, 6), 1.0, sign=2)


def test_lambda_power_inverts():
    f = _field(G1, 7)
    back = lambda_power(lambda_power(f, 1.5), -1.5)
    assert (back - f).l2() < 1e-12 * f.l2()


def test_derivative_single_mode():
    g = make_grid(1, 32, np.pi)
    m = 5
    f = Field.from_values(g, np.exp(1j * m * g.dxi * g.x_axes[0]))
    df = derivative(f, 0)
    want = 1j * m * g.dxi * f.values
    assert np.max(np.abs(df.values - want)) < 1e-12


def test_laplacian_matches_double_derivative():
    f = _field(G2, 8)
    dd = derivative(derivative(f, 0), 0) + derivative(derivative(f, 1), 1)
    assert (laplacian(f) - dd).l2() < 1e-12 * max(f.l2(), 1.0)


def test_dealias_idempotent():
    g = make_grid(1, 32, 1.0)
    rng = make_rng(9)
    f = Field.from_values(g, rng.standard_normal(g.shape))
    once = dealias(f)
    twice = dealias(once)
    assert np.array_equal(once.coeffs, twice.coeffs)


def test_dealiased_product_is_alias_free():
    # two modes near the 2/3 edge: their aliasing image would land at a
    # low retained mode on a plain product; the 2/3 rule must kill it
    g = make_grid(1, 32, np.pi)
    cut = g.n // 3
    x = g.x_axes[0]
    f = Field.from_values(g, np.exp(1j * cut * g.dxi * x))
    prod = dealiased_product(f, f)
    # true product frequency 2*cut leaves the box; nothing may remain
    assert prod.l2() < 1e-14


def test_dealiased_product_exact_in_box():
    g = make_grid(1, 64, np.pi)
    x = g.x_axes[0]
    f = Field.from_values(g, np.cos(3 * g.dxi * x))
    h = Field.from_values(g, np.cos(5 * g.dxi * x))
    prod = dealiased_product(f, h)
    want = 0.5 * (np.cos(8 * g.dxi * x) + np.cos(2 * g.dxi * x))
    assert np.max(np.abs(prod.values - want)) < 1e-12


def test_zero_operand_gives_exact_zeros_with_no_transform(fft_calls):
    f = _field(G2, 11)
    nan = Field.from_values(G2, np.full(G2.shape, np.nan))
    for zero in (Field.zero(G2), Field.from_values(G2, np.zeros(G2.shape))):
        for a, b in ((zero, f), (f, zero), (zero, nan), (zero, zero)):
            prod = dealiased_product(a, b)
            assert prod._coeffs is not None and prod._values is None
            assert not np.any(prod.coeffs)
    assert fft_calls == {"fftn": 0, "ifftn": 0}


def test_square_shares_one_inverse_transform(fft_calls):
    f = Field.from_spectrum(G1, _field(G1, 12).coeffs)
    g = Field.from_spectrum(G1, f.coeffs.copy())  # equal to f, but not f
    square = dealiased_product(f, f)
    assert fft_calls == {"fftn": 1, "ifftn": 1}
    assert np.array_equal(square.coeffs, dealiased_product(f, g).coeffs)


def _spectral_field(g, seed, real):
    """A random band field held in coefficient space alone."""
    f = _field(g, seed, real)
    return Field.from_spectrum(g, f.spectrum())


def _terms(g, real):
    """(c, f, h) terms over two shared fields a, b and an unshared c,
    with a square, unit and non-unit coefficients and two zero terms."""
    a, b, c = (_spectral_field(g, seed, real) for seed in (20, 21, 22))
    zero = Field.zero(g)
    terms = [(1.0, a, a), (2.0, a, b), (-0.5, b, c), (1.0, zero, a),
             (3.0, c, a), (1.0, b, Field.from_values(g, np.zeros(g.shape)))]
    return terms, [a, b]


def test_dealiased_sum_makes_one_product_call_per_term(monkeypatch):
    terms, shared = _terms(G2, True)
    calls = []
    product = spectral.dealiased_product

    def counted(f, h, memo):
        calls.append((f, h))
        return product(f, h, memo)

    monkeypatch.setattr(spectral, "dealiased_product", counted)
    dealiased_sum(G2, iter(terms), shared)
    assert calls == [(f, h) for _, f, h in terms]


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_dealiased_sum_transforms_each_shared_field_once(fft_calls, real):
    # a and b are shared and live, so one inverse transform each; c is
    # not shared and enters two live products, so two; the sum makes
    # one forward transform and is returned in coefficient space
    terms, shared = _terms(G2, real)
    fft_calls.update(fftn=0, ifftn=0)
    out = dealiased_sum(G2, iter(terms), shared)
    assert fft_calls == {"fftn": 1, "ifftn": 4}
    assert out._values is None and out.real == real


@pytest.mark.parametrize("d, n", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_dealiased_sum_is_the_sum_of_dealiased_products(d, n, real):
    # the 2/3 projector is linear, so truncating the summed products once
    # equals summing the truncated products, up to rounding
    g = make_grid(d, n, 4 * np.pi)
    terms, shared = _terms(g, real)
    got = dealiased_sum(g, iter(terms), shared)
    want = Field.zero(g)
    for c, f, h in terms:
        want = want + dealiased_product(f, h) * c
    assert got.real == want.real == real
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-14 * np.max(np.abs(want.coeffs))
    assert not np.any(got.coeffs[~g.dealias_mask])


def test_dealiased_sum_with_no_live_term_is_the_shared_zero(fft_calls):
    f = _spectral_field(G2, 23, True)
    zero = Field.zero(G2)
    fft_calls.update(fftn=0, ifftn=0)
    for terms in ([], [(1.0, zero, f), (2.0, f, zero), (1.0, zero, zero)]):
        out = dealiased_sum(G2, iter(terms), [f, zero])
        assert out.spectrum() is zero.spectrum()
    assert fft_calls == {"fftn": 0, "ifftn": 0}


def test_derivative_symbol_has_the_bits_of_the_inline_expression():
    for g in (G1, G2, make_grid(3, 8, 2.0)):
        f = _field(g, 13)
        for axis in range(g.d):
            modes = g.mode_axes[axis]
            modes = np.where(np.abs(modes) == g.n // 2, 0.0, modes.astype(float))
            shape = [1] * g.d
            shape[axis] = g.n
            sym = 1j * g.dxi * modes.reshape(shape)
            assert np.array_equal(derivative(f, axis).coeffs, f.coeffs * sym)


def test_q_shell_is_spatial_weight():
    f = _field(G1, 10)
    qd = q_shell(f, 2)
    from kglab.cutoffs import psi_band

    want = f.values * psi_band(2, G1.x_mags)
    assert np.max(np.abs(qd.values - want)) < 1e-13
