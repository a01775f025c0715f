"""Weyl quantization against the literal-sum oracle, plus the exact
operator identities everything downstream relies on."""

import numpy as np
import pytest

from kglab.data import make_rng, random_band_field
from kglab.grid import Field, make_grid
from kglab.oracles import weyl_matrix, weyl_oracle
from kglab.paradiff import Symbol, _live_offsets, error_op, remainder, weyl_apply
from kglab.spectral import dealiased_product, lambda_power


def _symbol(grid, rng):
    # f(x) zeta_1 / <zeta>
    f = random_band_field(grid, rng, k_lo=-1, k_hi=1)
    return Symbol.term(f, (0,), -1)


def _inv_lam2(f):
    # f(x) / <zeta>^2
    return Symbol.term(f, p=-2)


def test_weyl_matches_oracle_1d():
    g = make_grid(1, 32, 2 * np.pi)
    rng = make_rng(11)
    a = _symbol(g, rng)
    f = random_band_field(g, rng, real=False)
    fast = weyl_apply(a, f)
    slow = weyl_oracle(a, f)
    assert (fast - slow).l2() <= 1e-12 * max(slow.l2(), 1e-30)


def test_weyl_matches_oracle_2d():
    g = make_grid(2, 8, np.pi)
    rng = make_rng(12)
    a = _symbol(g, rng)
    f = random_band_field(g, rng, real=False)
    fast = weyl_apply(a, f)
    slow = weyl_oracle(a, f)
    assert (fast - slow).l2() <= 1e-12 * max(slow.l2(), 1e-30)


def test_unit_symbol_is_identity_exactly():
    # not within tolerance: bit-for-bit, the diagonal weight is 1
    g = make_grid(1, 64, 4 * np.pi)
    f = random_band_field(g, make_rng(13), real=False)
    out = weyl_apply(Symbol.one(g), f)
    assert np.array_equal(out.coeffs, f.coeffs)


def test_pure_multiplier_is_exact():
    # an x-independent symbol has spatial frequency 0 only: the single
    # diagonal offset passes and the quantization is the multiplier
    g = make_grid(1, 64, 4 * np.pi)
    f = random_band_field(g, make_rng(14), real=False)
    lam = Symbol.term(Field.one(g), p=1)
    out = weyl_apply(lam, f)
    want = lambda_power(f, 1.0)
    assert (out - want).l2() <= 1e-13 * want.l2()


def test_weyl_matches_matrix_on_live_off_diagonal_couplings():
    # on a 1-D n = 4096 grid the cutoff's transition zone holds lattice
    # pairs, so the off-diagonal shifts and psi weights act; the
    # full-box input also reaches the box edge, where the shifts' box
    # mask and the Nyquist row act
    g = make_grid(1, 4096, 8 * np.pi)
    rng = make_rng(22)
    a = Symbol.term(random_band_field(g, rng), (0,), -1)
    M = weyl_matrix(a)
    live_off_diagonal = np.count_nonzero(M) - np.count_nonzero(np.diag(M))
    assert live_off_diagonal >= 20_000
    full_box = Field.from_spectrum(g, rng.standard_normal(g.shape)
                                 + 1j * rng.standard_normal(g.shape))
    for f in (random_band_field(g, rng), full_box):
        slow = Field.from_spectrum(g, M @ f.coeffs)
        fast = weyl_apply(a, f)
        assert (fast - slow).l2() <= 1e-12 * slow.l2()


def test_live_offsets_are_the_off_diagonals_of_the_weyl_matrix():
    # operator-identities' 1-D n = 1024 grid on [-8 pi, 8 pi): an x-part
    # with every mode nonzero puts an entry of the dense matrix at each
    # offset xi - eta whose weight is not zero everywhere
    g = make_grid(1, 1024, 8 * np.pi)
    f = Field.from_values(g, make_rng(23).standard_normal(g.shape))
    M = weyl_matrix(Symbol.term(f))
    np.fill_diagonal(M, 0.0)
    rows, cols = np.nonzero(M)
    modes = g.mode_tuples()
    measured = {tuple(int(t) for t in theta) for theta in modes[rows] - modes[cols]}
    live = [theta for theta, _, _ in _live_offsets(g.d, g.n, g.L)]
    assert live[0] == (0,)
    assert measured == set(live[1:]) == {(-1,), (1,)}


@pytest.mark.parametrize("d, n, L", [(1, 64, 4 * np.pi), (2, 16, 4 * np.pi),
                                     (1, 64, 8 * np.pi)],
                         ids=["paradiff-oracle-1d", "paradiff-oracle-2d", "reduced-residual"])
def test_pinned_weyl_grids_have_the_diagonal_alone(d, n, L):
    # at the cut -10 these grids couple no xi != eta: T_a is the
    # multiplier by the x-average of a's parts
    offsets = _live_offsets(d, n, L)
    assert [theta for theta, _, _ in offsets] == [(0,) * d]
    _, weight, zpts = offsets[0]
    assert not (weight.flags.writeable or zpts.flags.writeable)
    g = make_grid(d, n, L)
    assert _live_offsets(g.d, g.n, g.L) is offsets  # built once per (d, n, L)


def test_real_even_symbol_is_hermitian():
    # real x-part, real even zeta factor: the Weyl matrix must be
    # self-adjoint up to roundoff (the midpoint rule is what buys this)
    g = make_grid(1, 32, 2 * np.pi)
    f = random_band_field(g, make_rng(16), k_lo=-1, k_hi=1, real=True)
    a = _inv_lam2(f)
    M = weyl_matrix(a)
    assert np.max(np.abs(M - M.conj().T)) < 1e-12


@pytest.mark.parametrize("d", [1, 2])
def test_keyed_multiplier_on_the_zero_mode_is_its_value_at_the_origin(d):
    # zeta^alpha <zeta>^p at zeta = 0 is 1 for alpha = 0 and 0 otherwise,
    # so T_a 1 keeps exactly the alpha = 0 keys, each with weight one
    g = make_grid(d, 16, np.pi)
    f = Field.one(g)  # only the zero mode
    one = Field.one(g)
    for axes, p, value in (((), 1, 1.0), ((), -2, 1.0), ((0,), -1, 0.0),
                           ((0, d - 1), -2, 0.0), ((d - 1,), 0, 0.0)):
        a = Symbol.term(one * 0.7, axes, p)
        assert np.array_equal(weyl_apply(a, f).coeffs, (f * (0.7 * value)).coeffs)
    mixed = Symbol.term(one * 0.7, p=-1) + Symbol.term(one * 0.3, (0,), 1)
    assert np.array_equal(weyl_apply(mixed, f).coeffs, (f * 0.7).coeffs)


def test_product_of_keys_adds_multi_indices_and_powers():
    g = make_grid(2, 8, np.pi)
    rng = make_rng(23)
    f, h = random_band_field(g, rng, k_lo=-1, k_hi=0), random_band_field(g, rng, k_lo=-1, k_hi=0)
    a = Symbol.term(f, (0,), -1) + Symbol.term(f * 2.0, (1, 1), 0)
    b = Symbol.term(h, (0, 1), -2)
    prod = a * b
    assert set(prod.parts) == {((2, 1), -3), ((1, 3), -2)}
    assert np.array_equal(prod.parts[((2, 1), -3)].coeffs, dealiased_product(f, h).coeffs)
    # equal keys merge: one x-part, summed in coefficient space
    merged = b + Symbol.term(f, (0,)) + Symbol.term(f, (1, 0), -2)
    assert set(merged.parts) == {((1, 1), -2), ((1, 0), 0)}
    assert np.array_equal(merged.parts[((1, 1), -2)].coeffs, (h + f).coeffs)
    assert set(b.lam_power(1).parts) == {((1, 1), -1)}


def _mode(g, m, amp):
    c = np.zeros(g.shape, dtype=complex)
    c[m % g.n] = amp
    return Field.from_spectrum(g, c)


def test_paraproduct_keeps_separated_modes_exactly():
    # modes 1 and 500: the frequency ratio 1/1001 sits on the cutoff
    # plateau, so T_f h is the bare product with weight exactly one
    g = make_grid(1, 2048, np.pi)
    f = _mode(g, 1, 0.8)
    h = _mode(g, 500, 1.3)
    out = weyl_apply(Symbol.term(f), h)
    want = np.zeros(g.shape, dtype=complex)
    want[501] = 0.8 * 1.3
    assert np.max(np.abs(out.coeffs - want)) < 1e-15


def test_close_modes_fall_entirely_to_remainder():
    # modes 1 and 100 are too close for either paraproduct: both
    # weights vanish and the remainder carries the whole product
    g = make_grid(1, 512, np.pi)
    f = _mode(g, 1, 0.7)
    h = _mode(g, 100, 1.1)
    assert weyl_apply(Symbol.term(f), h).l2() == 0.0
    assert weyl_apply(Symbol.term(h), f).l2() == 0.0
    diff = remainder(f, h) - dealiased_product(f, h)
    assert diff.l2() < 1e-15


def test_error_op_unit_factor_vanishes():
    g = make_grid(1, 32, 2 * np.pi)
    rng = make_rng(19)
    a = _symbol(g, rng)
    one = Symbol.one(g)
    f = random_band_field(g, rng, real=False)
    scale = f.l2()
    assert error_op([a, one], f).l2() <= 1e-12 * scale
    assert error_op([one, a], f).l2() <= 1e-12 * scale


def test_error_op_matches_matrix_composition():
    g = make_grid(1, 16, np.pi)
    rng = make_rng(20)
    a = _symbol(g, rng)
    b = _inv_lam2(random_band_field(g, rng, k_lo=-1, k_hi=0))
    f = random_band_field(g, rng, real=False)
    direct = error_op([a, b], f)
    Ma, Mb, Mab = weyl_matrix(a), weyl_matrix(b), weyl_matrix(a * b)
    via = Field.from_spectrum(g, ((Ma @ Mb - Mab) @ f.coeffs.reshape(-1)).reshape(g.shape))
    assert (direct - via).l2() <= 1e-12 * max(via.l2(), 1e-30)


def test_error_op_needs_two_symbols():
    g = make_grid(1, 16, np.pi)
    with pytest.raises(ValueError):
        error_op([Symbol.one(g)], Field.one(g))


def test_symbol_algebra_distributes_through_quantization():
    g = make_grid(1, 32, 2 * np.pi)
    rng = make_rng(21)
    a = _symbol(g, rng)
    b = _inv_lam2(random_band_field(g, rng, k_lo=-1, k_hi=0))
    f = random_band_field(g, rng, real=False)
    lhs = weyl_apply(a + b * 2.0, f)
    rhs = weyl_apply(a, f) + weyl_apply(b, f) * 2.0
    assert (lhs - rhs).l2() <= 1e-12 * max(rhs.l2(), 1e-30)
