"""Grid geometry, the coefficient convention, and Field arithmetic."""

import numpy as np
import pytest

from kglab.data import make_rng, random_band_field
from kglab.grid import Field, make_grid


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(4, 16, 1.0)
    with pytest.raises(ValueError):
        make_grid(1, 12, 1.0)  # not a power of two
    with pytest.raises(ValueError):
        make_grid(1, 4, 1.0)  # too small
    with pytest.raises(ValueError):
        make_grid(1, 16, 0.0)


def test_lattice_spacings():
    g = make_grid(2, 16, 2 * np.pi)
    assert g.dx == pytest.approx(2 * (2 * np.pi) / 16)
    assert g.dxi == pytest.approx(0.5)
    assert g.nyquist == pytest.approx(4.0)
    assert g.volume == pytest.approx((4 * np.pi) ** 2)
    assert g.shape == (16, 16)


def test_coefficient_convention_is_forward_fft():
    # the documented normalization: coeffs = fftn(values) / n^d, so a
    # pure index-space mode exp(2 pi i m j / n) is one-hot at index m
    g = make_grid(1, 32, np.pi)
    m = 3
    j = np.arange(g.n)
    f = Field.from_values(g, np.exp(2j * np.pi * m * j / g.n))
    c = f.coeffs
    assert abs(c[m] - 1.0) < 1e-13
    c_rest = c.copy()
    c_rest[m] = 0.0
    assert np.max(np.abs(c_rest)) < 1e-13
    # physical coordinates start at -L: the same mode written as a
    # function of x carries the boundary phase exp(-i xi_m L)
    x = g.x_axes[0]
    h = Field.from_values(g, np.exp(1j * m * g.dxi * x))
    assert abs(h.coeffs[m] - np.exp(-1j * m * g.dxi * g.L)) < 1e-13


def test_coeffs_match_raw_fftn():
    g = make_grid(2, 16, 2.0)
    rng = make_rng(1)
    v = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    f = Field.from_values(g, v)
    assert np.allclose(f.coeffs, np.fft.fftn(v) / g.npoints, rtol=0, atol=1e-15)


def test_round_trip_values_coeffs():
    g = make_grid(2, 16, 1.0)
    rng = make_rng(0)
    v = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    f = Field.from_values(g, v)
    back = Field.from_coeffs(g, f.coeffs)
    assert np.max(np.abs(back.values - v)) < 1e-12


def test_parseval():
    g = make_grid(1, 64, 3.0)
    rng = make_rng(1)
    f = Field.from_values(g, rng.standard_normal(g.shape))
    phys = np.sqrt(g.quad_weight * np.sum(np.abs(f.values) ** 2))
    freq = np.sqrt(g.volume * np.sum(np.abs(f.coeffs) ** 2))
    assert phys == pytest.approx(freq, rel=1e-12)
    assert f.l2() == pytest.approx(phys, rel=1e-12)


def test_field_arithmetic():
    g = make_grid(1, 16, 1.0)
    rng = make_rng(2)
    f = random_band_field(g, rng)
    h = random_band_field(g, rng)
    s = f + h
    assert np.allclose(s.values, f.values + h.values)
    assert np.allclose((f - h).values, f.values - h.values)
    assert np.allclose((f * 2.5).values, 2.5 * f.values)
    assert np.allclose((-f).values, -f.values)
    assert np.allclose(f.conj().values, np.conj(f.values))


def test_cached_arrays_are_read_only():
    g = make_grid(1, 16, 1.0)
    f = random_band_field(g, make_rng(3))
    fresh = Field.from_values(g, np.ones(g.shape, dtype=complex))
    scaled = Field.from_coeffs(g, f.coeffs) * 2.0
    _ = scaled.values  # both caches filled: __mul__ scales each
    for arr in (f.values, f.coeffs, fresh.values, fresh.coeffs,
                (f * 3.0).coeffs, (scaled * 0.5).values):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_field_takes_ownership_of_its_array():
    g = make_grid(1, 16, 1.0)
    arr = np.zeros(g.shape, dtype=complex)
    Field.from_coeffs(g, arr)
    with pytest.raises(ValueError):
        arr[0] = 1.0


def test_is_zero_reads_the_cache_and_counts_nan_as_live(fft_calls):
    g = make_grid(2, 8, 1.0)
    assert Field.zero(g).is_zero()
    assert Field.from_values(g, np.zeros(g.shape)).is_zero()
    assert not Field.one(g).is_zero()
    nan = np.zeros(g.shape)
    nan[1, 2] = np.nan
    assert not Field.from_values(g, nan).is_zero()
    assert not Field.from_coeffs(g, nan).is_zero()
    assert fft_calls == {"fftn": 0, "ifftn": 0}


def test_zero_is_held_in_coefficient_space(fft_calls):
    g = make_grid(1, 16, 1.0)
    f = Field.from_coeffs(g, np.arange(g.n, dtype=complex))
    total = Field.zero(g) + f
    assert np.array_equal(total.coeffs, f.coeffs)
    assert fft_calls == {"fftn": 0, "ifftn": 0}


def test_field_product_guard():
    g = make_grid(1, 16, 1.0)
    f = Field.one(g)
    with pytest.raises(TypeError):
        f * f  # pointwise products must go through the 2/3 rule


def test_grid_mismatch_guard():
    f = Field.one(make_grid(1, 16, 1.0))
    h = Field.one(make_grid(1, 16, 2.0))
    with pytest.raises(ValueError):
        f + h


def test_is_real():
    g = make_grid(1, 16, 1.0)
    rng = make_rng(3)
    f = random_band_field(g, rng, real=True)
    assert f.is_real()
    assert not (f * 1j + Field.one(g)).is_real()


def test_band_indices_cover_lattice():
    g = make_grid(2, 64, 8 * np.pi)
    # every lattice frequency is inside psi_le(k_top)
    ximax = float(g.xi_mags.max())
    assert ximax <= 1.25 * 2.0**g.k_top + 1e-12
    assert g.k_max <= g.k_top
