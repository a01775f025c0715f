"""Deterministic data generation: one counter-based stream, band and
envelope shaping."""

import numpy as np
import pytest

from kglab.data import (
    envelope_field,
    gaussian_bump,
    make_rng,
    random_band_field,
)
from kglab.grid import make_grid


def test_rng_is_philox_and_seed_pinned():
    a, b = make_rng(123), make_rng(123)
    assert type(a.bit_generator).__name__ == "Philox"
    assert np.array_equal(a.standard_normal(16), b.standard_normal(16))
    c = make_rng(124)
    assert not np.array_equal(make_rng(123).standard_normal(16), c.standard_normal(16))


def test_band_field_is_real_and_band_limited():
    g = make_grid(1, 256, 2 * np.pi)
    f = random_band_field(g, make_rng(80), k_lo=1, k_hi=2)
    assert f.real
    mags = g.xi_mags
    live = np.abs(f.coeffs) > 1e-14
    assert np.all(mags[live] >= 1.25 * 2.0**0)  # below band 1's support
    assert np.all(mags[live] <= 1.6 * 2.0**2)
    assert not np.any(live & g.nyquist_mask)


def test_complex_band_field_draws_differ_from_real():
    g = make_grid(1, 64, np.pi)
    f = random_band_field(g, make_rng(82), real=False)
    assert not f.real
    assert np.max(np.abs(f.values.imag)) > 0.1 * f.sup()


def test_gaussian_bump_shape():
    g = make_grid(1, 128, 8.0)
    f = gaussian_bump(g, 1.0)
    assert f.real
    center = float(f.values[np.argmin(g.x_mags)])
    assert center == pytest.approx(1.0, rel=1e-10)
    assert f.sup() == pytest.approx(1.0, rel=1e-10)


def test_envelope_field_spreads_mass_with_decay():
    g = make_grid(1, 512, 64.0)
    rng = make_rng(83)
    f = envelope_field(g, rng, decay=4.0, k_lo=0, k_hi=2)
    inner = np.abs(f.values[g.x_mags < 8.0])
    outer = np.abs(f.values[g.x_mags > 32.0])
    assert np.mean(outer) < 0.05 * np.mean(inner)
    slow = envelope_field(g, make_rng(83), decay=0.5, k_lo=0, k_hi=2)
    outer_slow = np.abs(slow.values[g.x_mags > 32.0])
    assert np.mean(outer_slow) > np.mean(outer)


def _mirrored(coeffs):
    """c_{-m} at every mode m."""
    axes = tuple(range(coeffs.ndim))
    return np.roll(np.flip(coeffs, axes), 1, axes)


@pytest.mark.parametrize("d, n", [(1, 64), (2, 32), (3, 16)])
def test_data_constructors_build_exactly_hermitian_real_fields(d, n):
    # the real data are real fields from the start: their halves are
    # exactly Hermitian, so each full array equals its conjugate mirror
    g = make_grid(d, n, 4.0)
    for f in (random_band_field(g, make_rng(84), k_lo=-1, k_hi=1),
              gaussian_bump(g, 0.7),
              envelope_field(g, make_rng(85), decay=2.0, k_lo=0, k_hi=1)):
        assert f.real and f.spectrum().shape == g.half_shape
        assert np.array_equal(f.coeffs, np.conj(_mirrored(f.coeffs)))
