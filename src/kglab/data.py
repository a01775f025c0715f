"""Deterministic random fields and initial data families.

All randomness flows through :func:`make_rng` (counter-based Philox,
so a seed pins every draw independent of call order across platforms).
Generated fields are 2/3-band-limited and Nyquist-free by
construction, matching what every downstream operator preserves.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, Grid
from .spectral import dealias, lp_interval

__all__ = [
    "make_rng",
    "random_band_field",
    "gaussian_bump",
    "envelope_field",
]


def make_rng(seed: int) -> np.random.Generator:
    """Philox (counter-based) generator with a fixed integer seed."""
    return np.random.Generator(np.random.Philox(seed))


def random_band_field(
    grid: Grid,
    rng: np.random.Generator,
    k_lo: int = -1,
    k_hi: int | None = None,
    real: bool = True,
) -> Field:
    """Gaussian random field band-limited to dyadic bands [k_lo, k_hi].

    The draw is a complex field with independent standard normal real
    and imaginary coefficient parts.  With ``real`` (the default) the
    result is built from the real part of its values, so it is a real
    field, whose stored rfftn half is exactly Hermitian.
    """
    shape = grid.shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = Field.from_spectrum(grid, coeffs)
    if real:
        f = Field.from_values(grid, f.values.real)
    k_hi = grid.k_top if k_hi is None else k_hi
    return dealias(lp_interval(f, k_lo, k_hi))


def gaussian_bump(grid: Grid, sigma: float) -> Field:
    """Centered Gaussian exp(-|x|^2 / (2 sigma^2)), dealiased; a real field."""
    vals = np.exp(-(grid.x_mags**2) / (2.0 * sigma**2))
    return dealias(Field.from_values(grid, vals))


def envelope_field(
    grid: Grid,
    rng: np.random.Generator,
    decay: float,
    k_lo: int = 0,
    k_hi: int | None = None,
    core: float = 1.0,
) -> Field:
    """Band-limited random field shaped by a <x/core>^(-decay) envelope.

    The slow envelope models weakly decaying data: L2 mass spread over
    every spatial dyadic shell with prescribed power-law weight.  The
    result is a real field.
    """
    f = random_band_field(grid, rng, k_lo=k_lo, k_hi=k_hi)
    env = (1.0 + (grid.x_mags / core) ** 2) ** (-decay / 2.0)
    return dealias(Field.from_values(grid, f.values * env))
