"""Dyadic projectors, Klein-Gordon multipliers, and spectral calculus.

Frequency-side operators act on the Fourier coefficients directly.
Conventions:

* Band projectors P_k multiply by psi_band(k, |xi|) and zero the
  Nyquist rows (those modes have no mirror partner, so they are
  excluded from every band).
* lambda_power and semigroup are even pure multipliers and keep the
  Nyquist rows; derivative has an odd symbol and zeroes them.
* Every pointwise product in the package goes through
  :func:`dealiased_product` (2/3 rule, Orszag 1971).  It spends no
  transform on a zero operand and one inverse transform on a square,
  and it returns its result in coefficient space.  A sum of products,
  such as the nonlinearity F of ``dynamics``, goes through
  :func:`dealiased_sum`: an operand it is told is shared is
  inverse-transformed once however many products it enters, and the
  live products are summed in physical space and truncated once (the
  2/3 projector is linear).  Multipliers, sums and ``Field.zero`` keep
  fields in coefficient space too, so the only transforms of F are one
  inverse per distinct live operand and one forward transform, with no
  Hermitian completion and one mask on the rfftn half (none when no
  product is live).
* A field's kind follows its array (``grid.Field``).  A real field
  stores only the rfftn half of its coefficients (``Field.spectrum``),
  and every real multiplier and mask here acts on that half, with its
  table cut to the half (``Grid.half``): entry for entry the same
  arithmetic as on the full array, on half the entries, and the result
  is again a half, so a real field.  The product of two real fields has
  real values, so it is real too.  The Klein-Gordon unknowns are real
  fields from the data on (``dynamics.KGState`` takes no complex one),
  so every operand and product of F is real, and each of those
  transforms is a real one (``irfftn`` in, ``rfftn`` out): about half
  the cost of a complex transform.  ``semigroup`` and a complex operand
  make complex fields from the full array.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cutoffs import psi_band, psi_le, psi_range
from .grid import Field, Grid, _zero_coeffs

__all__ = [
    "lp_project",
    "lp_low",
    "lp_interval",
    "q_shell",
    "lambda_power",
    "lambda_mag",
    "semigroup",
    "derivative",
    "laplacian",
    "dealias",
    "dealiased_product",
    "dealiased_sum",
]


def _stored(f: Field, table: np.ndarray) -> np.ndarray:
    """The part of a full-lattice table that lines up with the
    coefficients ``f`` stores: the rfftn half for a real field."""
    return f.grid.half(table) if f.real else table


def _scaled(f: Field, multiplier: np.ndarray) -> Field:
    """f times a multiplier table given on the coefficients it stores; the
    symbol keeps a real field real (it is real and even, or odd and
    imaginary)."""
    return Field.from_spectrum(f.grid, f.spectrum() * multiplier)


def _band_multiplier(f: Field, weights: np.ndarray) -> np.ndarray:
    out = np.array(weights, dtype=float)
    out[_stored(f, f.grid.nyquist_mask)] = 0.0
    return out


def lp_project(f: Field, k: int) -> Field:
    """Littlewood-Paley piece P_k f (band index k >= -1)."""
    return _scaled(f, _band_multiplier(f, psi_band(k, _stored(f, f.grid.xi_mags))))


def lp_low(f: Field, k: int) -> Field:
    """Low-frequency cut P_{<=k} f."""
    return _scaled(f, _band_multiplier(f, psi_le(k, _stored(f, f.grid.xi_mags))))


def lp_interval(f: Field, k_lo: int, k_hi: int) -> Field:
    """P_I f for the integer band interval I = [k_lo, k_hi]."""
    return _scaled(f, _band_multiplier(f, psi_range(k_lo, k_hi, _stored(f, f.grid.xi_mags))))


def q_shell(f: Field, j: int) -> Field:
    """Physical dyadic localization Q_j f = psi_band(j, |x|) * f.

    A smooth multiplication, not a projector: Q_j Q_j != Q_j.
    """
    w = psi_band(j, f.grid.x_mags)
    return Field.from_values(f.grid, f.values * w)


def lambda_mag(grid: Grid) -> np.ndarray:
    """<xi> = sqrt(1 + |xi|^2) on the frequency lattice."""
    return np.sqrt(1.0 + grid.xi_mags**2)


def lambda_power(f: Field, s: float) -> Field:
    """(1 - Laplacian)^(s/2) as the <xi>^s multiplier (even, keeps Nyquist)."""
    return _scaled(f, _stored(f, lambda_mag(f.grid)) ** s)


def semigroup(f: Field, t: float, sign: int = +1) -> Field:
    """Half Klein-Gordon flow e^{i sign t <D>} f; unitary on L2."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    phase = np.exp(1j * sign * t * lambda_mag(f.grid))
    return Field.from_spectrum(f.grid, f.coeffs * phase)


@lru_cache(maxsize=None)
def _derivative_symbol(d: int, n: int, dxi: float, axis: int) -> np.ndarray:
    """i xi_axis, Nyquist row zeroed, broadcastable along ``axis``; read-only, shared."""
    imodes = np.rint(np.fft.fftfreq(n) * n).astype(int)
    modes = np.where(np.abs(imodes) == n // 2, 0.0, imodes.astype(float))
    shape = [1] * d
    shape[axis] = n
    sym = 1j * dxi * modes.reshape(shape)
    sym.setflags(write=False)
    return sym


def derivative(f: Field, axis: int) -> Field:
    """Spectral first derivative along one axis (odd symbol: Nyquist zeroed)."""
    grid = f.grid
    if not 0 <= axis < grid.d:
        raise ValueError(f"axis {axis} out of range for d={grid.d}")
    return _scaled(f, _stored(f, _derivative_symbol(grid.d, grid.n, grid.dxi, axis)))


def laplacian(f: Field) -> Field:
    return _scaled(f, -(_stored(f, f.grid.xi_mags) ** 2))


def dealias(f: Field) -> Field:
    """Truncate to the 2/3 box (also removes Nyquist rows)."""
    kept = np.where(_stored(f, f.grid.dealias_mask), f.spectrum(), 0.0)
    return Field.from_spectrum(f.grid, kept)


def dealiased_product(f: Field, g: Field, memo: dict = None) -> Field:
    """Pointwise product with the 2/3 rule on inputs and output.

    Inputs are truncated to the 2/3 box, multiplied in physical space,
    and the result is truncated again, so quadratic aliasing images
    never land on retained modes.  The result is held in coefficient
    space, and is real when both operands are.

    A zero operand gives a zero product, the shared ``Field.zero``, with
    no transform, whatever the other operand holds (even NaN).  A square
    (``g is f``) makes one zero test and one inverse transform for both
    factors.

    ``memo`` is passed only by :func:`dealiased_sum`: it maps each of
    the sum's shared operands (keyed by the field itself) to its
    truncated values, filled on first use, and a live product is then
    returned in physical space without its output truncation, which the
    sum applies once.
    """
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    if f.is_zero() or (g is not f and g.is_zero()):
        return Field.zero(f.grid)
    fv = _dealiased_values(f, memo)
    gv = fv if g is f else _dealiased_values(g, memo)
    product = Field.from_values(f.grid, fv * gv)
    return dealias(product) if memo is None else product


def _dealiased_values(f: Field, memo) -> np.ndarray:
    """dealias(f).values, computed once per shared operand of a memo."""
    if memo is None or f not in memo:
        return dealias(f).values
    if memo[f] is None:
        memo[f] = dealias(f).values
    return memo[f]


def dealiased_sum(grid: Grid, terms, shared) -> Field:
    """The sum of c (f g) over the ``(c, f, g)`` that ``terms`` yields,
    each product dealiased by the 2/3 rule, in coefficient space.

    Each term makes one :func:`dealiased_product` call.  A field of
    ``shared`` is inverse-transformed once, however many products it
    enters.  A product with a zero operand is skipped; the live ones are
    summed in physical space, and the sum is truncated to the 2/3 box
    once, which by linearity of the projector is the sum of the
    truncated products up to rounding.  So the sum makes one forward
    transform, and it is the shared ``Field.zero``, with no transform,
    when no term is live.  ``terms`` may be a generator: each term's
    operands and product are let go before the next term is built.
    """
    memo = {f: None for f in shared}
    zero = _zero_coeffs(grid.half_shape)
    out = None
    for c, f, g in terms:
        p = dealiased_product(f, g, memo)
        if p._coeffs is not zero:
            # a unit coefficient passes the product itself: p * 1.0 is bitwise p
            p = p if c == 1.0 else p * c
            out = p if out is None else out + p
        # let the term go before the next one is built
        del f, g, p
    # and the operand values before the forward transform
    del memo
    return Field.zero(grid) if out is None else dealias(out)
