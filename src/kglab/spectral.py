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
  and it returns its result in coefficient space.  Every sum of
  products, F of ``dynamics`` and each output key of a symbol product
  (``paradiff.Symbol``), goes through :func:`dealiased_sum`.  An
  operand of the caller's memo is inverse-transformed once however many
  products it enters, and the live products are summed in physical
  space and truncated once (the 2/3 projector is linear).  Multipliers,
  sums and ``Field.zero`` keep fields in coefficient space too, so a
  sum's only transforms are one inverse per distinct live operand and
  one forward, with no Hermitian completion and one mask on the rfftn
  half.
* A field's kind follows its array (``grid.Field``).  A real field
  stores only the rfftn half of its coefficients (``Field.spectrum``),
  and every real multiplier and mask here acts on that half, with its
  table cut to the half (``Grid.half``): entry for entry the same
  arithmetic as on the full array, on half the entries, and the result
  is again a half, so a real field.  The product of two real fields has
  real values, so it is real too.  The Klein-Gordon unknowns are real
  fields from the data on (``dynamics.KGState`` takes no complex one),
  so every operand and product of F is real, and each of those
  transforms is a real one (``irfftn`` in, ``rfftn`` out, or ``irfft``
  and ``rfft`` on a 1-D grid): about half the cost of a complex
  transform.  ``semigroup`` and a complex operand make complex fields
  from the full array.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cutoffs import psi_band, psi_le, psi_range
from .grid import Field, Grid, _frozen

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
    imaginary), and the product is in the layout f stores."""
    return Field._new(f.grid, f.real, None, _frozen(f.spectrum() * multiplier))


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
    return Field._new(f.grid, False, None, _frozen(f.coeffs * phase))


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
    return Field._new(f.grid, f.real, None, _frozen(kept))


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

    ``memo`` is passed only by :func:`dealiased_sum`, which says what it
    holds.  With a memo the return is not a Field: a live product is its
    bare values, untruncated (the sum truncates once), and a zero one None.
    """
    if f.grid is not g.grid and f.grid != g.grid:
        raise ValueError("fields live on different grids")
    if f.is_zero() or (g is not f and g.is_zero()):
        return Field.zero(f.grid) if memo is None else None
    fv = _dealiased_values(f, memo)
    gv = fv if g is f else _dealiased_values(g, memo)
    if memo is not None:
        return fv * gv
    return dealias(Field._new(f.grid, f.real and g.real, _frozen(fv * gv), None))


def _dealiased_values(f: Field, memo) -> np.ndarray:
    """dealias(f).values, computed once per shared operand of a memo."""
    if memo is None or f not in memo:
        return dealias(f).values
    if memo[f] is None:
        memo[f] = dealias(f).values
    return memo[f]


def dealiased_sum(grid: Grid, terms, memo: dict) -> Field:
    """The sum of c (f g) over the ``(c, f, g)`` that ``terms`` yields,
    each product dealiased by the 2/3 rule, in coefficient space.

    Each term makes one :func:`dealiased_product` call.  ``memo`` maps
    the shared operands to None (``dict.fromkeys``) and is the caller's:
    a shared field is inverse-transformed on first use, and its truncated
    values stay there, for this sum and any other given the same dict,
    until the caller lets it go: F passes a fresh dict inline, so they
    are freed before its forward transform.  A product with a zero
    operand is skipped; the live ones are summed in physical space, and
    the sum is truncated to the 2/3 box once, which by linearity of the
    projector is the sum of the truncated products up to rounding.  So
    it makes one forward transform, and none when no term is live: then
    it is a ``Field.zero``.  ``terms`` may be a generator: each term's
    operands and product are let go before the next term is built.
    """
    out = None
    for c, f, g in terms:
        p = dealiased_product(f, g, memo)
        if p is not None:
            # a unit coefficient passes the product itself: p * 1.0 is bitwise p
            p = p if c == 1.0 else p * c
            out = p if out is None else out + p
        # let the term go before the next one is built
        del f, g, p
    # and an inline memo's operand values before the forward transform
    del memo
    if out is None:
        return Field.zero(grid)
    return dealias(Field._new(grid, not np.iscomplexobj(out), _frozen(out), None))
