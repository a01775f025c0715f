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
  and it returns its result in coefficient space.  Inside
  :func:`shared_operands` a listed field is inverse-transformed once
  however many products it enters, and each product is left in
  physical space, untruncated: the 2/3 projector is linear, so the
  block's caller (``dynamics.nonlinearity_value``) sums the products
  of one evaluation there and truncates the sum once.  Multipliers,
  sums and ``Field.zero`` keep fields in coefficient space too, so in
  ``dynamics.rhs`` the only transforms are one inverse per distinct
  live operand and one forward transform, with no Hermitian
  completion and one mask on the rfftn half, for the whole of F (none
  when no product is live).
* Real symbols keep a real field real (``grid.Field.real``), and the
  product of two real fields is real.  A real field stores only the
  rfftn half of its coefficients (``Field.spectrum``), and every real
  multiplier and mask here acts on that half, with its table cut to the
  half (``Grid.half``): entry for entry the same arithmetic as on the
  full array, on half the entries.  The Klein-Gordon unknowns are real
  fields from the data on (``dynamics.KGState`` takes no complex one),
  so every operand and product of F is real, and each of those
  transforms is a real one (``irfftn`` in, ``rfftn`` out): about half
  the cost of a complex transform.  ``semigroup`` and a complex operand
  make complex fields from the full array.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .cutoffs import psi_band, psi_le, psi_range
from .grid import Field, Grid

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
    "shared_operands",
]


def _stored(f: Field, table: np.ndarray) -> np.ndarray:
    """The part of a full-lattice table that lines up with the
    coefficients ``f`` stores: the rfftn half for a real field."""
    return f.grid.half(table) if f.real else table


def _scaled(f: Field, multiplier: np.ndarray) -> Field:
    """f times a multiplier table given on the coefficients it stores; the
    symbol keeps a real field real (it is real and even, or odd and
    imaginary)."""
    return Field.from_spectrum(f.grid, f.spectrum() * multiplier, f.real)


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
    return Field.from_values(f.grid, f.values * w, f.real)


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
    return Field.from_coeffs(f.grid, f.coeffs * phase)


@lru_cache(maxsize=None)
def _derivative_symbol(d: int, n: int, dxi: float, axis: int, order: int) -> np.ndarray:
    """(i xi_axis)^order, broadcastable along ``axis``; read-only and shared."""
    imodes = np.rint(np.fft.fftfreq(n) * n).astype(int)
    modes = imodes.astype(float)
    if order % 2 == 1:
        modes = np.where(np.abs(imodes) == n // 2, 0.0, modes)
    shape = [1] * d
    shape[axis] = n
    sym = (1j * dxi * modes.reshape(shape)) ** order
    sym.setflags(write=False)
    return sym


def derivative(f: Field, axis: int, order: int = 1) -> Field:
    """Spectral partial derivative along one axis (odd symbol: Nyquist zeroed)."""
    grid = f.grid
    if not 0 <= axis < grid.d:
        raise ValueError(f"axis {axis} out of range for d={grid.d}")
    return _scaled(f, _stored(f, _derivative_symbol(grid.d, grid.n, grid.dxi, axis, order)))


def laplacian(f: Field) -> Field:
    return _scaled(f, -(_stored(f, f.grid.xi_mags) ** 2))


def dealias(f: Field) -> Field:
    """Truncate to the 2/3 box (also removes Nyquist rows)."""
    kept = np.where(_stored(f, f.grid.dealias_mask), f.spectrum(), 0.0)
    return Field.from_spectrum(f.grid, kept, f.real)


def dealiased_product(f: Field, g: Field) -> Field:
    """Pointwise product with the 2/3 rule on inputs and output.

    Inputs are truncated to the 2/3 box, multiplied in physical space,
    and the result is truncated again, so quadratic aliasing images
    never land on retained modes.  The result is held in coefficient
    space, and is real when both operands are.

    A zero operand gives a zero product, the shared ``Field.zero``, with
    no transform, whatever the other operand holds (even NaN).  A square
    (``g is f``) makes one zero test and one inverse transform for both
    factors, and a field listed by an enclosing :func:`shared_operands`
    makes one inverse transform for all its products.  Inside that block a live product is returned in
    physical space without its output truncation, which the block's
    caller applies once to the sum of its products.
    """
    if not f.grid.compatible(g.grid):
        raise ValueError("fields live on different grids")
    if f.is_zero() or (g is not f and g.is_zero()):
        return Field.zero(f.grid)
    fv = _dealiased_values(f)
    gv = fv if g is f else _dealiased_values(g)
    product = Field.from_values(f.grid, fv * gv, f.real and g.real)
    return product if hasattr(_shared, "memo") else dealias(product)


# id -> [field, its dealiased values or None] for the fields of the open
# shared_operands block (blocks do not nest), no attribute outside one;
# while it is set, products are left untruncated in physical space; per
# thread, as experiment entries may run F on several threads at once
_shared = threading.local()


@contextmanager
def shared_operands(fields):
    """One F evaluation: inside the block, :func:`dealiased_product`
    inverse-transforms each of ``fields`` at most once, however many
    products it enters, and returns each live product in physical space
    without truncating it.  The caller sums the products and applies
    :func:`dealias` once; by linearity that is the sum of the truncated
    products.  The operand copies are dropped, and products are
    truncated again, when the block ends, even by an exception; the
    block is per thread, so other threads never see it."""
    _shared.memo = {id(f): [f, None] for f in fields}
    try:
        yield
    finally:
        del _shared.memo


def _dealiased_values(f: Field) -> np.ndarray:
    """dealias(f).values, computed once per shared operand."""
    entry = getattr(_shared, "memo", {}).get(id(f))
    if entry is None:
        return dealias(f).values
    if entry[1] is None:
        entry[1] = dealias(f).values
    return entry[1]
