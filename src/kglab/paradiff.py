"""Weyl paradifferential operators on the lattice.

A symbol a(x, zeta) is kept in separable form, a = sum_i f_i(x) g_i(zeta).
Its quantization acts mode-by-mode:

    (T_a f)^(xi) = sum_eta  w(xi, eta) (F_x a)(xi - eta, (xi + eta)/2) f^(eta),

where w is the low-ratio cutoff psi_le(-10, |xi - eta| / |xi + eta|)
restricting the symbol's spatial frequencies far below the pair
frequency.  In the Fourier-series coefficient convention of
:mod:`kglab.grid` the normalization constant is exactly 1: T_1 = Id on
the nose (the diagonal xi = eta carries ratio 0, including the origin
pairing).

Conventions fixed here and relied on everywhere:

* ratio(xi, eta) := 0 when xi == eta (so pure multipliers are exact),
  := +inf when xi + eta == 0 but xi != eta (cutoff kills the pairing);
* the xi = eta = 0 pairing evaluates g(0) when the term declares a
  finite value at zeta = 0 and is zeroed when the term declares
  zeta = 0 excluded;
* differences xi - eta leaving the frequency box contribute nothing
  (no wraparound), and Nyquist rows are zeroed on input and output.

weyl_apply is T_a's one fast route; its oracle is the dense matrix of
the sum above, kglab.oracles.weyl_matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cutoffs import psi_le
from .grid import Field, Grid
from .spectral import dealiased_product

__all__ = [
    "PARA_CUT_BAND",
    "SymbolTerm",
    "Symbol",
    "weyl_apply",
    "remainder",
    "error_op",
]

# The symbol's spatial frequency must sit 10 dyadic scales below the
# pair frequency: |xi - eta| / |xi + eta| <= (8/5) 2^-10 on the support.
PARA_CUT_BAND = -10


@dataclass(frozen=True)
class SymbolTerm:
    """One separable term f(x) g(zeta).

    ``zeta_fn`` maps an array of frequency vectors, shape (..., d), to
    complex values, shape (...).  ``zeta0`` is the declared value of g
    at zeta = 0; None marks the origin as excluded (the xi = eta = 0
    pairing is then zeroed).
    """

    xpart: Field
    zeta_fn: Callable[[np.ndarray], np.ndarray]
    zeta0: complex | None

    def eval_zeta(self, zpts: np.ndarray) -> np.ndarray:
        """Evaluate g on frequency vectors, patching the origin by declaration."""
        vals = np.asarray(self.zeta_fn(zpts), dtype=complex)
        mag2 = np.sum(zpts * zpts, axis=-1)
        at0 = mag2 == 0.0
        if np.any(at0):
            fill = 0.0 if self.zeta0 is None else complex(self.zeta0)
            vals = np.where(at0, fill, vals)
        return vals


class Symbol:
    """Separable symbol: sum of :class:`SymbolTerm`, closed under + and *."""

    def __init__(self, grid: Grid, terms: Sequence[SymbolTerm]):
        self.grid = grid
        self.terms = list(terms)
        for t in self.terms:
            if not t.xpart.grid.compatible(grid):
                raise ValueError("symbol term lives on a different grid")

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, grid: Grid) -> "Symbol":
        return cls(grid, [SymbolTerm(Field.one(grid), lambda z: np.ones(z.shape[:-1]), 1.0)])

    @classmethod
    def x_only(cls, f: Field) -> "Symbol":
        return cls(f.grid, [SymbolTerm(f, lambda z: np.ones(z.shape[:-1]), 1.0)])

    @classmethod
    def multiplier(cls, grid: Grid, fn: Callable, zeta0: complex | None) -> "Symbol":
        return cls(grid, [SymbolTerm(Field.one(grid), fn, zeta0)])

    @classmethod
    def separable(cls, f: Field, fn: Callable, zeta0: complex | None) -> "Symbol":
        return cls(f.grid, [SymbolTerm(f, fn, zeta0)])

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Symbol") -> "Symbol":
        if not self.grid.compatible(other.grid):
            raise ValueError("symbols live on different grids")
        return Symbol(self.grid, self.terms + other.terms)

    def __sub__(self, other: "Symbol") -> "Symbol":
        return self + (other * (-1.0))

    def __mul__(self, other):
        if np.isscalar(other):
            return Symbol(self.grid, [SymbolTerm(t.xpart * other, t.zeta_fn, t.zeta0)
                                      for t in self.terms])
        if not self.grid.compatible(other.grid):
            raise ValueError("symbols live on different grids")
        out = []
        for s in self.terms:
            for t in other.terms:
                fn = _product_fn(s.zeta_fn, t.zeta_fn)
                z0 = None if (s.zeta0 is None or t.zeta0 is None) else s.zeta0 * t.zeta0
                out.append(SymbolTerm(dealiased_product(s.xpart, t.xpart), fn, z0))
        return Symbol(self.grid, out)

    __rmul__ = __mul__

    def scale_zeta(self, fn: Callable, zeta0: complex | None) -> "Symbol":
        """Multiply every term's frequency factor by a common fn(zeta)."""
        out = []
        for t in self.terms:
            z0 = None if (t.zeta0 is None or zeta0 is None) else t.zeta0 * zeta0
            out.append(SymbolTerm(t.xpart, _product_fn(t.zeta_fn, fn), z0))
        return Symbol(self.grid, out)

    def power(self, k: int) -> "Symbol":
        if k < 1:
            raise ValueError("power must be a positive integer")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out


def _product_fn(f, g):
    return lambda z: np.asarray(f(z)) * np.asarray(g(z))


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


def _theta_candidates(grid: Grid) -> np.ndarray:
    """Integer mode offsets theta that can pass the low-ratio cutoff.

    |theta| <= r |2 xi - theta| with r = (8/5) 2^-10 and |2 xi - theta|
    <= 2 sqrt(d) xi_max + |theta| bounds the reachable offsets; one
    extra lattice step of slack is kept for safety.  Offsets outside
    the returned set contribute exactly zero.
    """
    r = 1.6 * 2.0**PARA_CUT_BAND
    ximax = grid.nyquist * np.sqrt(grid.d)
    radius = r * 2.0 * ximax / (1.0 - r) / grid.dxi + 1.0
    reach = int(np.floor(radius))
    axes = [np.arange(-reach, reach + 1)] * grid.d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    keep = np.sum(pts * pts, axis=1) <= radius**2
    pts = pts[keep]
    # order with theta = 0 first for the exact-diagonal fast case
    order = np.argsort(np.sum(pts * pts, axis=1), kind="stable")
    return pts[order]


def weyl_apply(a: Symbol, f: Field) -> Field:
    """T_a f via the banded sum over passing spatial offsets theta.

    Exact (not an approximation): offsets that cannot pass the cutoff
    contribute zero and are skipped.  Cost O(#theta * #terms * n^d).
    """
    grid = f.grid
    if not a.grid.compatible(grid):
        raise ValueError("symbol and field live on different grids")
    bf = f.coeffs.copy()
    bf[grid.nyquist_mask] = 0.0
    modes = np.meshgrid(*grid.mode_axes, indexing="ij")
    out = np.zeros(grid.shape, dtype=complex)

    for mtheta in _theta_candidates(grid):
        diag = not mtheta.any()
        # ratio weight on this offset: |theta| / |2 xi - theta|
        if diag:
            weight = 1.0  # ratio := 0 on the diagonal, psi(0) = 1
            shifted = bf
        else:
            two_minus = [2 * m - int(s) for m, s in zip(modes, mtheta)]
            pairmag = grid.dxi * np.sqrt(sum(tm.astype(float) ** 2 for tm in two_minus))
            theta_mag = grid.dxi * float(np.sqrt(np.dot(mtheta, mtheta)))
            with np.errstate(divide="ignore"):
                ratio = np.where(pairmag > 0.0, theta_mag / np.where(pairmag > 0, pairmag, 1.0), np.inf)
            weight = psi_le(PARA_CUT_BAND, ratio)
            weight[pairmag == 0.0] = 0.0
            if not np.any(weight):
                continue
            shifted = np.roll(bf, shift=tuple(mtheta), axis=tuple(range(grid.d)))
            valid = np.ones(grid.shape, dtype=bool)
            for m, s in zip(modes, mtheta):
                tgt = m - int(s)
                valid &= (tgt >= -grid.n // 2 + 1) & (tgt <= grid.n // 2 - 1)
            shifted = np.where(valid, shifted, 0.0)

        # midpoint frequencies (xi - theta/2), shape (*grid.shape, d)
        zpts = np.stack(
            [(m - 0.5 * s) * grid.dxi for m, s in zip(modes, mtheta)], axis=-1
        )
        for term in a.terms:
            btheta = term.xpart.coeffs[tuple(mtheta % grid.n)]
            if btheta == 0.0:
                continue
            gvals = term.eval_zeta(zpts)
            out += btheta * weight * gvals * shifted

    out[grid.nyquist_mask] = 0.0
    return Field.from_coeffs(grid, out)


# ---------------------------------------------------------------------------
# remainder and error operators
# ---------------------------------------------------------------------------


def remainder(f: Field, g: Field) -> Field:
    """H(f, g) = fg - T_f g - T_g f (product via the 2/3 rule)."""
    return dealiased_product(f, g) - weyl_apply(Symbol.x_only(f), g) - weyl_apply(Symbol.x_only(g), f)


def error_op(symbols: Sequence[Symbol], f: Field) -> Field:
    """E(a_1, ..., a_n) f = T_{a_1} ... T_{a_n} f - T_{a_1 ... a_n} f."""
    if len(symbols) < 2:
        raise ValueError("error operator needs at least two symbols")
    comp = f
    for a in reversed(symbols):
        comp = weyl_apply(a, comp)
    prod = symbols[0]
    for a in symbols[1:]:
        prod = prod * a
    return comp - weyl_apply(prod, f)
