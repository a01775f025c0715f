"""Weyl paradifferential operators on the lattice.

A symbol is kept keyed, a(x, zeta) = sum f_{alpha,p}(x) zeta^alpha <zeta>^p
over keys (alpha, p): every frequency factor in the package is a
monomial zeta^alpha times a power of <zeta> = sqrt(1 + |zeta|^2), a
classical symbol of Hoermander type, so its key says all there is to
say about it.  The quantization acts mode-by-mode:

    (T_a f)^(xi) = sum_eta  w(xi, eta) (F_x a)(xi - eta, (xi + eta)/2) f^(eta),

where w is the low-ratio cutoff psi_le(PARA_CUT_BAND, |xi - eta| /
|xi + eta|), with PARA_CUT_BAND = -10 (kglab.cutoffs), restricting the
symbol's spatial frequencies far below the pair frequency.  In the Fourier-series coefficient convention of
:mod:`kglab.grid` the normalization constant is exactly 1: T_1 = Id on
the nose (the diagonal xi = eta carries ratio 0, including the origin
pairing).

Conventions fixed here and relied on everywhere:

* ratio(xi, eta) := 0 when xi == eta (so pure multipliers are exact),
  := +inf when xi + eta == 0 but xi != eta (cutoff kills the pairing);
* the xi = eta = 0 pairing takes each key's value at zeta = 0, which is
  definite: 1 for alpha = 0, else 0 (:func:`zeta_factor`);
* differences xi - eta leaving the frequency box contribute nothing
  (no wraparound), and Nyquist rows are zeroed on input and output.

weyl_apply is T_a's one fast route; its oracle is the dense matrix of
the sum above, kglab.oracles.weyl_matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .cutoffs import PARA_CUT_BAND, psi_le
from .grid import Field, Grid
from .spectral import dealiased_product

__all__ = [
    "Symbol",
    "zeta_factor",
    "weyl_apply",
    "remainder",
    "error_op",
]


class Symbol:
    """A classical symbol sum f_{alpha,p}(x) zeta^alpha <zeta>^p.

    ``parts`` maps a key (alpha, p) -- a multi-index alpha, a d-tuple of
    non-negative ints, and a power p of <zeta> -- to its x-part, one
    field per key.  Sums merge the x-parts of equal keys in coefficient
    space, a product forms one dealiased product per pair of keys and
    adds their multi-indices and powers, and the algebra never looks at
    a frequency value.
    """

    def __init__(self, grid: Grid, parts: dict):
        self.grid = grid
        self.parts = dict(parts)
        for f in self.parts.values():
            if not f.grid.compatible(grid):
                raise ValueError("symbol term lives on a different grid")

    # -- constructors ------------------------------------------------------

    @classmethod
    def term(cls, f: Field, axes: Sequence[int] = (), p: int = 0) -> "Symbol":
        """f(x) zeta_{axes[0]} zeta_{axes[1]} ... <zeta>^p."""
        alpha = [0] * f.grid.d
        for j in axes:
            alpha[j] += 1
        return cls(f.grid, {(tuple(alpha), p): f})

    @classmethod
    def one(cls, grid: Grid) -> "Symbol":
        return cls.term(Field.one(grid))

    @classmethod
    def x_only(cls, f: Field) -> "Symbol":
        return cls.term(f)

    # -- algebra -----------------------------------------------------------

    def _merged(self, items) -> "Symbol":
        parts = dict(self.parts)
        for key, f in items:
            parts[key] = parts[key] + f if key in parts else f
        return Symbol(self.grid, parts)

    def __add__(self, other: "Symbol") -> "Symbol":
        if not self.grid.compatible(other.grid):
            raise ValueError("symbols live on different grids")
        return self._merged(other.parts.items())

    def __sub__(self, other: "Symbol") -> "Symbol":
        return self + (other * (-1.0))

    def __mul__(self, other):
        if np.isscalar(other):
            return Symbol(self.grid, {k: f * other for k, f in self.parts.items()})
        if not self.grid.compatible(other.grid):
            raise ValueError("symbols live on different grids")
        products = (
            ((tuple(i + j for i, j in zip(alpha, beta)), p + q), dealiased_product(f, g))
            for (alpha, p), f in self.parts.items()
            for (beta, q), g in other.parts.items()
        )
        return Symbol(self.grid, {})._merged(products)

    __rmul__ = __mul__

    def lam_power(self, p: int) -> "Symbol":
        """This symbol times <zeta>^p: every key's power shifts by p."""
        return Symbol(self.grid, {(alpha, q + p): f for (alpha, q), f in self.parts.items()})

    def power(self, k: int) -> "Symbol":
        if k < 1:
            raise ValueError("power must be a positive integer")
        out = self
        for _ in range(k - 1):
            out = out * self
        return out


def zeta_factor(zpts: np.ndarray, alpha: tuple, p: int) -> np.ndarray:
    """zeta^alpha <zeta>^p on frequency vectors, shape (..., d) -> (...).

    At zeta = 0 it is 1 when alpha = 0 and 0 otherwise, with no special
    case: <0> = 1.
    """
    lam2 = 1.0 + np.sum(zpts * zpts, axis=-1)
    lam_p = lam2 ** (abs(p) // 2)
    if p % 2:
        lam_p = lam_p * np.sqrt(lam2)
    mono = np.prod(zpts ** np.asarray(alpha), axis=-1)
    return mono * lam_p if p >= 0 else mono / lam_p


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
    contribute zero and are skipped.  Cost O(#theta * #keys * n^d).
    """
    grid = f.grid
    if not a.grid.compatible(grid):
        raise ValueError("symbol and field live on different grids")
    bf = f.coeffs.copy()
    bf[grid.nyquist_mask] = 0.0
    modes = np.meshgrid(*grid.mode_axes, indexing="ij")
    out = np.zeros(grid.shape, dtype=complex)
    xcoeffs = {key: xpart.coeffs for key, xpart in a.parts.items()}

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
        for (alpha, p), xc in xcoeffs.items():
            btheta = xc[tuple(mtheta % grid.n)]
            if btheta == 0.0:
                continue
            out += btheta * weight * zeta_factor(zpts, alpha, p) * shifted

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
