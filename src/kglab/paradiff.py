"""Weyl paradifferential operators on the lattice.

A symbol is kept keyed, a(x, zeta) = sum f_{alpha,p}(x) zeta^alpha <zeta>^p
over keys (alpha, p): every frequency factor in the package is a
monomial zeta^alpha times a power of <zeta> = sqrt(1 + |zeta|^2), a
classical symbol of Hoermander type, so its key says all there is to
say about it.  A product's x-part at each output key is one
spectral.dealiased_sum over the key pairs that land there.  The
quantization acts mode-by-mode:

    (T_a f)^(xi) = sum_eta  w(xi, eta) (F_x a)(xi - eta, (xi + eta)/2) f^(eta),

where w is the low-ratio cutoff psi_le(PARA_CUT_BAND, |xi - eta| /
|xi + eta|), with PARA_CUT_BAND = -10, restricting the symbol's spatial
frequencies far below the pair frequency; kglab.cutoffs.para_cut is its
one definition, ratio rules included.  In the Fourier-series coefficient
convention of :mod:`kglab.grid` the normalization constant is exactly 1:
T_1 = Id on the nose (the diagonal xi = eta carries ratio 0, including
the origin pairing).

Conventions fixed here and relied on everywhere:

* ratio(xi, eta) := 0 when xi == eta (so pure multipliers are exact),
  := +inf when xi + eta == 0 but xi != eta (cutoff kills the pairing);
* the xi = eta = 0 pairing takes each key's value at zeta = 0, which is
  definite: 1 for alpha = 0, else 0 (:func:`zeta_factor`);
* differences xi - eta leaving the frequency box contribute nothing
  (no wraparound), and Nyquist rows are zeroed on input and output.

weyl_apply is T_a's one fast route: it runs the sum over the grid's
live offsets theta = xi - eta, those whose weight w(xi, xi - theta) is
not zero everywhere, each with its weight table (cutoff, no-wraparound
and Nyquist rules folded in) and its midpoint frequencies, built once
per (d, n, L) by _live_offsets.  The midpoints are held per axis, as
the grid holds xi: one n^d weight plus d vectors of n per offset, on
which zeta_factor evaluates a key in a few n^d passes.  At
PARA_CUT_BAND = -10 most desk-scale grids have theta = 0 alone, the
multiplier by the x-average.  Its oracle is the dense matrix of the
sum above, kglab.oracles.weyl_matrix.
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .cutoffs import PARA_CUT_BAND, SUPPORT, para_cut
from .grid import Field, Grid, _frozen, make_grid
from .spectral import dealiased_product, dealiased_sum

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
    space; a product adds the keys of each pair and makes one
    ``spectral.dealiased_sum`` per output key, all sharing one memo, so
    each x-part is inverse-transformed once.  The algebra never looks at
    a frequency value.
    """

    def __init__(self, grid: Grid, parts: dict):
        self.grid = grid
        self.parts = dict(parts)
        for f in self.parts.values():
            if f.grid != grid:
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

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Symbol") -> "Symbol":
        if self.grid != other.grid:
            raise ValueError("symbols live on different grids")
        parts = dict(self.parts)
        for key, f in other.parts.items():
            parts[key] = parts[key] + f if key in parts else f
        return Symbol(self.grid, parts)

    def __mul__(self, other):
        if np.isscalar(other):
            return Symbol(self.grid, {k: f * other for k, f in self.parts.items()})
        if self.grid != other.grid:
            raise ValueError("symbols live on different grids")
        terms = {}
        for (alpha, p), f in self.parts.items():
            for (beta, q), g in other.parts.items():
                key = (tuple(i + j for i, j in zip(alpha, beta)), p + q)
                terms.setdefault(key, []).append((1.0, f, g))
        memo = dict.fromkeys([*self.parts.values(), *other.parts.values()])
        return Symbol(self.grid, {key: dealiased_sum(self.grid, pairs, memo)
                                  for key, pairs in terms.items()})

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


def zeta_factor(axes: Sequence[np.ndarray], alpha: tuple, p: int) -> np.ndarray:
    """zeta^alpha <zeta>^p on the broadcastable per-axis coordinates
    ``axes`` (as ``np.meshgrid(..., indexing="ij", sparse=True)`` gives).

    <zeta>^2 is 1 plus the per-axis squares summed left to right, zeta^alpha
    the per-axis powers multiplied left to right.  At zeta = 0 it is 1
    when alpha = 0 and 0 otherwise, with no special case: <0> = 1.
    """
    lam2 = 1.0 + sum(z * z for z in axes)
    lam_p = lam2 ** (abs(p) // 2)
    if p % 2:
        lam_p = lam_p * np.sqrt(lam2)
    mono = 1.0
    for z, a in zip(axes, alpha):
        if a:
            mono = mono * z**a
    return mono * lam_p if p >= 0 else mono / lam_p


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _live_offsets(d: int, n: int, L: float) -> tuple:
    """The offsets theta = xi - eta of the (d, n, L) grid whose weight is
    not identically zero, as (theta, weight, zaxes) triples.

    weight[xi] is cutoffs.para_cut(|theta|, |2 xi - theta|), the one
    definition of the cut and its ratio rules, set to zero where
    eta = xi - theta leaves the box |eta_j| <= n/2 - 1 (no wraparound,
    no Nyquist input) and on the Nyquist rows of xi; zaxes holds the
    midpoint frequencies xi - theta/2 as d vectors of n, each along its
    own axis (the sparse mesh :func:`zeta_factor` takes).  The candidates
    satisfy |theta| <= r |2 xi - theta| with r = (8/5) 2^-10, so
    |theta| <= 2 r sqrt(d) xi_max / (1 - r), plus one lattice step of
    slack; they come theta = 0 first, then by |theta|^2, stably.  Every
    array is read-only, and the cache is keyed by (d, n, L), not by a
    grid, so it keeps no grid's tables alive.
    """
    grid = make_grid(d, n, L)
    r = SUPPORT * 2.0**PARA_CUT_BAND
    radius = r * 2.0 * grid.nyquist * np.sqrt(d) / (1.0 - r) / grid.dxi + 1.0
    reach = int(np.floor(radius))
    mesh = np.meshgrid(*[np.arange(-reach, reach + 1)] * d, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    pts = pts[np.sum(pts * pts, axis=1) <= radius**2]
    pts = pts[np.argsort(np.sum(pts * pts, axis=1), kind="stable")]

    modes = np.meshgrid(*grid.mode_axes, indexing="ij", sparse=True)
    live = []
    for theta in pts:
        pairmag = grid.dxi * np.sqrt(sum((2 * m - s).astype(float) ** 2
                                         for m, s in zip(modes, theta)))
        weight = para_cut(grid.dxi * float(np.sqrt(np.dot(theta, theta))), pairmag)
        kept = ~grid.nyquist_mask
        for m, s in zip(modes, theta):
            kept &= np.abs(m - s) <= n // 2 - 1
        weight[~kept] = 0.0
        if not weight.any():
            continue
        zaxes = tuple(_frozen((m - 0.5 * s) * grid.dxi) for m, s in zip(modes, theta))
        live.append((tuple(int(s) for s in theta), _frozen(weight), zaxes))
    return tuple(live)


def weyl_apply(a: Symbol, f: Field) -> Field:
    """T_a f as the banded sum over the grid's live offsets theta.

    Exact (not an approximation): an offset whose weight vanishes on the
    whole lattice contributes zero, and _live_offsets, built once per
    (d, n, L), leaves it out.  Each key's zeta factor is evaluated on the
    offset's per-axis midpoints (one n^d weight and d vectors of n).
    Cost O(#live theta * #keys * n^d).
    """
    grid = f.grid
    if a.grid != grid:
        raise ValueError("symbol and field live on different grids")
    coeffs = f.coeffs
    out = np.zeros(grid.shape, dtype=complex)
    xcoeffs = {key: xpart.coeffs for key, xpart in a.parts.items()}
    for theta, weight, zaxes in _live_offsets(grid.d, grid.n, grid.L):
        shifted = np.roll(coeffs, shift=theta, axis=tuple(range(grid.d)))
        at = tuple(s % grid.n for s in theta)
        for (alpha, p), xc in xcoeffs.items():
            btheta = xc[at]
            if btheta == 0.0:
                continue
            out += btheta * weight * zeta_factor(zaxes, alpha, p) * shifted
    return Field.from_spectrum(grid, out)


# ---------------------------------------------------------------------------
# remainder and error operators
# ---------------------------------------------------------------------------


def remainder(f: Field, g: Field) -> Field:
    """H(f, g) = fg - T_f g - T_g f (product via the 2/3 rule)."""
    return dealiased_product(f, g) - weyl_apply(Symbol.term(f), g) - weyl_apply(Symbol.term(g), f)


def error_op(symbols: Sequence[Symbol], f: Field) -> Field:
    """E(a_1, ..., a_n) f = T_{a_1} ... T_{a_n} f - T_{a_1 ... a_n} f."""
    if len(symbols) < 2:
        raise ValueError("error operator needs at least two symbols")
    comp = f
    for a in reversed(symbols):
        comp = weyl_apply(a, comp)
    return comp - weyl_apply(reduce(operator.mul, symbols), f)
