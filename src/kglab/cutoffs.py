"""Smooth dyadic cutoff family.

The base cutoff ``psi`` equals 1 on [-5/4, 5/4], vanishes outside
(-8/5, 8/5), and interpolates with a C-infinity smoothed step in
between.  Dyadic rings ``psi_band(k, r)`` are differences of rescaled
copies and form a partition of unity together with the low ball
``psi_band(-1, r) = psi(2r)``:

    sum_{k=-1}^{K} psi_band(k, r) = psi(r / 2**K)  ->  1   (K -> inf)

Everything here is a plain function of nonnegative moduli; radial
evaluation on frequency or space lattices happens at the call site.

``para_cut(low, high)`` is the one definition of the paradifferential
cut psi_le(PARA_CUT_BAND, low / high), ratio rules included: T_a's
offset tables (``paradiff._live_offsets``) and the energy and commutator
kernels of ``resonance`` call it; only the dense Weyl oracle keeps a copy.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PARA_CUT_BAND",
    "PLATEAU",
    "SUPPORT",
    "para_cut",
    "psi",
    "psi_band",
    "psi_le",
    "psi_range",
]

PLATEAU = 1.25   # psi == 1 for |r| <= 5/4
SUPPORT = 1.6    # psi == 0 for |r| >= 8/5

# The paradifferential cut: a symbol's spatial frequency sits 10 dyadic
# scales below the pair frequency, |xi - eta| / |xi + eta| <= (8/5) 2^-10.
PARA_CUT_BAND = -10


def _bump(s: np.ndarray) -> np.ndarray:
    """exp(-1/s) for s > 0, zero otherwise (flat at the boundary)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def smoothed_step(s):
    """C-infinity step: 0 for s <= 0, 1 for s >= 1, strictly monotone between."""
    s = np.asarray(s, dtype=float)
    rising = _bump(s)
    falling = _bump(1.0 - s)
    # Denominator is strictly positive: at least one bump is active for any s.
    return rising / (rising + falling)


def psi(r):
    """Base cutoff: 1 on [-5/4, 5/4], 0 outside (-8/5, 8/5), smooth between."""
    r = np.abs(np.asarray(r, dtype=float))
    return smoothed_step((SUPPORT - r) / (SUPPORT - PLATEAU))


def psi_band(k: int, r):
    """Dyadic ring cutoff.

    ``psi_band(-1, r) = psi(2r)`` is the low ball; for k >= 0 it is
    ``psi(r/2**k) - psi(r/2**(k-1))``, supported on 5/4 * 2**(k-1) <=
    |r| <= 8/5 * 2**k.
    """
    if k < -1:
        raise ValueError(f"band index must be >= -1, got {k}")
    if k == -1:
        return psi(2.0 * np.asarray(r, dtype=float))
    return psi(np.asarray(r, dtype=float) / 2.0**k) - psi(
        np.asarray(r, dtype=float) / 2.0 ** (k - 1)
    )


def psi_le(k: int, r):
    """Cumulative cutoff sum_{j<=k} psi_band(j, r) = psi(r / 2**k)."""
    return psi(np.asarray(r, dtype=float) / 2.0**k)


def psi_range(k_lo: int, k_hi: int, r):
    """Sum of rings k_lo..k_hi (inclusive), telescoped.

    A band index below -1 or an empty range raises.
    """
    if k_lo < -1:
        raise ValueError(f"band index must be >= -1, got {k_lo}")
    if k_hi < k_lo:
        raise ValueError(f"empty band range [{k_lo}, {k_hi}]")
    high = psi_le(k_hi, r)
    if k_lo == -1:
        return high
    return high - psi_le(k_lo - 1, r)


def para_cut(low, high):
    """psi_le(PARA_CUT_BAND, low / high) of nonnegative moduli, broadcast,
    with 0/0 := 0 (the diagonal passes) and x/0 := inf (cut)."""
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    ratio = np.full(np.broadcast(low, high).shape, np.inf)
    np.divide(low, high, out=ratio, where=high > 0)
    ratio[(low == 0) & (high == 0)] = 0.0
    return psi_le(PARA_CUT_BAND, ratio)
