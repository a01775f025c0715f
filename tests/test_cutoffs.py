"""Cutoff family: plateau/support geometry and partition identities."""

import numpy as np
import pytest

from kglab.cutoffs import (
    PARA_CUT_BAND,
    PLATEAU,
    SUPPORT,
    para_cut,
    psi,
    psi_band,
    psi_le,
    psi_range,
)

R = np.linspace(-12.0, 12.0, 4001)


def test_psi_plateau_and_support():
    r = np.linspace(0.0, 3.0, 2001)
    vals = psi(r)
    assert np.all(vals[r <= PLATEAU] == 1.0)
    assert np.all(vals[r >= SUPPORT] == 0.0)
    inside = (r > PLATEAU) & (r < SUPPORT)
    # all derivatives vanish at the edges, so double precision rounds
    # the extreme ends of the open transition to exactly 1 and 0; the
    # midpoint is strictly between
    assert np.all((vals[inside] >= 0.0) & (vals[inside] <= 1.0))
    mid = psi(0.5 * (PLATEAU + SUPPORT))
    assert 0.0 < mid < 1.0


def test_psi_even():
    assert np.array_equal(psi(R), psi(-R))


def test_psi_monotone_on_transition():
    r = np.linspace(PLATEAU, SUPPORT, 500)
    v = psi(r)
    assert np.all(np.diff(v) <= 1e-15)


def test_band_telescoping_partition():
    # sum over -1..K of the rings equals the cumulative cutoff exactly,
    # by construction; then psi_le(K) == 1 wherever |r| <= 1.25 * 2^K
    K = 4
    total = sum(psi_band(k, R) for k in range(-1, K + 1))
    assert np.allclose(total, psi_le(K, R), atol=1e-15)
    covered = np.abs(R) <= PLATEAU * 2.0**K
    assert np.all(total[covered] == 1.0)


def test_band_support_bounds():
    for k in (0, 1, 3):
        v = psi_band(k, R)
        lo, hi = PLATEAU * 2.0 ** (k - 1), SUPPORT * 2.0**k
        assert np.all(v[np.abs(R) < lo * (1 - 1e-12)] >= 0.0)
        live = v > 0.0
        assert np.all(np.abs(R)[live] > lo - 1e-9)
        assert np.all(np.abs(R)[live] < hi + 1e-9)


def test_low_ball_band():
    # k = -1 is the low ball psi(2r), not a ring
    assert np.allclose(psi_band(-1, R), psi(2 * R), atol=1e-15)
    assert psi_band(-1, 0.0) == 1.0


def test_psi_range_telescopes():
    got = psi_range(1, 3, R)
    want = psi_band(1, R) + psi_band(2, R) + psi_band(3, R)
    assert np.allclose(got, want, atol=1e-14)


def test_psi_range_refuses_a_band_below_the_low_ball():
    # like psi_band, no index below -1 is clamped into range
    with pytest.raises(ValueError, match="band index must be >= -1, got -5"):
        psi_range(-5, 2, R)
    assert np.array_equal(psi_range(-1, 2, R), psi_le(2, R))


def test_para_cut_ratio_rules():
    low = np.array([0.0, 0.0, 1.0, 1e-4, 3e-3, 1.4e-3])
    high = np.array([0.0, 2.0, 0.0, 1.0, 1.0, 1.0])
    got = para_cut(low, high)
    # 0/0 := 0 and 0/x = 0 pass, x/0 := inf is cut, and a positive
    # ratio is the cutoff at PARA_CUT_BAND
    assert list(got[:3]) == [1.0, 1.0, 0.0]
    assert list(got[3:]) == list(psi_le(PARA_CUT_BAND, low[3:] / high[3:]))
    assert 0.0 < got[-1] < 1.0
    # a scalar broadcasts against an array
    assert list(para_cut(0.0, high)) == [1.0] * 6
    assert list(para_cut(1.0, high)) == [0.0] * 6


def test_smoothness_no_jumps():
    # C^inf bump: successive differences on a fine lattice shrink with
    # the lattice, i.e. no hidden discontinuity in value or slope
    r = np.linspace(1.0, 2.0, 100001)
    v = psi(r)
    dv = np.diff(v) / (r[1] - r[0])
    assert np.max(np.abs(np.diff(dv))) < 1e-3
