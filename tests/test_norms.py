"""Norm evaluations against closed forms and external quadrature, the
weighted-norm sandwich, and the fit helpers."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from kglab.data import gaussian_bump, make_rng, random_band_field
from kglab.grid import Field, make_grid
from kglab.norms import (
    holder_sup,
    linlog_fit,
    loglog_fit,
    sandwich_check,
    sobolev,
    weighted_l2,
)
from kglab.spectral import lp_project, q_shell


def _cosine(g, m, amp=1.0):
    x = g.x_axes[0]
    return Field.from_values(g, amp * np.cos(m * g.dxi * x))


def test_sobolev_single_mode_closed_form():
    g = make_grid(1, 128, 2 * np.pi)
    c = np.zeros(g.shape, dtype=complex)
    c[3] = 1.0  # mode m = 3, frequency 3 * dxi
    f = Field.from_coeffs(g, c)
    xi = 3 * g.dxi
    for s in (0.0, 1.0, 4.5):
        want = math.sqrt(g.volume) * (1.0 + xi * xi) ** (s / 2.0)
        assert sobolev(f, s) == pytest.approx(want, rel=1e-13)


def test_holder_sup_cosine_derivatives():
    # sup |d^b cos(m xi0 x)| = (m xi0)^b: the max over b <= 2 is the
    # second derivative once the frequency exceeds one
    g = make_grid(1, 256, np.pi)  # dxi = 1, integer frequencies
    f = _cosine(g, 3)
    assert holder_sup(f, 0) == pytest.approx(1.0, rel=1e-12)
    assert holder_sup(f, 1) == pytest.approx(3.0, rel=1e-12)
    assert holder_sup(f, 2) == pytest.approx(9.0, rel=1e-12)


def test_weighted_l2_against_scipy_quadrature():
    g = make_grid(1, 256, 12.0)
    f = gaussian_bump(g, 1.0) * 2.0
    alpha = 0.8
    want2, err = quad(lambda x: (1.0 + x * x) ** alpha * 4.0 * np.exp(-x * x), -12.0, 12.0)
    assert err < 1e-7 * want2
    assert weighted_l2(f, alpha) == pytest.approx(math.sqrt(want2), rel=1e-7)


def test_sandwich_orders_the_three_quantities():
    g = make_grid(1, 256, 16.0)
    rng = make_rng(50)
    f = random_band_field(g, rng, k_lo=0, k_hi=3)
    out = sandwich_check(f, 0.7)
    assert out["ok"]
    assert out["largest_piece"] <= out["weighted"] * (1 + 1e-10)
    assert out["weighted"] <= out["composite"] * (1 + 1e-10)
    pieces = [[2.0 ** (j * 0.7) * q_shell(lp_project(f, k), j).l2()
               for j in range(-1, g.j_top + 1)] for k in range(-1, g.k_top + 1)]
    assert out["largest_piece"] == max(max(row) for row in pieces)
    composite = sum(math.sqrt(sum(v * v for v in row)) for row in pieces)
    assert out["composite"] == pytest.approx(composite, rel=1e-13)


# ---------------------------------------------------------------------------
# fits


def test_loglog_fit_recovers_exact_power_law():
    ts = np.linspace(2.0, 40.0, 25)
    ys = 3.0 * ts**-2.0
    fit = loglog_fit(ts, ys)
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.ci95 == pytest.approx(0.0, abs=1e-10)
    assert fit.n_points == 25


def test_loglog_fit_window_and_noise():
    rng = make_rng(51)
    ts = np.linspace(1.0, 100.0, 60)
    ys = 5.0 * ts**-0.5 * np.exp(0.05 * rng.standard_normal(60))
    fit = loglog_fit(ts, ys, t_min=10.0, t_max=90.0)
    assert fit.window == (10.0, 90.0)
    assert fit.n_points == int(np.sum((ts >= 10.0) & (ts <= 90.0)))
    assert fit.slope == pytest.approx(-0.5, abs=0.1)
    assert fit.ci95 == 2.0 * fit.stderr > 0.0
    assert "slope=" in str(fit)


def test_linlog_fit_recovers_log_growth():
    ts = np.geomspace(1.0, 1000.0, 30)
    ys = 5.0 + 2.0 * np.log(ts)
    fit = linlog_fit(ts, ys)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(5.0, abs=1e-12)


def test_fits_need_two_samples():
    with pytest.raises(ValueError):
        loglog_fit([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], t_min=1.5, t_max=1.9)
    with pytest.raises(ValueError):
        linlog_fit([1.0], [1.0])
    with pytest.raises(ValueError):
        loglog_fit([1.0, 2.0], [0.0, -1.0])  # positivity filter empties it
    # samples at one t carry no slope, though numpy would fit one
    for fit in (loglog_fit, linlog_fit):
        with pytest.raises(ValueError, match="two distinct t"):
            fit([0.1, 0.1], [1.0, 2.0])
        with pytest.raises(ValueError, match="two distinct t"):
            fit([1.0, 1.0, 1.0, 5.0], [1.0, 2.0, 3.0, 4.0], t_min=0.5, t_max=2.0)
        assert fit([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]).n_points == 3
