"""Independent brute-force oracles.

Every nontrivial operator in the package has a second, slower
implementation here that follows the defining sum or integral
literally: explicit mode arithmetic, no rolls, no convolution
shortcuts, no shared code with the fast paths.  Tests and the
acceptance suite compare the two routes.

All three operator oracles are row-wise literal sums: each evaluates
its symbol or kernel once per output row, on arrays, at exactly the
points of the defining sum.
  - weyl_matrix, the one slow route for T_a: one row per mode, so
    npoints^2 entries in time and memory; guarded to 4,096 modes so
    that the 1-D n = 4096 grids with live off-diagonal couplings fit.
  - bilinear_oracle: one kernel call per output mode of the 2/3 box,
    each on at most as many points as g has active modes.
  - trilinear_oracle: a (g, h) pair list of (active g) x (active h)
    entries, then one kernel call per active mode of f on at most that
    many points.
"""

from __future__ import annotations

import itertools

import numpy as np

from .cutoffs import PARA_CUT_BAND, psi_le
from .grid import Field
from .paradiff import Symbol
from .resonance import PHASE_FLOOR

__all__ = [
    "weyl_matrix",
    "weyl_oracle",
    "bilinear_oracle",
    "trilinear_oracle",
    "fd_gradient_oracle",
    "phase_scan_oracle",
]


# A dense matrix has npoints^2 complex entries: 4,096 modes is 268 MB.
MAX_MATRIX_MODES = 4096


def weyl_matrix(a: Symbol) -> np.ndarray:
    """Dense mode-space matrix of T_a (rows output xi, columns input eta).

    Row by row from the defining sum in kglab.paradiff: cutoff weight
    times, for each key (alpha, p), the x-part's coefficient at xi - eta
    times zeta^alpha (1 + |zeta|^2)^(p/2) at zeta = (xi + eta)/2, written
    out here as a product over the axes (0^0 = 1, so the key's value at
    zeta = 0 needs no case of its own).  Nyquist rows and columns are
    zero, so inputs need no Nyquist cleaning.
    """
    grid = a.grid
    npts = grid.npoints
    if npts > MAX_MATRIX_MODES:
        raise ValueError(f"grid has {npts} modes; the Weyl matrix is "
                         f"guarded to {MAX_MATRIX_MODES}")
    modes = grid.mode_tuples()
    nyq = grid.nyquist_mask.ravel()
    dxi = grid.dxi
    keys = [(alpha, p, f.coeffs.reshape(-1)) for (alpha, p), f in a.parts.items()]
    M = np.zeros((npts, npts), dtype=complex)

    for row in range(npts):
        if nyq[row]:
            continue
        xi = modes[row]
        diff = xi - modes
        summ = xi + modes
        live = np.all(np.abs(diff) <= grid.n // 2 - 1, axis=1) & ~nyq
        dmag = dxi * np.sqrt(np.sum(diff * diff, axis=1))
        smag = dxi * np.sqrt(np.sum(summ * summ, axis=1))
        w = psi_le(PARA_CUT_BAND, dmag / np.where(smag > 0.0, smag, 1.0))
        w[smag == 0.0] = 0.0
        w[dmag == 0.0] = 1.0
        w[~live] = 0.0
        zmid = 0.5 * dxi * summ.astype(float)
        bracket = np.sqrt(1.0 + np.sum(zmid * zmid, axis=1))
        idx = np.ravel_multi_index(tuple((diff % grid.n).T), grid.shape)
        val = np.zeros(npts, dtype=complex)
        for alpha, p, bp in keys:
            g = bracket ** float(p)
            for axis, k in enumerate(alpha):
                g = g * zmid[:, axis] ** k
            val += bp[idx] * g
        M[row] = w * val
    return M


def weyl_oracle(a: Symbol, f: Field) -> Field:
    """T_a f as the dense Weyl matrix times f's coefficients."""
    out = weyl_matrix(a) @ f.coeffs.reshape(-1)
    return Field.from_coeffs(f.grid, out.reshape(f.grid.shape))


def bilinear_oracle(m_fn, f: Field, g: Field) -> Field:
    """B_m(f, g) as the literal sum out(xi) = sum_eta m(xi-eta, eta) f^ g^.

    ``m_fn(z1, z2)`` takes frequency-vector arrays of shape (..., d).
    Inputs are 2/3-truncated and the output is 2/3-truncated, matching
    the product normalization (m = 1 gives the dealiased product).

    Row by row, in index order over the output modes xi of the 2/3 box:
    of the active eta (nonzero g^), keep those with xi - eta in the box
    and f^(xi - eta) nonzero, call m_fn once on the kept (xi - eta, eta)
    arrays, and set out(xi) to the sum of m f^ g^ over them.  A row
    with nothing kept makes no call.
    """
    grid = f.grid
    modes = grid.mode_tuples()
    deal = grid.dealias_mask.ravel()
    fc = np.where(deal, f.coeffs.reshape(-1), 0.0)
    gc = np.where(deal, g.coeffs.reshape(-1), 0.0)
    out = np.zeros(grid.npoints, dtype=complex)
    dxi = grid.dxi
    cut = grid.n // 3

    active = np.nonzero(gc)[0]
    eta = modes[active]
    for i in np.nonzero(deal)[0]:
        diff = modes[i] - eta
        inbox = np.nonzero(np.all(np.abs(diff) <= cut, axis=1))[0]
        idx = np.ravel_multi_index(tuple((diff[inbox] % grid.n).T), grid.shape)
        live = fc[idx] != 0.0
        if not live.any():
            continue
        k = inbox[live]
        mval = m_fn(dxi * diff[k].astype(float), dxi * eta[k].astype(float))
        out[i] = np.sum(mval * fc[idx[live]] * gc[active[k]])
    return Field.from_coeffs(grid, out.reshape(grid.shape))


def trilinear_oracle(b_fn, f: Field, g: Field, h: Field) -> Field:
    """T_b(f, g, h): literal double frequency sum with the inner (g, h)
    pair frequency kept inside the 2/3 box (right-associated products).

    The pairs (t2, t3) of active modes (nonzero g^ and h^) are listed
    once, g-major, keeping those with eta = t2 + t3 in the box.  Then,
    in index order over the active modes t1 of f, the pairs with
    t1 + eta in the box are kept, b_fn is called once on them, and
    b f^ g^ h^ is added at t1 + eta in pair order: each output mode sums
    its terms in the order of the literal triple loop over f, g, h.
    """
    grid = f.grid
    modes = grid.mode_tuples()
    deal = grid.dealias_mask.ravel()
    fc = np.where(deal, f.coeffs.reshape(-1), 0.0)
    gc = np.where(deal, g.coeffs.reshape(-1), 0.0)
    hc = np.where(deal, h.coeffs.reshape(-1), 0.0)
    out = np.zeros(grid.npoints, dtype=complex)
    dxi = grid.dxi
    cut = grid.n // 3

    g_active, h_active = np.nonzero(gc)[0], np.nonzero(hc)[0]
    jg = np.repeat(g_active, h_active.size)  # g-major pair list
    jh = np.tile(h_active, g_active.size)
    inner = modes[jg] + modes[jh]
    inbox = np.all(np.abs(inner) <= cut, axis=1)
    jg, jh, inner = jg[inbox], jh[inbox], inner[inbox]
    for jf in np.nonzero(fc)[0]:
        total = modes[jf] + inner
        k = np.nonzero(np.all(np.abs(total) <= cut, axis=1))[0]
        if k.size == 0:
            continue
        t1 = np.tile(dxi * modes[jf].astype(float), (k.size, 1))
        bval = b_fn(t1, dxi * modes[jg[k]].astype(float), dxi * modes[jh[k]].astype(float))
        idx = np.ravel_multi_index(tuple((total[k] % grid.n).T), grid.shape)
        np.add.at(out, idx, bval * fc[jf] * gc[jg[k]] * hc[jh[k]])
    return Field.from_coeffs(grid, out.reshape(grid.shape))


def fd_gradient_oracle(f: Field, axis: int) -> Field:
    """Fourth-order centered finite-difference first derivative."""
    v = f.values
    h = f.grid.dx
    out = (
        -np.roll(v, -2, axis) + 8 * np.roll(v, -1, axis)
        - 8 * np.roll(v, 1, axis) + np.roll(v, 2, axis)
    ) / (12.0 * h)
    return Field.from_values(f.grid, out)


def phase_scan_oracle(d: int, mu: int, nu: int, radius: float = 8.0,
                      step: float = 0.25, *, floor: float = PHASE_FLOOR) -> dict:
    """The phase-bound scan over the full lattice product.

    Every pair (xi, eta) of the step-h lattice ball |v| <= radius in d
    dimensions is evaluated, with no symmetry reduction; the finite-
    difference gradient (step h / 8) runs on every row_stride-th row of
    the lattice, the stride set so that at most 4,000,000 pairs are
    differenced; these are resonance.phase_bound_scan's constants.  Returns
    the keys of resonance.phase_bound_scan except n_pairs_covered, with
    n_pairs the full product.  The cost grows as (2 radius / step)^(2d).
    """
    if mu not in (1, -1) or nu not in (1, -1):
        raise ValueError("signs must be +1 or -1")
    if radius <= 0 or step <= 0:
        raise ValueError("radius and step must be positive")
    nsteps = int(round(radius / step))
    cube = np.array([[step * k for k in idx] for idx in
                     itertools.product(range(-nsteps, nsteps + 1), repeat=d)])
    xi_pts = eta_pts = cube[np.sum(cube * cube, axis=1) <= radius * radius + 1e-12]
    nx, ne = xi_pts.shape[0], eta_pts.shape[0]
    delta = step / 8.0
    chunk = 512  # rows per block; bounds memory only

    eta2 = np.sum(eta_pts * eta_pts, axis=1)
    abs_eta = np.sqrt(eta2)
    lam_eta = np.sqrt(1.0 + eta2)
    xi2_all = np.sum(xi_pts * xi_pts, axis=1)

    # deterministic row subsample for the FD gradient pass
    row_stride = max(1, int(np.ceil(nx * ne / 4_000_000)))
    grad_rows = np.zeros(nx, dtype=bool)
    grad_rows[::row_stride] = True

    min_abs = np.inf
    min_arg = (None, None)
    c_phi = 0.0
    c_phi_arg = (None, None)
    c_grad = 0.0
    n_grad = 0
    n_floor = 0

    for i0 in range(0, nx, chunk):
        i1 = min(i0 + chunk, nx)
        X = xi_pts[i0:i1]
        xi2 = xi2_all[i0:i1]
        abs_xi = np.sqrt(xi2)
        lam_xi = np.sqrt(1.0 + xi2)
        # |xi - eta|^2 via the inner-product expansion
        dots = X @ eta_pts.T
        d2 = xi2[:, None] + eta2[None, :] - 2.0 * dots
        np.maximum(d2, 0.0, out=d2)
        abs_diff = np.sqrt(d2)
        lam_diff = np.sqrt(1.0 + d2)

        ph = -lam_xi[:, None] + mu * lam_diff + nu * lam_eta[None, :]
        aph = np.abs(ph)
        n_floor += int(np.sum(aph < floor))

        flat = int(np.argmin(aph))
        if aph.flat[flat] < min_abs:
            min_abs = float(aph.flat[flat])
            r, c = divmod(flat, ne)
            min_arg = (xi_pts[i0 + r].copy(), eta_pts[c].copy())

        min3 = np.minimum(np.minimum(abs_xi[:, None], abs_eta[None, :]), abs_diff)
        ratio = 1.0 / (np.maximum(aph, floor) * (1.0 + min3))
        flat = int(np.argmax(ratio))
        if ratio.flat[flat] > c_phi:
            c_phi = float(ratio.flat[flat])
            r, c = divmod(flat, ne)
            c_phi_arg = (xi_pts[i0 + r].copy(), eta_pts[c].copy())

        rows = np.nonzero(grad_rows[i0:i1])[0]
        if rows.size == 0:
            continue
        Xs = X[rows]
        xi2s, d2s = xi2[rows], d2[rows]
        lam_eta_b = lam_eta[None, :]
        gradsq = np.zeros_like(d2s)
        for c in range(d):
            diff_c = Xs[:, c][:, None] - eta_pts[:, c][None, :]
            lam_xi_p = np.sqrt(1.0 + xi2s + 2.0 * delta * Xs[:, c] + delta**2)
            lam_xi_m = np.sqrt(1.0 + xi2s - 2.0 * delta * Xs[:, c] + delta**2)
            # z1 perturbation: moves xi - eta and xi + ... = xi
            lam_dp = np.sqrt(1.0 + d2s + 2.0 * delta * diff_c + delta**2)
            lam_dm = np.sqrt(1.0 + d2s - 2.0 * delta * diff_c + delta**2)
            g1 = (-(lam_xi_p - lam_xi_m)[:, None]
                  + mu * (lam_dp - lam_dm)) / (2.0 * delta)
            gradsq += g1 * g1
            # z2 perturbation: moves eta and xi, leaves xi - eta fixed
            lam_eta_p = np.sqrt(1.0 + eta2 + 2.0 * delta * eta_pts[:, c] + delta**2)
            lam_eta_m = np.sqrt(1.0 + eta2 - 2.0 * delta * eta_pts[:, c] + delta**2)
            g2 = (-(lam_xi_p - lam_xi_m)[:, None]
                  + nu * (lam_eta_p - lam_eta_m)[None, :]) / (2.0 * delta)
            gradsq += g2 * g2
        aph_s = np.abs(-np.sqrt(1.0 + xi2s)[:, None] + mu * np.sqrt(1.0 + d2s)
                       + nu * lam_eta_b)
        denom = np.minimum(1.0, np.maximum(aph_s, floor))
        c_grad = max(c_grad, float(np.max(np.sqrt(gradsq) / denom)))
        n_grad += rows.size * ne

    return {
        "d": d, "mu": mu, "nu": nu, "radius": radius, "step": step,
        "n_pairs": nx * ne, "min_abs_phase": min_abs,
        "argmin_xi": min_arg[0], "argmin_eta": min_arg[1],
        "c_phi": c_phi, "c_phi_arg_xi": c_phi_arg[0],
        "c_phi_arg_eta": c_phi_arg[1],
        "c_grad": c_grad, "n_grad_pairs": n_grad, "fd_step": delta,
        "floor_violations": n_floor,
    }
