"""Resonance phases, their lattice lower bounds, and pseudoproduct operators.

The phase of the quadratic frequency interactions,

    Phi_{mu nu}(z1, z2) = -L(z1+z2) + mu L(z1) + nu L(z2)

with L(z) = sqrt(1+|z|^2), together with the bilinear operator

    B_m(f, g)^(xi) = sum_eta m(xi-eta, eta) f^(xi-eta) g^(eta)

and its trilinear analogue.  The normalization is fixed so that m = 1
reproduces the dealiased pointwise product: both input spectra are
truncated to the 2/3 box, mode sums are exact integer sums (no
wraparound), and the output is truncated to the same box.

Both arities have one route, :class:`Pseudoproduct`: the kernel is
tabulated once on fixed coefficient supports and every application is
one scatter.  Callers that apply a kernel many times (the normal-form
pieces in dynamics) build it once on the whole box;
:func:`bilinear_apply` and :func:`trilinear_apply` are its one-shot
forms on the inputs' nonzero supports.

The kernel families (the energy-functional multipliers, the quadratic
interaction kernels of a given nonlinearity, and the cubic profile
kernel built from them) are plain callables of the frequency arguments,
wrapped in :class:`BilinearSymbol` or :class:`TrilinearSymbol`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cutoffs import para_cut, psi
from .grid import Field, Grid
from .nonlinearity import NonlinearitySpec

__all__ = [
    "SIGN_PAIRS", "SIGN_TRIPLES", "PHASE_FLOOR",
    "lam", "phase", "phi_inv",
    "phase_bound_scan",
    "BilinearSymbol", "TrilinearSymbol",
    "a_kernel", "semilinear_symbol", "quasilinear_symbol", "resonant_kernel",
    "b_kernel", "Pseudoproduct", "bilinear_apply", "trilinear_apply",
]

SIGN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
SIGN_TRIPLES = tuple((m, s, i) for m in (1, -1) for s in (1, -1) for i in (1, -1))

# Lattice pairings with |Phi| below this are excluded from kernel
# evaluation (set to zero and warned about).  The scan shows the floor
# is never approached for this dispersion relation.
PHASE_FLOOR = 1e-8


def lam(z):
    """sqrt(1 + |z|^2) for an array of frequency vectors shaped (..., d)."""
    z = np.asarray(z, dtype=float)
    return np.sqrt(1.0 + np.sum(z * z, axis=-1))


def _check_sign(s):
    if s not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {s!r}")
    return s


def phase(mu: int, nu: int, z1, z2):
    """Quadratic interaction phase Phi_{mu nu}(z1, z2)."""
    _check_sign(mu), _check_sign(nu)
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    return -lam(z1 + z2) + mu * lam(z1) + nu * lam(z2)


def phi_inv(mu: int, nu: int, z1, z2, floor: float = PHASE_FLOOR):
    """1 / Phi_{mu nu}, zeroing (and warning about) sub-floor pairings."""
    ph = phase(mu, nu, z1, z2)
    small = np.abs(ph) < floor
    if np.any(small):
        warnings.warn(
            f"phase below floor {floor:g} at {int(np.sum(small))} pairings; "
            "contributions excluded", stacklevel=2)
        ph = np.where(small, 1.0, ph)
        return np.where(small, 0.0, 1.0 / ph)
    return 1.0 / ph


# ---------------------------------------------------------------------------
# phase bound scan

# the gradient pass differences at most about this many pairs; both
# passes run in row blocks of at most _BLOCK_PAIRS pairs (512 KiB per
# float64 buffer), which bounds their working set and changes no result
_GRAD_PAIR_BUDGET = 4_000_000
_BLOCK_PAIRS = 1 << 16


def _block_rows(n_cols: int) -> int:
    """Rows per scan block: as many as fit in _BLOCK_PAIRS, at least one."""
    return max(1, _BLOCK_PAIRS // n_cols)


def _ball_lattice(d: int, radius: float, step: float,
                  nonneg_axes: tuple = ()) -> np.ndarray:
    """All lattice points with |v| <= radius on the step-h grid.

    Axes listed in nonneg_axes are restricted to v >= 0 (used by the
    canonical reduced scan in three dimensions).
    """
    nsteps = int(round(radius / step))
    axis = step * np.arange(-nsteps, nsteps + 1)
    half = step * np.arange(0, nsteps + 1)
    axes = [half if a in nonneg_axes else axis for a in range(d)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    keep = np.sum(pts * pts, axis=1) <= radius * radius + 1e-12
    return pts[keep]


def _lattice_points(d: int, m: float) -> float:
    """Points in the largest lattice a scan at radius / step = m builds,
    before the ball filter: the (2m + 1)**d cube of _ball_lattice for
    d <= 2, and for d = 3 the (2m + 1)(m + 1) half-disc of its columns,
    with m rounded as _ball_lattice rounds it; inf when m is not finite."""
    if not math.isfinite(m):
        return math.inf
    m = round(m)
    return (2 * m + 1) ** d if d < 3 else (2 * m + 1) * (m + 1)


def _scan_points(d: int, radius: float, step: float):
    """Rows, row weights, columns and gradient rows of the pair scan.

    Every row and column set comes from _ball_lattice, so each lies in
    the ball |v| <= radius.  The phase, c_phi and the floor test depend
    on a pair (xi, eta) only through |xi|, |eta| and |xi - eta|.  For
    d <= 2 the lattice ball is invariant under the signed permutations
    of the axes (8 in 2-D, 2 in 1-D), and (g xi, eta) has the same
    lengths as (xi, g^-1 eta), so every row g xi of the full lattice
    product repeats the row xi up to a permutation of its columns.  The
    rows are therefore the wedge 0 <= xi_2 <= xi_1 (xi >= 0 in 1-D),
    each weighted by the size of its orbit (1, 4 or 8 in 2-D; 1 or 2 in
    1-D), and the columns stay the whole ball.  The weights sum to the
    full lattice size.  A point's wedge representative is its absolute
    coordinates sorted in descending order.

    For d = 3 every pair is rotation-equivalent to xi = (r, 0, 0),
    eta = (a, b, 0) with r, b >= 0; the rows are the nonnegative 1-D
    ball and the columns the b >= 0 half of the 2-D ball, embedded in
    three dimensions, each row its own representative, of weight 1.

    The finite-difference gradient is measured on a deterministic row
    subsample: every row_stride-th row of the full lattice, with the
    stride set by the full pair count and _GRAD_PAIR_BUDGET, mapped to
    its wedge representative with duplicates dropped.  The gradient
    norm is invariant too, so the maximum over the representatives
    equals the maximum over the sampled rows.

    Returns (xi, weight, eta, grad_xi).
    """
    if d not in (1, 2, 3):
        raise ValueError(f"scan supports d in 1..3, got {d}")
    if d == 3:
        full = np.pad(_ball_lattice(1, radius, step, nonneg_axes=(0,)), ((0, 0), (0, 2)))
        eta = np.pad(_ball_lattice(2, radius, step, nonneg_axes=(1,)), ((0, 0), (0, 1)))
    else:
        full = eta = _ball_lattice(d, radius, step)
    reps = np.sort(np.abs(full), axis=1)[:, ::-1]
    xi, inverse, weight = np.unique(reps, axis=0, return_inverse=True, return_counts=True)
    row_stride = max(1, int(np.ceil(full.shape[0] * eta.shape[0]
                                    / _GRAD_PAIR_BUDGET)))
    grad_xi = xi[np.unique(inverse[::row_stride])]
    return xi, weight, eta, grad_xi


def phase_bound_scan(d: int, mu: int, nu: int, radius: float = 8.0,
                     step: float = 0.25, *, floor: float = PHASE_FLOOR) -> dict:
    """Scan of the phase lower bound and derivative bound.

    Over lattice pairs (xi, eta) with |xi|, |eta| <= radius, measures

        c_phi  = max  1 / (|Phi_{mu nu}(xi-eta, eta)| (1 + min{|xi|,|eta|,|xi-eta|}))
        c_grad = max  |grad Phi_{mu nu}| / min{1, |Phi_{mu nu}|}

    with the gradient taken in the (z1, z2) arguments by central finite
    differences of step h / 8.  For d <= 2 the rows xi run over the
    symmetry wedge of the lattice ball and the columns eta over the
    whole ball (see _scan_points); floor_violations sums each row's
    count of pairs with |Phi| < floor times the row's orbit weight, so
    it counts the full lattice product.  The gradient maximum is taken over the wedge
    representatives of a deterministic row subsample of the full
    lattice when its pair count exceeds 4,000,000.  Lattice
    coordinates on a dyadic step are exact in floating point, so
    min_abs_phase, c_phi and floor_violations equal those of the full
    product (oracles.phase_scan_oracle) exactly, and c_grad to
    rounding.  For d = 3 the scan runs over a canonical slice instead,
    whose rows and columns lie inside the ball too.

    n_pairs counts the pairs evaluated, n_pairs_covered the pairs of
    the full lattice product they stand for.  At d = 3 the rotation
    reduction to the slice has no finite orbit weight, so there
    n_pairs_covered equals n_pairs.  Returns a report dict;
    finite constants are the verification.
    """
    _check_sign(mu), _check_sign(nu)
    if radius <= 0 or step <= 0:
        raise ValueError("radius and step must be positive")
    xi_pts, weight, eta_pts, grad_pts = _scan_points(d, radius, step)
    nx, ne = xi_pts.shape[0], eta_pts.shape[0]
    delta = step / 8.0

    eta2 = np.sum(eta_pts * eta_pts, axis=1)
    abs_eta = np.sqrt(eta2)
    nu_lam_eta = nu * np.sqrt(1.0 + eta2)
    xi2_all = np.sum(xi_pts * xi_pts, axis=1)

    min_abs = np.inf
    min_den = np.inf
    n_floor = 0

    # each step below overwrites one of two block-sized buffers in place,
    # in the operation order of oracles.phase_scan_oracle, so the two
    # agree bitwise
    rows = _block_rows(ne)
    for i0 in range(0, nx, rows):
        i1 = min(i0 + rows, nx)
        xi2 = xi2_all[i0:i1]
        # |xi - eta|^2 via the inner-product expansion
        dots = xi_pts[i0:i1] @ eta_pts.T
        dots *= 2.0
        d2 = np.add.outer(xi2, eta2)
        d2 -= dots
        np.maximum(d2, 0.0, out=d2)
        abs_diff = np.sqrt(d2, out=dots)
        d2 += 1.0
        aph = np.sqrt(d2, out=d2)
        aph *= mu
        aph += -np.sqrt(1.0 + xi2)[:, None]
        aph += nu_lam_eta
        np.abs(aph, out=aph)
        n_floor += int(weight[i0:i1] @ np.count_nonzero(aph < floor, axis=1))

        min_abs = min(min_abs, float(aph.min()))

        # c_phi = 1 / min of the denominator (the reciprocal is monotone)
        min3 = np.minimum(abs_diff, np.sqrt(xi2)[:, None], out=abs_diff)
        np.minimum(min3, abs_eta, out=min3)
        min3 += 1.0
        np.maximum(aph, floor, out=aph)
        den = np.multiply(aph, min3, out=aph)
        min_den = min(min_den, float(den.min()))

    c_grad = _grad_scan(mu, nu, grad_pts, eta_pts, delta, floor)
    return {
        "d": d, "mu": mu, "nu": nu, "radius": radius, "step": step,
        "n_pairs": nx * ne, "n_pairs_covered": int(weight.sum()) * ne,
        "min_abs_phase": min_abs, "c_phi": 1.0 / min_den,
        "c_grad": c_grad, "n_grad_pairs": grad_pts.shape[0] * ne,
        "floor_violations": n_floor,
    }


def _grad_scan(mu, nu, grad_pts, eta_pts, delta, floor) -> float:
    """max |grad Phi| / min{1, |Phi|} over grad_pts x eta_pts by central
    differences, in row blocks of the main scan's pair budget."""
    d = eta_pts.shape[1]
    eta2 = np.sum(eta_pts * eta_pts, axis=1)
    lam_eta = np.sqrt(1.0 + eta2)
    eta_terms = []
    for c in range(d):
        lam_eta_p = np.sqrt(1.0 + eta2 + 2.0 * delta * eta_pts[:, c] + delta**2)
        lam_eta_m = np.sqrt(1.0 + eta2 - 2.0 * delta * eta_pts[:, c] + delta**2)
        eta_terms.append(nu * (lam_eta_p - lam_eta_m)[None, :])
    c_grad = 0.0
    rows = _block_rows(eta_pts.shape[0])
    for i0 in range(0, grad_pts.shape[0], rows):
        Xs = grad_pts[i0:i0 + rows]
        xi2s = np.sum(Xs * Xs, axis=1)
        d2s = xi2s[:, None] + eta2[None, :] - 2.0 * (Xs @ eta_pts.T)
        np.maximum(d2s, 0.0, out=d2s)
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
            g2 = (-(lam_xi_p - lam_xi_m)[:, None] + eta_terms[c]) / (2.0 * delta)
            gradsq += g2 * g2
        aph_s = np.abs(-np.sqrt(1.0 + xi2s)[:, None] + mu * np.sqrt(1.0 + d2s)
                       + nu * lam_eta[None, :])
        denom = np.minimum(1.0, np.maximum(aph_s, floor))
        c_grad = max(c_grad, float(np.max(np.sqrt(gradsq) / denom)))
    return c_grad


# ---------------------------------------------------------------------------
# symbol families

@dataclass(frozen=True)
class BilinearSymbol:
    """Kernel m(z1, z2)."""
    fn: Callable

    def __call__(self, z1, z2):
        return self.fn(z1, z2)


@dataclass(frozen=True)
class TrilinearSymbol:
    """Kernel b(z1, z2, z3)."""
    fn: Callable

    def __call__(self, z1, z2, z3):
        return self.fn(z1, z2, z3)


def _slot_weights(spec: NonlinearitySpec, sign: int, z):
    """Frequency weights mapping a half-wave to the field components.

    Component order (u, d_t u, d_1 u, ..., d_d u); weights are the
    coefficients of the sign-indexed half-wave at frequency z.
    """
    z = np.asarray(z, dtype=float)
    L = lam(z)
    w = np.empty((spec.nz,) + z.shape[:-1], dtype=complex)
    w[0] = -0.5j * sign / L
    w[1] = 0.5
    for j in range(spec.d):
        w[2 + j] = 0.5 * sign * z[..., j] / L
    return w


def a_kernel(spec: NonlinearitySpec, mu: int, nu: int) -> BilinearSymbol:
    """Quadratic interaction kernel of the nonlinearity, derived mechanically.

    Slot 1 carries the coefficient fields of the quasilinear terms (and
    the first factor of the quadratic form); slot 2 carries the
    second-derivative factor.
    """
    _check_sign(mu), _check_sign(nu)

    def fn(z1, z2):
        z1 = np.asarray(z1, dtype=float)
        z2 = np.asarray(z2, dtype=float)
        w1 = _slot_weights(spec, mu, z1)
        w2 = _slot_weights(spec, nu, z2)
        L2 = lam(z2)
        q0 = np.tensordot(spec.q0, w1, axes=(1, 0))        # (d, ...)
        qjl = np.tensordot(spec.qjl, w1, axes=(2, 0))      # (d, d, ...)
        out = np.zeros(np.broadcast(w1[0], w2[0]).shape, dtype=complex)
        for j in range(spec.d):
            out = out + 2.0 * q0[j] * (0.5j * z2[..., j])
            for l in range(spec.d):
                out = out + qjl[j, l] * (0.5j * nu * z2[..., j] * z2[..., l] / L2)
        out = out + np.einsum("c...,cd,d...->...", w1, spec.s, w2)
        return out

    return BilinearSymbol(fn)


def semilinear_symbol(mu: int, nu: int) -> BilinearSymbol:
    """Energy-functional kernel with the near-diagonal cone removed.

    -i Phi^{-1} [1 - cut(|z1| / |z1 + 2 z2|) - cut(|z2| / |2 z1 + z2|)]
    with cut = cutoffs.para_cut, the low cutoff of the Weyl quantization
    (ratio rules 0/0 := 0, x/0 := inf).
    """
    _check_sign(mu), _check_sign(nu)

    def fn(z1, z2):
        z1 = np.asarray(z1, dtype=float)
        z2 = np.asarray(z2, dtype=float)
        bracket = (1.0 - para_cut(np.linalg.norm(z1, axis=-1),
                                  np.linalg.norm(z1 + 2.0 * z2, axis=-1))
                   - para_cut(np.linalg.norm(z2, axis=-1),
                              np.linalg.norm(2.0 * z1 + z2, axis=-1)))
        return -1j * phi_inv(mu, nu, z1, z2) * bracket

    return BilinearSymbol(fn)


# scale below which the high-pass factor of the quasilinear kernel
# vanishes: equals 1 on the plateau of the innermost dyadic cutoff
_HIGHPASS_SCALE = 0.64


def quasilinear_symbol(N: int) -> BilinearSymbol:
    """Commutator kernel of the weighted energy functional.

    cut(|z1| / |z1 + 2 z2|) n2(z2) n3(z1+z2)
        [n4(z1+z2) n5(z2) - n4((z1+2 z2)/2) n5((z1+2 z2)/2)]

    with cut = cutoffs.para_cut, n4 = <.>^N, n5 = <.>^{N+1}, and n2, n3
    the high-pass factors that vanish on the lowest dyadic block.
    """

    def highpass(z):
        return 1.0 - psi(np.linalg.norm(z, axis=-1) / _HIGHPASS_SCALE)

    def fn(z1, z2):
        z1 = np.asarray(z1, dtype=float)
        z2 = np.asarray(z2, dtype=float)
        cut = para_cut(np.linalg.norm(z1, axis=-1), np.linalg.norm(z1 + 2.0 * z2, axis=-1))
        mid = 0.5 * (z1 + 2.0 * z2)
        main = lam(z1 + z2) ** N * lam(z2) ** (N + 1) - lam(mid) ** N * lam(mid) ** (N + 1)
        return cut * highpass(z2) * highpass(z1 + z2) * main

    return BilinearSymbol(fn)


def resonant_kernel(base: BilinearSymbol, mu: int, nu: int) -> BilinearSymbol:
    """Phi^{-1}_{mu nu} times a bilinear kernel."""
    _check_sign(mu), _check_sign(nu)

    def fn(z1, z2):
        return phi_inv(mu, nu, np.asarray(z1, float),
                       np.asarray(z2, float)) * base(z1, z2)

    return BilinearSymbol(fn)


def b_kernel(spec: NonlinearitySpec, mu: int, sigma: int, iota: int) -> TrilinearSymbol:
    """Cubic profile kernel of a nonlinearity, with sign-resolved quadratic kernels."""
    for s in (mu, sigma, iota):
        _check_sign(s)
    a_in = a_kernel(spec, sigma, iota)
    a_out = {(m, n): a_kernel(spec, m, n) for m in (1, -1) for n in (1, -1)}

    def fn(z1, z2, z3):
        z1 = np.asarray(z1, dtype=float)
        z2 = np.asarray(z2, dtype=float)
        z3 = np.asarray(z3, dtype=float)
        eta = z2 + z3
        acc = 0.0
        for nu in (1, -1):
            acc = acc + phi_inv(mu, nu, z1, eta) * a_out[(mu, nu)](z1, eta)
            acc = acc + phi_inv(nu, mu, eta, z1) * a_out[(nu, mu)](eta, z1)
        return a_in(z2, z3) * acc

    return TrilinearSymbol(fn)


# ---------------------------------------------------------------------------
# pseudoproduct application

def _shared_grid(*fields) -> Grid:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ValueError("fields must share a grid")
    return grid


# largest kernel table a Pseudoproduct builds, in entries
_MAX_KERNEL_ENTRIES = 30_000_000


def _box_support(grid: Grid, support: np.ndarray | None):
    """(mask, modes) of a support restricted to the 2/3 box.

    mask is support & the dealias mask (the whole box when support is
    None); modes are its integer mode vectors (ns, d) in the fixed
    order in which mask indexes a coefficient array.
    """
    mask = grid.dealias_mask if support is None else grid.dealias_mask & support
    idx = np.argwhere(mask)
    modes = np.stack([grid.mode_axes[a][idx[:, a]] for a in range(grid.d)],
                     axis=-1).astype(np.int64)
    return mask, modes


def _box_targets(grid: Grid, targets: np.ndarray):
    """(keep, flat) for integer target modes (..., d): keep marks the
    targets inside the 2/3 box |k_a| <= n // 3, and flat holds the kept
    targets' indices into the flattened coefficient array."""
    keep = np.all(np.abs(targets) <= grid.n // 3, axis=-1)
    flat = np.ravel_multi_index(tuple((targets[keep] % grid.n).T), grid.shape)
    return keep, flat


class Pseudoproduct:
    """B_m (two operands) or T_b (three) with its kernel tabulated once
    on fixed coefficient supports (None is the whole 2/3 box).

    The trailing operands pair first and their mode sum is kept inside
    the box; that sum is combined with the first operand's modes and
    truncated again.  So a unit kernel reproduces the dealiased product
    f*g, or the right-associated f*(g*h).  apply is one scatter of
    kernel times coefficients onto the output modes.
    """

    def __init__(self, kernel, grid: Grid, *supports):
        if len(supports) not in (2, 3):
            raise ValueError(f"a pseudoproduct takes 2 or 3 operands, got {len(supports)}")
        self.grid = grid
        boxes = [_box_support(grid, s) for s in supports]
        self._masks = [mask for mask, _ in boxes]
        fm, *rest = [modes for _, modes in boxes]
        # row-major index tuples into the trailing operands' modes
        idx = np.indices([m.shape[0] for m in rest]).reshape(len(rest), -1)
        eta = sum(m[i] for m, i in zip(rest, idx))
        keep, _ = _box_targets(grid, eta)
        self._idx, eta = idx[:, keep], eta[keep]
        shape = (fm.shape[0], eta.shape[0])
        if shape[0] * shape[1] > _MAX_KERNEL_ENTRIES:
            raise ValueError("kernel table too large; restrict the supports")
        zs = [np.broadcast_to((fm * grid.dxi)[:, None, :], shape + (grid.d,))]
        zs += [np.broadcast_to((m[i] * grid.dxi)[None, :, :], zs[0].shape)
               for m, i in zip(rest, self._idx)]
        self._table = np.asarray(kernel(*zs), dtype=complex)
        self._keep, self._flat = _box_targets(grid, fm[:, None, :] + eta[None, :, :])

    def apply(self, *fields: Field) -> Field:
        if len(fields) != len(self._masks):
            raise ValueError(f"this pseudoproduct takes {len(self._masks)} fields, "
                             f"got {len(fields)}")
        grid = _shared_grid(*fields)
        if grid != self.grid:
            raise ValueError("fields do not match the kernel grid")
        fv, *rest = [f.coeffs[mask] for f, mask in zip(fields, self._masks)]
        pair = rest[0][self._idx[0]]
        for vals, i in zip(rest[1:], self._idx[1:]):
            pair = pair * vals[i]
        vals = (self._table * fv[:, None] * pair[None, :])[self._keep]
        out = np.zeros(grid.shape, dtype=complex)
        np.add.at(out.reshape(-1), self._flat, vals)
        return Field.from_spectrum(grid, out)


def bilinear_apply(m, f: Field, g: Field) -> Field:
    """B_m(f, g), one-shot on the inputs' nonzero supports; m = 1
    reproduces dealiased f*g."""
    return Pseudoproduct(m, _shared_grid(f, g), f.coeffs != 0, g.coeffs != 0).apply(f, g)


def trilinear_apply(b, f: Field, g: Field, h: Field) -> Field:
    """T_b(f, g, h), one-shot on the inputs' nonzero supports; b = 1
    reproduces the right-associated dealiased product f*(g*h)."""
    return Pseudoproduct(b, _shared_grid(f, g, h), f.coeffs != 0, g.coeffs != 0,
                         h.coeffs != 0).apply(f, g, h)
