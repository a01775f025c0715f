"""The pseudoproduct oracles on their own: unit kernels against the
dealiased product, and each oracle against its literal sum written as
plain loops, down to the kernel points it evaluates."""

import numpy as np
import pytest

from kglab.data import make_rng, random_band_field
from kglab.grid import Field, make_grid
from kglab.oracles import bilinear_oracle, trilinear_oracle
from kglab.spectral import dealiased_product

TINY_GRIDS = [(1, 16), (2, 8)]


def _grid(d, n):
    return make_grid(d, n, np.pi)


def _rel(got: Field, want: Field) -> float:
    return (got - want).l2() / want.l2()


def _weight(*mode_sums):
    """A kernel value from each slot's mode-component sum; it tells the
    slots apart and varies along each one."""
    return 1.0 + 0.25 * sum((slot + 1) * s for slot, s in enumerate(mode_sums))


class Recorder:
    """Kernel _weight that logs each call's frequency points as integer modes."""

    def __init__(self, dxi):
        self.dxi = dxi
        self.calls = []

    def __call__(self, *zs):
        modes = [np.rint(z / self.dxi).astype(int) for z in zs]
        self.calls.append([tuple(map(tuple, pt)) for pt in zip(*modes)])
        return _weight(*(m.sum(axis=-1) for m in modes))

    def points(self):
        return [pt for call in self.calls for pt in call]


def _sparse(field, rng, keep=0.5):
    """Zero about half of a field's coefficients, so the zero filters act."""
    mask = rng.random(field.grid.shape) < keep
    return Field.from_coeffs(field.grid, np.where(mask, field.coeffs, 0.0))


def _box_modes(grid, c):
    """(mode vector, coefficient) of every box mode, in index order."""
    modes = grid.mode_tuples()
    coeffs = c.coeffs.reshape(-1)
    box = grid.dealias_mask.ravel()
    return [(tuple(modes[j]), coeffs[j]) for j in range(grid.npoints) if box[j]]


def _in_box(grid, mode):
    return max(abs(k) for k in mode) <= grid.n // 3


@pytest.mark.parametrize("d,n", TINY_GRIDS)
def test_unit_bilinear_oracle_is_the_dealiased_product(d, n):
    grid = _grid(d, n)
    rng = make_rng(71)
    f, g = (random_band_field(grid, rng, real=False) for _ in range(2))
    got = bilinear_oracle(lambda z1, z2: np.ones(z1.shape[:-1]), f, g)
    assert _rel(got, dealiased_product(f, g)) <= 1e-13


@pytest.mark.parametrize("d,n", TINY_GRIDS)
def test_unit_trilinear_oracle_is_the_right_associated_product(d, n):
    grid = _grid(d, n)
    rng = make_rng(72)
    f, g, h = (random_band_field(grid, rng, real=False) for _ in range(3))
    got = trilinear_oracle(lambda z1, z2, z3: np.ones(z1.shape[:-1]), f, g, h)
    want = dealiased_product(f, dealiased_product(g, h))
    assert _rel(got, want) <= 1e-13


def _literal(grid, terms) -> Field:
    """Field from (output mode, term) pairs, summed in plain Python."""
    out = np.zeros(grid.shape, dtype=complex)
    for mode, term in terms:
        out[tuple(k % grid.n for k in mode)] += term
    return Field.from_coeffs(grid, out)


@pytest.mark.parametrize("d,n", TINY_GRIDS)
def test_bilinear_oracle_is_the_literal_sum_at_the_literal_points(d, n):
    grid = _grid(d, n)
    rng = make_rng(73)
    f, g = (_sparse(random_band_field(grid, rng, real=False), rng) for _ in range(2))
    fc = dict(_box_modes(grid, f))
    rows, points, terms = 0, [], []
    for xi, _ in _box_modes(grid, f):
        row = []
        for eta, gc in _box_modes(grid, g):
            diff = tuple(a - b for a, b in zip(xi, eta))
            if gc != 0 and _in_box(grid, diff) and fc[diff] != 0:
                row.append((diff, eta))
                terms.append((xi, _weight(sum(diff), sum(eta)) * fc[diff] * gc))
        rows += bool(row)
        points += row
    kernel = Recorder(grid.dxi)
    got = bilinear_oracle(kernel, f, g)
    assert kernel.points() == points
    assert len(kernel.calls) == rows
    assert _rel(got, _literal(grid, terms)) <= 1e-13


@pytest.mark.parametrize("d,n", TINY_GRIDS)
def test_trilinear_oracle_is_the_literal_sum_at_the_literal_points(d, n):
    grid = _grid(d, n)
    rng = make_rng(74)
    f, g, h = (_sparse(random_band_field(grid, rng, real=False), rng) for _ in range(3))
    rows, points, terms = 0, [], []
    for t1, fc in _box_modes(grid, f):
        row = []
        for t2, gc in _box_modes(grid, g):
            for t3, hc in _box_modes(grid, h):
                eta = tuple(a + b for a, b in zip(t2, t3))
                total = tuple(a + b for a, b in zip(t1, eta))
                if fc * gc * hc != 0 and _in_box(grid, eta) and _in_box(grid, total):
                    row.append((t1, t2, t3))
                    terms.append((total, _weight(sum(t1), sum(t2), sum(t3)) * fc * gc * hc))
        rows += bool(row)
        points += row
    kernel = Recorder(grid.dxi)
    got = trilinear_oracle(kernel, f, g, h)
    assert kernel.points() == points
    assert len(kernel.calls) == rows
    assert _rel(got, _literal(grid, terms)) <= 1e-13


@pytest.mark.parametrize("d,n", TINY_GRIDS)
def test_a_zero_operand_gives_exact_zeros_and_no_kernel_call(d, n):
    grid = _grid(d, n)
    rng = make_rng(75)
    live = [random_band_field(grid, rng, real=False) for _ in range(3)]
    zero = Field.zero(grid)
    for slot in range(2):
        args = [zero if k == slot else live[k] for k in range(2)]
        kernel = Recorder(grid.dxi)
        assert not np.any(bilinear_oracle(kernel, *args).coeffs)
        assert kernel.calls == []
    for slot in range(3):
        args = [zero if k == slot else live[k] for k in range(3)]
        kernel = Recorder(grid.dxi)
        assert not np.any(trilinear_oracle(kernel, *args).coeffs)
        assert kernel.calls == []
