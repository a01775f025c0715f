"""Property tests: identities that must hold on every grid and input."""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kglab.config import EXPERIMENT_IDS, ExperimentConfig, parse_config
from kglab.data import make_rng, random_band_field
from kglab.grid import Field, make_grid
from kglab.paradiff import Symbol, weyl_apply
from kglab.resonance import BilinearSymbol, bilinear_apply
from kglab.spectral import dealiased_product

GRID_SIZES = st.sampled_from([(1, 8), (1, 32), (1, 128), (2, 8), (2, 16), (3, 8)])
HALF_LENGTHS = st.floats(min_value=1e-3, max_value=1e3)
PARTS = st.floats(min_value=-1e3, max_value=1e3)


@st.composite
def field_arrays(draw, count):
    d, n = draw(GRID_SIZES)
    grid = make_grid(d, n, draw(HALF_LENGTHS))
    shape = (2,) + grid.shape
    return grid, [draw(arrays(float, shape, elements=PARTS)) for _ in range(count)]


def _complex(parts):
    return parts[0] + 1j * parts[1]


def _binary_exponent(arr) -> int:
    """e with max |arr| in [2^(e-1), 2^e), or 0 for an all-zero array."""
    return int(np.frexp(np.max(np.abs(arr)))[1])


def _l2(arr, weight) -> float:
    """sqrt(weight * sum |arr|^2), squared after an exact power-of-two
    scaling, so that no |arr|^2 underflows below the normal range."""
    e = _binary_exponent(arr)
    scaled = np.ldexp(np.abs(arr), -e)
    return math.ldexp(math.sqrt(weight * np.sum(scaled * scaled)), e)


def _unit_scaled(f: Field) -> Field:
    """f times the power of two that puts its largest coefficient in
    [1/2, 1): exact, and it keeps a product of two fields out of the
    subnormal range, where float64 carries too few bits for any relative
    bound."""
    e = _binary_exponent(f.coeffs)
    half = -e // 2  # two factors, as 2^-e alone can overflow
    return f * 2.0 ** half * 2.0 ** (-e - half)


# a field at 2.2e-162: every |c_m|^2 underflows to 0 unless scaled first
_TINY = np.zeros((2, 8))
_TINY[0, 0] = 2.18e-162


@settings(max_examples=60, deadline=None)
@given(field_arrays(1))
@example((make_grid(1, 8, 3.0), [_TINY]))
def test_parseval(case):
    grid, (parts,) = case
    f = Field.from_values(grid, _complex(parts))
    phys = _l2(f.values, grid.quad_weight)
    freq = _l2(f.coeffs, grid.volume)
    assert math.isclose(phys, freq, rel_tol=1e-12, abs_tol=1e-300)


UNIT = BilinearSymbol(lambda z1, z2: np.ones(z1.shape[:-1]))


@settings(max_examples=40, deadline=None)
@given(field_arrays(2), st.booleans())
# every coefficient 2.6e-161 (1 + i): each product lands in the subnormal
# range unless the operands are scaled first
@example((make_grid(1, 8, 1.0), [np.full((2, 8), 2.61942413e-161)] * 2), True)
def test_bilinear_apply_with_unit_symbol_is_the_dealiased_product(case, in_coeffs):
    grid, (fp, gp) = case
    build = Field.from_spectrum if in_coeffs else Field.from_values
    f, g = (_unit_scaled(build(grid, _complex(parts))) for parts in (fp, gp))
    want = dealiased_product(f, g).coeffs
    got = bilinear_apply(UNIT, f, g).coeffs
    # each product coefficient is a convolution sum, bounded by the l1 norms
    scale = np.sum(np.abs(f.coeffs)) * np.sum(np.abs(g.coeffs))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@st.composite
def band_fields(draw):
    d, n = draw(st.sampled_from([(1, 16), (1, 32), (1, 64), (2, 8), (2, 16)]))
    grid = make_grid(d, n, draw(HALF_LENGTHS))
    k_lo = draw(st.integers(-1, grid.k_top))
    k_hi = draw(st.integers(k_lo, grid.k_top))
    rng = make_rng(draw(st.integers(0, 2**32)))
    return random_band_field(grid, rng, k_lo=k_lo, k_hi=k_hi, real=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(band_fields())
def test_weyl_quantization_of_one_is_the_identity(f):
    got = weyl_apply(Symbol.one(f.grid), f)
    assert (got - f).l2() <= 1e-14 * f.l2()


FLOATS = st.floats(allow_nan=True, allow_infinity=True)
POSITIVE = st.floats(min_value=5e-324, max_value=1e300)


@st.composite
def configs(draw):
    t0 = draw(POSITIVE)
    fields = dict(
        experiment=draw(st.sampled_from(EXPERIMENT_IDS)),
        dim=draw(st.integers(1, 3)),
        n=draw(st.sampled_from([8, 16, 64, 256])),
        box=draw(POSITIVE),
        seed=draw(st.integers(0, 2**40)),
        eps=tuple(draw(st.lists(POSITIVE, min_size=1, max_size=3))),
        t0=t0,
        t1=draw(st.floats(min_value=t0, exclude_min=True, allow_infinity=False)),
        dt=draw(st.floats(min_value=0.0, max_value=1e3)),
        checkpoints=draw(st.integers(2, 10**6)),
        schedule=draw(st.sampled_from(["log", "linear"])),
        band_lo=draw(st.integers(-1, 3)),
        envelope=draw(FLOATS),
        alpha=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                             exclude_max=True)),
        coeff_alpha=draw(FLOATS),
        coeff_gamma_u=draw(FLOATS),
        signs=tuple(draw(st.lists(st.sampled_from(["++", "+-", "-+", "--"]),
                                  min_size=1, max_size=4))),
        rule=draw(st.sampled_from(["simpson", "trapezoid"])),
        fit_hi=draw(FLOATS),
        include_tail=draw(st.booleans()),
        out=draw(st.text(max_size=12)),
        workers=draw(st.integers(0, 64)),
    )
    fields["band_hi"] = fields["band_lo"] + draw(st.integers(0, 4))
    try:
        return ExperimentConfig(**fields)
    except ValueError:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(configs())
def test_canonical_text_parses_back_to_the_same_config(cfg):
    assert parse_config(cfg.canonical()) == cfg
