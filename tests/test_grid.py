"""Grid geometry, the coefficient convention, and Field arithmetic."""

from types import SimpleNamespace

import numpy as np
import pytest

from kglab.data import make_rng, random_band_field
from kglab.dynamics import KGState
from kglab import grid as grid_module
from kglab.grid import Field, make_grid
from kglab.oracles import fd_gradient_oracle
from kglab.spectral import (dealias, dealiased_product, derivative, lambda_power, laplacian,
                            lp_interval, lp_low, lp_project, q_shell, semigroup)


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(4, 16, 1.0)
    with pytest.raises(ValueError):
        make_grid(1, 12, 1.0)  # not a power of two
    with pytest.raises(ValueError):
        make_grid(1, 4, 1.0)  # too small
    with pytest.raises(ValueError):
        make_grid(1, 16, 0.0)


def test_a_grid_is_its_d_n_and_L():
    g = make_grid(1, 16, 3.0)
    same = make_grid(1, 16, 3)
    assert g == same and g is not same
    assert hash(g) == hash(same)
    assert {g: "tables"}[same] == "tables"
    for other in (make_grid(2, 16, 3.0), make_grid(1, 32, 3.0), make_grid(1, 16, 3.5)):
        assert g != other
    assert len({g, same, make_grid(1, 16, 3.5)}) == 2


def test_lattice_spacings():
    g = make_grid(2, 16, 2 * np.pi)
    assert g.dx == pytest.approx(2 * (2 * np.pi) / 16)
    assert g.dxi == pytest.approx(0.5)
    assert g.nyquist == pytest.approx(4.0)
    assert g.volume == pytest.approx((4 * np.pi) ** 2)
    assert g.shape == (16, 16)


def test_coefficient_convention_is_forward_fft():
    # the documented normalization: coeffs = fftn(values) / n^d, so a
    # pure index-space mode exp(2 pi i m j / n) is one-hot at index m
    g = make_grid(1, 32, np.pi)
    m = 3
    j = np.arange(g.n)
    f = Field.from_values(g, np.exp(2j * np.pi * m * j / g.n))
    c = f.coeffs
    assert abs(c[m] - 1.0) < 1e-13
    c_rest = c.copy()
    c_rest[m] = 0.0
    assert np.max(np.abs(c_rest)) < 1e-13
    # physical coordinates start at -L: the same mode written as a
    # function of x carries the boundary phase exp(-i xi_m L)
    x = g.x_axes[0]
    h = Field.from_values(g, np.exp(1j * m * g.dxi * x))
    assert abs(h.coeffs[m] - np.exp(-1j * m * g.dxi * g.L)) < 1e-13


def test_coeffs_match_raw_fftn():
    g = make_grid(2, 16, 2.0)
    rng = make_rng(1)
    v = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    f = Field.from_values(g, v)
    assert np.allclose(f.coeffs, np.fft.fftn(v) / g.npoints, rtol=0, atol=1e-15)


def test_round_trip_values_coeffs():
    g = make_grid(2, 16, 1.0)
    rng = make_rng(0)
    v = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    f = Field.from_values(g, v)
    back = Field.from_spectrum(g, f.coeffs)
    assert np.max(np.abs(back.values - v)) < 1e-12


def test_parseval():
    g = make_grid(1, 64, 3.0)
    rng = make_rng(1)
    f = Field.from_values(g, rng.standard_normal(g.shape))
    phys = np.sqrt(g.quad_weight * np.sum(np.abs(f.values) ** 2))
    freq = np.sqrt(g.volume * np.sum(np.abs(f.coeffs) ** 2))
    assert phys == pytest.approx(freq, rel=1e-12)
    assert f.l2() == pytest.approx(phys, rel=1e-12)


def test_field_arithmetic():
    g = make_grid(1, 16, 1.0)
    rng = make_rng(2)
    f = random_band_field(g, rng)
    h = random_band_field(g, rng)
    s = f + h
    assert np.allclose(s.values, f.values + h.values)
    assert np.allclose((f - h).values, f.values - h.values)
    assert np.allclose((f * 2.5).values, 2.5 * f.values)
    assert np.allclose((-f).values, -f.values)
    assert np.allclose(f.conj().values, np.conj(f.values))


def test_cached_arrays_are_read_only():
    g = make_grid(1, 16, 1.0)
    f = random_band_field(g, make_rng(3))
    fresh = Field.from_values(g, np.ones(g.shape, dtype=complex))
    scaled = Field.from_spectrum(g, f.coeffs) * 2.0
    _ = scaled.values  # both caches filled
    for arr in (f.values, f.coeffs, fresh.values, fresh.coeffs,
                (f * 3.0).coeffs, (scaled * 0.5).values):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_field_takes_ownership_of_its_array():
    # an array of the field's dtype is stored as is, not copied
    g = make_grid(1, 16, 1.0)
    spectra = [np.zeros(g.shape, dtype=complex), np.zeros(g.half_shape, dtype=complex)]
    values = [np.zeros(g.shape), np.zeros(g.shape, dtype=complex)]
    fields = [Field.from_spectrum(g, a) for a in spectra] + [Field.from_values(g, a) for a in values]
    for f, arr in zip(fields, spectra + values):
        assert f._coeffs is arr or f._values is arr
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_is_zero_reads_the_cache_and_counts_nan_as_live(fft_calls):
    g = make_grid(2, 8, 1.0)
    assert Field.zero(g).is_zero()
    assert Field.from_values(g, np.zeros(g.shape)).is_zero()
    assert not Field.one(g).is_zero()
    nan = np.zeros(g.shape)
    nan[1, 2] = np.nan
    assert not Field.from_values(g, nan).is_zero()
    assert not Field.from_spectrum(g, nan).is_zero()
    assert fft_calls == {"fftn": 0, "ifftn": 0}


def test_zero_is_held_in_coefficient_space(fft_calls):
    g = make_grid(1, 16, 1.0)
    f = Field.from_spectrum(g, np.arange(g.n, dtype=complex))
    total = Field.zero(g) + f
    assert np.array_equal(total.coeffs, f.coeffs)
    assert fft_calls == {"fftn": 0, "ifftn": 0}


def test_zero_fields_share_one_read_only_array_per_shape():
    g = make_grid(2, 16, 1.0)
    zero = Field.zero(g)
    assert zero.coeffs is Field.zero(g).coeffs
    assert zero.coeffs is Field.zero(make_grid(2, 16, 3.0)).coeffs
    assert zero.coeffs is not Field.zero(make_grid(2, 32, 1.0)).coeffs
    with pytest.raises(ValueError):
        zero.coeffs[0, 0] = 1.0
    f = random_band_field(g, make_rng(3))
    for out in (zero + f, f + zero, zero - f, zero * 2.0):
        assert out.coeffs is not zero.coeffs
    assert np.array_equal((zero + f).coeffs, f.coeffs)
    assert not np.any(zero.coeffs)


@pytest.fixture
def mallopt_calls(monkeypatch):
    """Record the mallopt calls of grid._hold_heap, in a process that has
    set nothing yet."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(grid_module, "_glibc_mallopt", lambda: mallopt)
    monkeypatch.setattr(grid_module, "_held", {})
    return calls


def test_hold_heap_leaves_small_grids_alone(mallopt_calls):
    grid_module._hold_heap(make_grid(1, 256, 1.0))
    grid_module._hold_heap(make_grid(2, 32, 1.0))
    assert mallopt_calls == []


def test_hold_heap_sizes_the_trim_from_the_grid_and_never_lowers(mallopt_calls):
    mmap, trim = grid_module._M_MMAP_THRESHOLD, grid_module._M_TRIM_THRESHOLD
    grid_module._hold_heap(make_grid(2, 128, 1.0))  # A = 256 KiB
    assert mallopt_calls == [(mmap, 32 << 20), (trim, 8 << 20)]
    grid_module._hold_heap(make_grid(2, 128, 5.0))
    grid_module._hold_heap(make_grid(2, 64, 1.0))
    assert len(mallopt_calls) == 2
    assert grid_module._held == {mmap: 32 << 20, trim: 8 << 20}
    grid_module._hold_heap(make_grid(3, 64, 1.0))  # A = 4 MiB
    assert mallopt_calls[2:] == [(trim, 128 << 20)]


def test_hold_heap_clamps_to_what_mallopt_takes(mallopt_calls):
    mmap, trim = grid_module._M_MMAP_THRESHOLD, grid_module._M_TRIM_THRESHOLD
    # only npoints is read, so no 3-D n=128 or 256 grid is built
    grid_module._hold_heap(SimpleNamespace(npoints=128**3))  # A = 32 MiB
    assert mallopt_calls == [(mmap, 32 << 20), (trim, 1 << 30)]
    grid_module._hold_heap(SimpleNamespace(npoints=256**3))  # 32A overflows a C int
    assert mallopt_calls[2:] == [(trim, (1 << 31) - 1)]


def test_hold_heap_is_a_no_op_off_glibc(monkeypatch):
    def no_glibc(name):
        raise ValueError(f"unrecognized configuration name: {name}")

    monkeypatch.setattr(grid_module, "_held", {})
    monkeypatch.setattr(grid_module.os, "confstr", no_glibc)
    grid_module._glibc_mallopt.cache_clear()
    try:
        assert grid_module._glibc_mallopt() is None
        grid_module._hold_heap(make_grid(3, 64, 1.0))
    finally:
        grid_module._glibc_mallopt.cache_clear()
    assert grid_module._held == {}


def test_field_product_guard():
    g = make_grid(1, 16, 1.0)
    f = Field.one(g)
    with pytest.raises(TypeError):
        f * f  # pointwise products must go through the 2/3 rule


def test_grid_mismatch_guard():
    f = Field.one(make_grid(1, 16, 1.0))
    h = Field.one(make_grid(1, 16, 2.0))
    with pytest.raises(ValueError):
        f + h


def test_kind_follows_the_array():
    # real (float or integer) values and an rfftn half give a real field,
    # complex values and a full coefficient array a complex one
    g = make_grid(2, 16, 1.0)
    rng = make_rng(3)
    v = rng.standard_normal(g.shape)
    z = v + 1j * rng.standard_normal(g.shape)
    table = [
        ("float values", Field.from_values(g, v), True),
        ("integer values", Field.from_values(g, np.arange(g.npoints).reshape(g.shape)), True),
        ("complex values", Field.from_values(g, z), False),
        ("half", Field.from_spectrum(g, np.fft.rfftn(v, norm="forward")), True),
        ("full array", Field.from_spectrum(g, np.fft.fftn(v, norm="forward")), False),
    ]
    for name, f, real in table:
        assert f.real is real, name
        assert f.values.dtype == (np.float64 if real else np.complex128), name
        assert f.spectrum().shape == (g.half_shape if real else g.shape), name
    # complex values keep their imaginary part, through the spectrum too
    assert np.array_equal(table[2][1].values, z)
    back = Field.from_spectrum(g, table[2][1].coeffs).values
    assert np.max(np.abs(back - z)) <= 1e-14 * np.max(np.abs(z))
    assert not (random_band_field(g, rng) * 1j + Field.one(g)).real


@pytest.mark.parametrize("d,n,shape", [(1, 16, (16, 1)), (1, 16, (8,)), (2, 16, (16, 8)),
                                       (2, 16, (9, 16)), (3, 8, (8, 8))])
def test_any_other_spectrum_shape_raises_and_names_both_shapes(d, n, shape):
    g = make_grid(d, n, 1.0)
    with pytest.raises(ValueError) as err:
        Field.from_spectrum(g, np.zeros(shape, dtype=complex))
    message = str(err.value)
    assert str(shape) in message
    assert str(g.half_shape) in message and str(g.shape) in message


def test_fields_are_built_only_through_the_named_constructors():
    g = make_grid(1, 16, 1.0)
    with pytest.raises(TypeError):
        Field(g, np.zeros(g.shape))
    assert not hasattr(Field, "from_coeffs")


def test_band_indices_cover_lattice():
    g = make_grid(2, 64, 8 * np.pi)
    # every lattice frequency is inside psi_le(k_top)
    ximax = float(g.xi_mags.max())
    assert ximax <= 1.25 * 2.0**g.k_top + 1e-12
    assert g.k_max <= g.k_top


def _negated(c):
    """c at the negated modes, c[-m] for every lattice index m."""
    return c[np.ix_(*[(-np.arange(k)) % k for k in c.shape])]


@pytest.mark.parametrize("d,n", [(1, 256), (2, 128), (3, 32)])
def test_complex_transforms_fold_the_scale_into_pocketfft_bitwise(d, n):
    # norm="forward" scales by 1/n per axis inside pocketfft; n is a power
    # of two, so that is bitwise the old explicit * npoints and / npoints
    g = make_grid(d, n, 1.0)
    rng = make_rng(7)
    c = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    v = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    assert np.array_equal(Field.from_spectrum(g, c).values, np.fft.ifftn(c) * g.npoints)
    assert np.array_equal(Field.from_values(g, v).coeffs, np.fft.fftn(v) / g.npoints)


@pytest.mark.parametrize("d,n", [(1, 256), (2, 64), (2, 128), (3, 16), (3, 32)])
def test_real_field_is_exactly_hermitian_and_matches_the_complex_route(d, n):
    g = make_grid(d, n, 1.0)
    v = make_rng(8).standard_normal(g.shape)
    real, cplx = Field.from_values(g, v), Field.from_values(g, v.astype(complex))
    c = real.coeffs
    assert np.array_equal(c, np.conj(_negated(c)))
    assert np.max(np.abs(c - cplx.coeffs)) <= 1e-14 * np.max(np.abs(c))
    back = Field.from_spectrum(g, g.half(cplx.coeffs)).values
    assert back.dtype == np.float64
    assert np.max(np.abs(back - cplx.values)) <= 1e-14 * np.max(np.abs(v))


def test_realness_propagates_as_documented():
    g = make_grid(2, 16, 4.0)
    rng = make_rng(9)
    f = random_band_field(g, rng)
    h = Field.from_values(g, random_band_field(g, rng).values)
    z = random_band_field(g, rng, real=False)
    st = KGState(g, 0.0, f, h)
    table = [
        ("real + real", f + h, True),
        ("real - real", f - h, True),
        ("real + complex", f + z, False),
        ("full spectrum", Field.from_spectrum(g, f.coeffs), False),
        ("real * float", f * 2.5, True),
        ("real * int", h * 3, True),
        ("-real", -h, True),
        ("real * 1j", f * 1j, False),
        ("real * complex(1)", h * complex(1.0), False),
        ("real * np.complex64(1)", h * np.complex64(1.0), False),
        ("conj", f.conj(), True),
        ("dealias", dealias(h), True),
        ("derivative", derivative(f, 1), True),
        ("laplacian", laplacian(f), True),
        ("lambda_power", lambda_power(f, -1.5), True),
        ("lp_project", lp_project(f, 0), True),
        ("lp_low", lp_low(f, 0), True),
        ("lp_interval", lp_interval(f, -1, 1), True),
        ("q_shell", q_shell(h, 0), True),
        ("product of two real", dealiased_product(f, h), True),
        ("product with complex", dealiased_product(f, z), False),
        ("semigroup", semigroup(f, 0.5), False),
        ("half_wave", st.half_wave(), False),
        ("zero", Field.zero(g), True),
        ("one", Field.one(g), True),
        ("complex derivative", derivative(z, 0), False),
        ("complex conj", z.conj(), False),
        ("fd_gradient_oracle", fd_gradient_oracle(h, 1), True),
        ("complex fd_gradient_oracle", fd_gradient_oracle(z, 0), False),
    ]
    for name, out, real in table:
        assert out.real is real, name
        assert out.values.dtype == (np.float64 if real else np.complex128), name


def _full_from_half(half, n):
    """The full Hermitian array of an rfftn half, entry by entry: the last
    axis' modes above n/2 are conjugate mirrors, and each entry of the
    self-mirror planes (last-axis modes 0 and n/2) is averaged with the
    conjugate of its mirror."""
    d, h = half.ndim, n // 2 + 1
    full = np.empty(half.shape[:-1] + (n,), dtype=complex)
    for m in np.ndindex(full.shape):
        mirror = tuple(-k % n for k in m)
        full[m] = half[m] if m[-1] < h else np.conj(half[mirror])
    if d > 1:
        ends = full.copy()
        for m in np.ndindex(full.shape):
            if m[-1] in (0, n // 2):
                ends[m] = (full[m] + np.conj(full[tuple(-k % n for k in m)])) * 0.5
        full = ends
    return full


@pytest.mark.parametrize("d,n", [(1, 32), (2, 16), (3, 8)])
def test_real_field_stores_its_rfftn_half(d, n):
    # from values and from its half, a real field keeps the
    # n^(d-1) x (n/2+1) half, its coeffs are bitwise the full array that
    # the half completes to, and a state holds the field it is given
    g = make_grid(d, n, 2.0)
    v = make_rng(20).standard_normal(g.shape)
    from_values = Field.from_values(g, v)
    assert from_values._coeffs is None
    full = _full_from_half(np.fft.rfftn(v, norm="forward"), n)
    assert np.array_equal(full, np.conj(_negated(full)))
    assert from_values.coeffs.tobytes() == full.tobytes()
    assert from_values._coeffs.shape == g.half_shape
    assert from_values.spectrum() is from_values._coeffs
    from_half = Field.from_spectrum(g, g.half(full).copy())
    st = KGState(g, 0.0, from_half, from_values)
    assert st.u is from_half and st.w is from_values
    for f in (from_half, from_values):
        assert f._coeffs.shape == g.half_shape
        assert f._coeffs.tobytes() == g.half(full).tobytes()
        assert f.coeffs.tobytes() == full.tobytes()
        assert np.max(np.abs(f.values - v)) <= 1e-14 * np.max(np.abs(v))


def _real_multipliers(d):
    out = [("laplacian", laplacian), ("lambda_power", lambda f: lambda_power(f, -1.5)),
           ("lp_project", lambda f: lp_project(f, 1)), ("lp_low", lambda f: lp_low(f, 0)),
           ("lp_interval", lambda f: lp_interval(f, 0, 1)), ("dealias", dealias)]
    for axis in range(d):
        out.append((f"derivative-{axis}", lambda f, axis=axis: derivative(f, axis)))
        out.append((f"derivative-{axis}-{d - 1}",
                    lambda f, axis=axis: derivative(derivative(f, axis), d - 1)))
    return out


@pytest.mark.parametrize("d,n", [(1, 64), (2, 32), (3, 16)])
def test_real_multipliers_on_the_half_match_the_full_array_bitwise(d, n):
    g = make_grid(d, n, 3.0)
    f = Field.from_values(g, make_rng(21).standard_normal(g.shape))
    cplx = Field.from_spectrum(g, f.coeffs)  # the same full array, complex route
    for name, op in _real_multipliers(d):
        half, full = op(f), op(cplx)
        assert half.real and half._coeffs.shape == g.half_shape, name
        assert half._coeffs.tobytes() == g.half(full.coeffs).tobytes(), name


def test_real_sums_and_scalings_stay_on_the_half():
    # values-only and both-cached operands alike: the result is held as
    # coefficients alone, the operation on the stored halves
    g = make_grid(2, 16, 1.0)
    rng = make_rng(22)
    for cached in (False, True):
        f, h = (Field.from_values(g, rng.standard_normal(g.shape)) for _ in range(2))
        if cached:
            f.spectrum(), h.spectrum()
        # the results first, while f and h may still hold values alone
        outs, mixed = (f + h, f - h, f * 2.5), f * 1j
        wants = (f.coeffs + h.coeffs, f.coeffs - h.coeffs, f.coeffs * 2.5)
        for out, want in zip(outs, wants):
            assert out.real and out._values is None and out._coeffs.shape == g.half_shape
            assert out._coeffs.tobytes() == g.half(want).tobytes()
        assert not mixed.real and mixed._values is None and mixed._coeffs.shape == g.shape
        assert np.array_equal(mixed.coeffs, f.coeffs * 1j)


def test_a_square_scans_its_operand_once_and_zero_not_at_all(monkeypatch):
    scans = []

    class Scanned(np.ndarray):
        # np.any(a) dispatches to this method too, so either spelling counts
        def any(self, *args, **kwargs):
            scans.append(self)
            return super().any(*args, **kwargs)

    g = make_grid(2, 16, 1.0)
    values = make_rng(23).standard_normal(g.shape).view(Scanned)
    f = Field._new(g, True, grid_module._frozen(values), None)
    # every zero field of the grid holds one shared half, here a Scanned one
    zero_half = grid_module._frozen(np.zeros(g.half_shape, dtype=complex).view(Scanned))
    zero_coeffs = grid_module._zero_coeffs
    monkeypatch.setattr(grid_module, "_zero_coeffs",
                        lambda shape: zero_half if shape == g.half_shape else zero_coeffs(shape))
    zero = Field.zero(g)
    assert zero.spectrum() is zero_half
    assert zero.is_zero() and scans == []
    dealiased_product(zero, zero)
    assert scans == []
    dealiased_product(f, f)
    assert len(scans) == 1
