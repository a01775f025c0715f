"""Periodic box discretization and lazily transformed fields.

A :class:`Grid` is a uniform periodic box [-L, L)^d with n points per
axis (n a power of two) and frequency lattice {pi m / L}.  It compares
and hashes by (d, n, L) alone, so two grids built alike are equal and
tables cached per grid can be keyed by those three numbers.  A field is
stored in physical or frequency space, and the other representation is
computed once, on first use, and cached; the two are tied together by
the Fourier series convention

    f(x_j) = sum_m  c_m  exp(2 pi i j m / n),

i.e. ``coeffs = fftn(values, norm="forward")``, which puts the whole
1/n**d on the forward transform inside pocketfft.  With this convention
a frequency multiplier is a plain pointwise scale of ``coeffs`` and the
coefficient convolution theorem has no stray measure factors, which
fixes every operator normalization downstream.

A field is real (``Field.real``) when the array it is built from is:
real values, or an rfftn half of ``Grid.half_shape`` (see
:class:`Field`).  A real field holds float64 ``values`` and stores only
the ``rfftn`` half of its coefficients: last-axis modes 0..n/2, shape
n^(d-1) x (n/2+1), which fix the rest through c_{-m} = conj(c_m).  Its
transforms are the real ones, ``values = irfftn(half)`` and
``half = rfftn(values)`` (on a 1-D grid ``irfft`` and ``rfft``
themselves, which those call on one axis, so the bits are the same),
about half the cost of the complex pair, and a real multiplier, mask or
combination acts on the half alone (``Field.spectrum``).  The two
last-axis planes at modes 0 and n/2 are their own mirrors; a forward
transform symmetrizes them, so the half is exactly Hermitian.
``Field.coeffs`` still gives the full array: it completes the half by
conjugation on each call, for the reductions and mixed real-complex
arithmetic that read it.  Both read a mode's mirror by one rule,
``_mirrored``: every axis but the last at -m mod n.

Quadrature: physical integrals carry the weight (2L/n)^d, so the
squared L2 norm is also (2L)^d * sum |c_m|^2 (Parseval).

Heap: a time-stepping loop frees and reallocates the same grid-sized
temporaries every step.  glibc's dynamic malloc thresholds settle near
one grid array, so at the end of each step it hands the freed top of
the heap back to the kernel, and the next step faults it back in page
by page.  :func:`_hold_heap`, which ``dynamics.run_to_time`` calls
before its loop, keeps that memory with the process instead.  With
A = 16 n^d bytes (one complex grid array) it keeps up to 32A of free
heap top (``M_TRIM_THRESHOLD``, at most the largest C int), and it
puts the mmap threshold at glibc's 32 MiB ceiling
(``M_MMAP_THRESHOLD``).  Setting either one
switches glibc's dynamic adjustment off for the whole process, and the
ceiling is as high as that adjustment could ever have raised the mmap
threshold, so no later allocation is mapped and unmapped anew each time
that glibc would have kept on the heap.  It is glibc-only, it only ever
raises the values it set, and on a grid with 4A at most glibc's 128 KiB
default mmap threshold it does nothing.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = ["Grid", "Field", "make_grid"]


@dataclass(frozen=True)
class Grid:
    """Periodic box [-L, L)^d sampled on n^d points.

    A grid is its (d, n, L): the derived lattices and tables below are
    computed from them in ``__post_init__`` and take no part in ``==``
    or ``hash``, so grids built from equal (d, n, L) are equal, hash
    alike and serve as one dict key.  :func:`make_grid` stores L as a
    float.
    """

    d: int
    n: int
    L: float
    # Derived, precomputed in __post_init__, not compared.
    half_shape: tuple = field(init=False, repr=False, compare=False)
    dx: float = field(init=False, repr=False, compare=False)
    dxi: float = field(init=False, repr=False, compare=False)
    x_axes: tuple = field(init=False, repr=False, compare=False)
    mode_axes: tuple = field(init=False, repr=False, compare=False)
    xi_mags: np.ndarray = field(init=False, repr=False, compare=False)
    x_mags: np.ndarray = field(init=False, repr=False, compare=False)
    nyquist_mask: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        n = self.n
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {n}")
        if not self.L > 0:
            raise ValueError(f"box half-length must be positive, got {self.L}")
        _check_box(self.d, n, self.L)

        # the rfftn half a real field stores: n^(d-1) x (n/2+1)
        object.__setattr__(self, "half_shape", (n,) * (self.d - 1) + (n // 2 + 1,))
        object.__setattr__(self, "dx", 2.0 * self.L / n)
        object.__setattr__(self, "dxi", np.pi / self.L)

        x = -self.L + self.dx * np.arange(n)
        modes = np.rint(np.fft.fftfreq(n) * n).astype(int)  # 0..n/2-1, -n/2..-1
        object.__setattr__(self, "x_axes", tuple(x.copy() for _ in range(self.d)))
        object.__setattr__(self, "mode_axes", tuple(modes.copy() for _ in range(self.d)))

        mesh = np.meshgrid(*self.mode_axes, indexing="ij", sparse=True)
        xi2 = sum((self.dxi * m.astype(float)) ** 2 for m in mesh)
        object.__setattr__(self, "xi_mags", np.sqrt(xi2))

        xmesh = np.meshgrid(*self.x_axes, indexing="ij", sparse=True)
        object.__setattr__(self, "x_mags", np.sqrt(sum(xm**2 for xm in xmesh)))

        # Nyquist rows (mode -n/2 has no +n/2 partner) are excluded from
        # band projectors and zeroed by non-multiplier operators.
        nyq = np.zeros((n,) * self.d, dtype=bool)
        for axis_modes in mesh:
            nyq |= axis_modes == -n // 2
        object.__setattr__(self, "nyquist_mask", nyq)

        keep = n // 3
        deal = np.ones((n,) * self.d, dtype=bool)
        for axis_modes in mesh:
            deal &= np.abs(axis_modes) <= keep
        object.__setattr__(self, "dealias_mask", deal)

    # -- lattice geometry -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    def half(self, table: np.ndarray) -> np.ndarray:
        """The part of a full-lattice array that lines up with the rfftn
        half: its last-axis modes 0..n/2, as a view."""
        return table[..., :self.n // 2 + 1]

    @property
    def npoints(self) -> int:
        return self.n**self.d

    @property
    def volume(self) -> float:
        return (2.0 * self.L) ** self.d

    @property
    def quad_weight(self) -> float:
        """Physical quadrature weight dx^d."""
        return self.dx**self.d

    @property
    def nyquist(self) -> float:
        """Largest resolved frequency magnitude per axis, pi n / (2L)."""
        return self.dxi * self.n / 2

    @property
    def k_max(self) -> int:
        """Largest dyadic band fully exposed: 2**(k_max+1) <= nyquist."""
        return int(np.floor(np.log2(self.nyquist))) - 1

    @property
    def k_top(self) -> int:
        """Smallest K with psi_le(K) == 1 on the whole lattice.

        Bands above k_top vanish identically on the frequency lattice,
        so partition-of-unity sums run over -1..k_top.
        """
        ximax = self.dxi * (self.n / 2) * np.sqrt(self.d)
        return max(-1, int(np.ceil(np.log2(ximax / 1.25))))

    @property
    def j_top(self) -> int:
        """Spatial analogue of k_top for the physical shells."""
        xmax = self.L * np.sqrt(self.d)
        return max(-1, int(np.ceil(np.log2(xmax / 1.25))))

    def mode_tuples(self) -> np.ndarray:
        """Integer mode vectors, shape (npoints, d), row-major over the lattice."""
        mesh = np.meshgrid(*self.mode_axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def _check_box(d: int, n: int, L: float) -> None:
    """Refuse a positive box half-length L whose grid's largest squared
    frequency d (pi n / 2L)^2 or largest squared position d L^2 is not a
    finite float: its lattices would hold inf or nan.  Python floats, so
    no array is built and nothing warns."""
    nyquist = math.pi / L * (n // 2)
    if not (math.isfinite(d * nyquist * nyquist) and math.isfinite(d * L * L)):
        raise ValueError(f"box half-length {L:g} is out of range for a {d}-D grid with n = {n}:"
                         f" its largest squared frequency or position is not a finite float")


def make_grid(d: int, n: int, L: float) -> Grid:
    """Build a periodic grid; see :class:`Grid` for conventions."""
    return Grid(d=d, n=n, L=float(L))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _zero_coeffs(shape: tuple) -> np.ndarray:
    """The read-only zero array of this shape that every ``Field.zero``
    shares: its rfftn half, and the full array its ``coeffs`` gives."""
    return _frozen(np.zeros(shape, dtype=complex))


def _mirrored(coeffs: np.ndarray, n: int) -> np.ndarray:
    """coeffs with every axis but the last read at -m mod n, as a copy
    (the array itself in 1-D): the mirror rule shared by the self-mirror
    planes and the Hermitian completion."""
    negated = -np.arange(n) % n
    for axis in range(coeffs.ndim - 1):
        coeffs = np.take(coeffs, negated, axis=axis)
    return coeffs


def _symmetrize_ends(coeffs: np.ndarray, n: int) -> None:
    """Make the planes at last-axis mode 0 and n/2, which are their own
    mirrors, exactly Hermitian, in place, on a full array or its rfftn
    half: each entry becomes the mean of itself and its conjugate mirror.
    fl(a + conj b) and fl(b + conj a) are exact conjugates, and an
    exactly Hermitian plane is left bitwise as it is."""
    if coeffs.ndim == 1:
        return  # a 1-D plane is one entry, which rfft makes exactly real
    ends = coeffs[..., ::n // 2]
    ends += np.conj(_mirrored(ends, n))
    ends *= 0.5


def _hermitian_coeffs(half: np.ndarray, n: int) -> np.ndarray:
    """The full coefficient array of a real field from its rfftn half.

    The last axis' modes n/2+1..n-1 are the conjugates of the mirrored
    modes n/2-1..1, c_{-m} = conj(c_m), and the self-mirror planes are
    symmetrized, so the whole array is exactly Hermitian.
    """
    h = n // 2 + 1
    full = np.empty(half.shape[:-1] + (n,), dtype=complex)
    full[..., :h] = half
    np.conjugate(_mirrored(half[..., h - 2:0:-1], n), out=full[..., h:])
    _symmetrize_ends(full, n)
    return full


# glibc's mallopt parameters (malloc.h), its default mmap threshold and
# the ceiling of its dynamic one on a 64-bit build (mallopt refuses more),
# and the largest value a C int argument can carry
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_DEFAULT = 128 << 10
_MMAP_THRESHOLD_MAX = 32 << 20
_INT_MAX = (1 << 31) - 1

# mallopt parameter -> the value _hold_heap set in this process
_held = {}


@lru_cache(maxsize=None)
def _glibc_mallopt():
    """glibc's ``mallopt(int, int) -> int``, or None off glibc."""
    try:
        version = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return None
    if not version:
        return None
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def _hold_heap(grid: Grid) -> None:
    """Keep the temporaries a step on this grid frees on the heap; the
    module docstring's heap paragraph says how and why."""
    array = 16 * grid.npoints
    if 4 * array <= _MMAP_THRESHOLD_DEFAULT:
        return
    mallopt = _glibc_mallopt()
    if mallopt is None:
        return
    wanted = ((_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX),
              (_M_TRIM_THRESHOLD, min(32 * array, _INT_MAX)))
    for param, value in wanted:
        if value > _held.get(param, 0) and mallopt(param, value):
            _held[param] = value


class Field:
    """A field on a Grid with lazily cached FFT representation.

    A field's kind is the kind of the array it is built from, and
    nothing converts one kind into the other later.  ``from_values``
    makes a real field from real (float or integer) values and a complex
    field from complex ones; ``from_spectrum`` makes a real field from
    an array of ``grid.half_shape`` (its rfftn half) and a complex field
    from one of ``grid.shape``.  A real field (``.real``) holds float64
    ``values`` and stores the rfftn half of its coefficients, which
    :meth:`spectrum` returns; ``coeffs`` is the full Hermitian array,
    completed from the half on each call and not kept, so a real field
    holds half the coefficient memory of a complex one and code that
    reads ``coeffs`` sees a full array for either kind.

    Realness propagates: sums and differences of two real fields, real
    scalar multiples, ``conj``, real multipliers (``spectral.derivative``,
    ``laplacian``, ``lambda_power``, the band projectors, ``dealias``)
    and dealiased products of two real fields are real, and all but
    ``conj`` and the products act on the half alone.  A complex scalar,
    ``spectral.semigroup`` or a complex operand makes a complex field
    from the full array.  ``zero`` and ``one`` are real.

    Instances are immutable: ``+``, ``-`` and scalar ``*`` act on the
    stored coefficients alone (an operand held as values is transformed
    on demand) and return new fields held as coefficients, and every
    cached array is read-only, so writing into ``values`` or ``coeffs``
    raises ``ValueError``.  A Field takes ownership of the array it is
    given: an array of its dtype (float64 or complex128 values, complex128
    coefficients) is stored as is, not copied, and becomes read-only.
    """

    __slots__ = ("grid", "_values", "_coeffs", "real")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _new(cls, grid: Grid, real: bool, values, coeffs) -> "Field":
        out = cls.__new__(cls)
        out.grid, out.real, out._values, out._coeffs = grid, real, values, coeffs
        return out

    @classmethod
    def from_values(cls, grid: Grid, values) -> "Field":
        """A field from its values on the grid: real for real values,
        complex for complex ones."""
        values = np.asarray(values)
        real = not np.iscomplexobj(values)
        if values.shape != grid.shape:
            raise ValueError(f"shape {values.shape} does not match grid {grid.shape}")
        return cls._new(grid, real, _frozen(values.astype(float if real else complex, copy=False)),
                        None)

    @classmethod
    def from_spectrum(cls, grid: Grid, spectrum) -> "Field":
        """A field from coefficients in the layout it stores them: a real
        field from its rfftn half, a complex field from the full array."""
        spectrum = np.asarray(spectrum, dtype=complex)
        if spectrum.shape not in (grid.half_shape, grid.shape):
            raise ValueError(f"spectrum shape {spectrum.shape} is neither the rfftn half"
                             f" {grid.half_shape} nor the full array {grid.shape} of the grid")
        return cls._new(grid, spectrum.shape == grid.half_shape, None, _frozen(spectrum))

    @classmethod
    def zero(cls, grid: Grid) -> "Field":
        """The zero field, real and held in coefficient space.

        Sums with spectral fields then stay spectral, with no transform.
        Every zero field of one grid shape shares one read-only half, and
        its ``coeffs`` are one shared read-only full array.  The field
        itself is new on each call: a zero field kept by its grid would
        tie the grid to itself in a reference cycle, so a finished grid
        would wait for the cyclic collector.
        """
        return cls._new(grid, True, None, _zero_coeffs(grid.half_shape))

    @classmethod
    def one(cls, grid: Grid) -> "Field":
        return cls.from_values(grid, np.ones(grid.shape))

    # -- representations ---------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            grid = self.grid
            if self.real and grid.d == 1:
                # what irfftn calls on one axis, without its n-D argument handling
                vals = np.fft.irfft(self._coeffs, n=grid.n, norm="forward")
            elif self.real:
                vals = np.fft.irfftn(self._coeffs, s=grid.shape, axes=tuple(range(grid.d)),
                                     norm="forward")
            else:
                vals = np.fft.ifftn(self._coeffs, norm="forward")
            self._values = _frozen(vals)
        return self._values

    @property
    def coeffs(self) -> np.ndarray:
        """The full coefficient array: a real field completes its half,
        read-only and new on each call (a zero field excepted)."""
        stored = self.spectrum()
        if not self.real:
            return stored
        if stored is _zero_coeffs(self.grid.half_shape):
            return _zero_coeffs(self.grid.shape)
        return _frozen(_hermitian_coeffs(stored, self.grid.n))

    def spectrum(self) -> np.ndarray:
        """The coefficients as stored: the rfftn half of a real field,
        the full array of a complex one.  Transforms once if needed, and
        never completes a half."""
        if self._coeffs is None:
            if self.real and self.grid.d == 1:
                # rfftn on one axis is rfft, and a 1-D half has no plane to symmetrize
                coeffs = np.fft.rfft(self._values, norm="forward")
            elif self.real:
                coeffs = np.fft.rfftn(self._values, norm="forward")
                _symmetrize_ends(coeffs, self.grid.n)
            else:
                coeffs = np.fft.fftn(self._values, norm="forward")
            self._coeffs = _frozen(coeffs)
        return self._coeffs

    def is_zero(self) -> bool:
        """True when the field is identically zero; makes no transform.

        The shared zero array of ``zero`` answers at once; otherwise it
        reads whichever representation is cached.  A NaN entry is not
        zero, so a field holding one is not zero either.
        """
        arr = self._coeffs
        if arr is None:
            arr = self._values
        elif arr is _zero_coeffs(self.grid.half_shape):
            return True
        return not arr.any()

    # -- arithmetic (new fields, same grid) ---------------------------------

    def _check(self, other: "Field"):
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def _combine(self, other: "Field", op) -> "Field":
        """op of the two fields on their stored coefficients: the halves
        when both are real, the full arrays when the kinds differ."""
        self._check(other)
        if self.real == other.real:
            return Field.from_spectrum(self.grid, op(self.spectrum(), other.spectrum()))
        return Field.from_spectrum(self.grid, op(self.coeffs, other.coeffs))

    def __add__(self, other: "Field") -> "Field":
        return self._combine(other, np.add)

    def __sub__(self, other: "Field") -> "Field":
        return self._combine(other, np.subtract)

    def __mul__(self, scalar) -> "Field":
        """scalar times the field, on its stored coefficients; a complex
        scalar on a real field scales the full array."""
        if isinstance(scalar, Field):
            raise TypeError("use dealiased_product for field products")
        widen = self.real and isinstance(scalar, (complex, np.complexfloating))
        return Field.from_spectrum(self.grid, (self.coeffs if widen else self.spectrum()) * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return self * (-1.0)

    def conj(self) -> "Field":
        return Field.from_values(self.grid, np.conj(self.values))

    def l2(self) -> float:
        """Quadrature L2 norm, computed from whichever representation exists
        (the full coefficient array, for a real field)."""
        if self._coeffs is not None:
            return float(np.sqrt(self.grid.volume * np.sum(np.abs(self.coeffs) ** 2)))
        return float(np.sqrt(self.grid.quad_weight * np.sum(np.abs(self._values) ** 2)))

    def sup(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __repr__(self):
        reps = []
        if self._values is not None:
            reps.append("phys")
        if self._coeffs is not None:
            reps.append("freq")
        return f"Field(d={self.grid.d}, n={self.grid.n}, L={self.grid.L:g}, cached={'+'.join(reps)})"
