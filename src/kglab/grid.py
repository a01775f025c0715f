"""Periodic box discretization and lazily transformed fields.

A :class:`Grid` is a uniform periodic box [-L, L)^d with n points per
axis (n a power of two) and frequency lattice {pi m / L}.  A field is
stored in physical or frequency space, and the other representation is
computed once, on first use, and cached; the two are tied together by
the Fourier series convention

    f(x_j) = sum_m  c_m  exp(2 pi i j m / n),

i.e. ``coeffs = fftn(values) / n**d``.  With this convention a
frequency multiplier is a plain pointwise scale of ``coeffs`` and the
coefficient convolution theorem has no stray measure factors, which
fixes every operator normalization downstream.

Quadrature: physical integrals carry the weight (2L/n)^d, so the
squared L2 norm is also (2L)^d * sum |c_m|^2 (Parseval).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Grid", "Field", "make_grid"]


@dataclass(frozen=True)
class Grid:
    """Periodic box [-L, L)^d sampled on n^d points.

    Attributes filled in by :func:`make_grid`; construct through it so
    the derived lattices are consistent.
    """

    d: int
    n: int
    L: float
    # Derived, precomputed in __post_init__.
    dx: float = field(init=False, repr=False)
    dxi: float = field(init=False, repr=False)
    x_axes: tuple = field(init=False, repr=False)
    mode_axes: tuple = field(init=False, repr=False)
    xi_mags: np.ndarray = field(init=False, repr=False)
    x_mags: np.ndarray = field(init=False, repr=False)
    nyquist_mask: np.ndarray = field(init=False, repr=False)
    dealias_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        n = self.n
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {n}")
        if not self.L > 0:
            raise ValueError(f"box half-length must be positive, got {self.L}")

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

    def xi_components(self) -> list:
        """Dense frequency component arrays, shape = grid.shape, one per axis."""
        mesh = np.meshgrid(*self.mode_axes, indexing="ij")
        return [self.dxi * m.astype(float) for m in mesh]

    def mode_tuples(self) -> np.ndarray:
        """Integer mode vectors, shape (npoints, d), row-major over the lattice."""
        mesh = np.meshgrid(*self.mode_axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def compatible(self, other: "Grid") -> bool:
        return self.d == other.d and self.n == other.n and self.L == other.L


def make_grid(d: int, n: int, L: float) -> Grid:
    """Build a periodic grid; see :class:`Grid` for conventions."""
    return Grid(d=d, n=n, L=float(L))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class Field:
    """A complex field on a Grid with lazily cached FFT representation.

    Instances are immutable: arithmetic returns new fields, and every
    cached array is read-only, so writing into ``values`` or ``coeffs``
    raises ``ValueError``.  A Field takes ownership of the array it is
    given: a complex array is stored as is, not copied, and becomes
    read-only.  Construct with :meth:`from_values` or :meth:`from_coeffs`.
    """

    __slots__ = ("grid", "_values", "_coeffs")

    def __init__(self, grid: Grid, values=None, coeffs=None):
        if values is None and coeffs is None:
            raise ValueError("need physical values or frequency coefficients")
        self.grid = grid
        self._values = None if values is None else _frozen(np.asarray(values, dtype=complex))
        self._coeffs = None if coeffs is None else _frozen(np.asarray(coeffs, dtype=complex))
        ref = self._values if self._values is not None else self._coeffs
        if ref.shape != grid.shape:
            raise ValueError(f"shape {ref.shape} does not match grid {grid.shape}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_values(cls, grid: Grid, values) -> "Field":
        return cls(grid, values=values)

    @classmethod
    def from_coeffs(cls, grid: Grid, coeffs) -> "Field":
        return cls(grid, coeffs=coeffs)

    @classmethod
    def zero(cls, grid: Grid) -> "Field":
        """The zero field, held in coefficient space.

        Sums with spectral fields then stay spectral, with no transform.
        """
        return cls(grid, coeffs=np.zeros(grid.shape, dtype=complex))

    @classmethod
    def one(cls, grid: Grid) -> "Field":
        return cls(grid, values=np.ones(grid.shape, dtype=complex))

    # -- representations ---------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = _frozen(np.fft.ifftn(self._coeffs) * self.grid.npoints)
        return self._values

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = _frozen(np.fft.fftn(self._values) / self.grid.npoints)
        return self._coeffs

    def is_zero(self) -> bool:
        """True when the field is identically zero; makes no transform.

        Reads whichever representation is cached.  A NaN entry is not
        zero, so a field holding one is not zero either.
        """
        arr = self._coeffs if self._coeffs is not None else self._values
        return not np.any(arr)

    def is_real(self, tol: float = 1e-12) -> bool:
        v = self.values
        scale = np.max(np.abs(v)) or 1.0
        return float(np.max(np.abs(v.imag))) <= tol * scale

    # -- arithmetic (new fields, same grid) ---------------------------------

    def _check(self, other: "Field"):
        if not self.grid.compatible(other.grid):
            raise ValueError("fields live on different grids")

    def __add__(self, other: "Field") -> "Field":
        self._check(other)
        if self._coeffs is not None and other._coeffs is not None:
            return Field.from_coeffs(self.grid, self._coeffs + other._coeffs)
        return Field.from_values(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._check(other)
        if self._coeffs is not None and other._coeffs is not None:
            return Field.from_coeffs(self.grid, self._coeffs - other._coeffs)
        return Field.from_values(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "Field":
        if isinstance(scalar, Field):
            raise TypeError("use dealiased_product for field products")
        if self._coeffs is not None:
            out = Field(self.grid, coeffs=self._coeffs * scalar)
            if self._values is not None:
                out._values = _frozen(self._values * scalar)
            return out
        return Field.from_values(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return self * (-1.0)

    def conj(self) -> "Field":
        return Field.from_values(self.grid, np.conj(self.values))

    def copy(self) -> "Field":
        out = Field(self.grid, values=None if self._values is None else self._values.copy(),
                    coeffs=None if self._coeffs is None else self._coeffs.copy())
        return out

    def l2(self) -> float:
        """Quadrature L2 norm, computed from whichever representation exists."""
        if self._coeffs is not None:
            return float(np.sqrt(self.grid.volume * np.sum(np.abs(self._coeffs) ** 2)))
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
