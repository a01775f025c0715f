"""Quasilinear quadratic nonlinearity specification.

    F = 2 sum_j Q^{0j} d_t d_j u + sum_{jl} Q^{jl} d_j d_l u + S(u, du)

with Q^{0j}, Q^{jl} linear in the fields Z = (u, d_t u, d_1 u, ...,
d_d u) and S a constant quadratic form in Z; in particular Q(0,0) = 0
and F is exactly quadratic.  Coefficients are plain arrays indexed by
the Z-component order above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NonlinearitySpec", "default_spec"]


def _as_array(x, shape):
    a = np.asarray(x, dtype=float)
    if a.shape != shape:
        raise ValueError(f"coefficient block has shape {a.shape}, expected {shape}")
    return a


@dataclass(frozen=True)
class NonlinearitySpec:
    """Constant coefficients of a quadratic quasilinear nonlinearity.

    q0[j, c]   : Q^{0j} = sum_c q0[j, c] Z_c
    qjl[j,l,c] : Q^{jl} = sum_c qjl[j, l, c] Z_c, symmetric in (j, l)
    s[c, c']   : S = sum q_{cc'} Z_c Z_{c'}, symmetric

    with Z = (u, d_t u, d_1 u, ..., d_d u), so c runs over d + 2 slots.
    """

    d: int
    q0: np.ndarray
    qjl: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        d = self.d
        nz = d + 2
        object.__setattr__(self, "q0", _as_array(self.q0, (d, nz)))
        object.__setattr__(self, "qjl", _as_array(self.qjl, (d, d, nz)))
        object.__setattr__(self, "s", _as_array(self.s, (nz, nz)))
        if not np.allclose(self.qjl, np.swapaxes(self.qjl, 0, 1), atol=0, rtol=0):
            raise ValueError("Q^{jl} coefficients must be symmetric in (j, l)")
        if not np.allclose(self.s, self.s.T, atol=0, rtol=0):
            raise ValueError("S quadratic form must be symmetric")

    @property
    def nz(self) -> int:
        return self.d + 2


def default_spec(d: int, alpha: float = 1.0, beta: float = 1.0,
                 gamma_u: float = 1.0, gamma_t: float = 1.0) -> NonlinearitySpec:
    """Default: Q^{0j} = alpha u, Q^{jl} = beta u delta_jl, S = gamma_u u^2 + gamma_t (d_t u)^2."""
    nz = d + 2
    q0 = np.zeros((d, nz))
    q0[:, 0] = alpha
    qjl = np.zeros((d, d, nz))
    for j in range(d):
        qjl[j, j, 0] = beta
    s = np.zeros((nz, nz))
    s[0, 0] = gamma_u
    s[1, 1] = gamma_t
    return NonlinearitySpec(d=d, q0=q0, qjl=qjl, s=s)

