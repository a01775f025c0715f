"""Quasilinear quadratic nonlinearity specification.

    F = 2 sum_j Q^{0j} d_t d_j u + sum_{jl} Q^{jl} d_j d_l u + S(u, du)

with Q^{0j}, Q^{jl} linear in the fields Z = (u, d_t u, d_1 u, ...,
d_d u) and S a constant quadratic form in Z; in particular Q(0,0) = 0
and F is exactly quadratic.  Coefficients are plain arrays indexed by
the Z-component order above.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    The spec is compiled once, in ``__post_init__``, into the plan that
    every evaluation of F reads (``dynamics``); the plan's fields take
    no part in ``==``:

    * ``s_terms``: the products of S with a nonzero coefficient, as
      ``(c, slot, slot)`` with slot <= slot, the off-diagonal ones
      counted twice;
    * ``q0_live[j]`` and ``qjl_live[j][l]``: False where the row of
      Q^{0j} or Q^{jl} is structurally zero, so that its product with
      d_j w or d_j d_l u is zero whatever the state;
    * ``z_slots``: the Z slots F reads, the factors of ``s_terms`` and
      of the live rows, and d_j u for every live Q^{jl} row (d_j d_l u
      is taken from it);
    * ``semilinear``: no Q^{0j} and no Q^{jl} at all.
    """

    d: int
    q0: np.ndarray
    qjl: np.ndarray
    s: np.ndarray
    # the plan, compiled in __post_init__, not compared
    s_terms: tuple = field(init=False, repr=False, compare=False)
    q0_live: tuple = field(init=False, repr=False, compare=False)
    qjl_live: tuple = field(init=False, repr=False, compare=False)
    z_slots: frozenset = field(init=False, repr=False, compare=False)
    semilinear: bool = field(init=False, repr=False, compare=False)

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

        s_terms = tuple((float(self.s[c, cp] * (1.0 if c == cp else 2.0)), c, cp)
                        for c in range(nz) for cp in range(c, nz) if self.s[c, cp] != 0.0)
        q0_live = tuple(bool(self.q0[j].any()) for j in range(d))
        qjl_live = tuple(tuple(bool(self.qjl[j, l].any()) for l in range(d)) for j in range(d))
        slots = {c for _, a, b in s_terms for c in (a, b)}
        for j in range(d):
            if q0_live[j]:
                slots.update(np.flatnonzero(self.q0[j]).tolist())
            for l in range(d):
                if qjl_live[j][l]:
                    slots.update(np.flatnonzero(self.qjl[j, l]).tolist())
                    slots.add(2 + j)
        object.__setattr__(self, "s_terms", s_terms)
        object.__setattr__(self, "q0_live", q0_live)
        object.__setattr__(self, "qjl_live", qjl_live)
        object.__setattr__(self, "z_slots", frozenset(slots))
        object.__setattr__(self, "semilinear", not (any(q0_live) or any(map(any, qjl_live))))

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

