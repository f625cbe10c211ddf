"""Continuous-time lattice flows and a reference RK4 integrator.

The three vector fields, in (a, b) variables:

    tl:    db_k = a_k - a_{k-1}
           da_k = a_k (b_{k+1} - b_k)

    rtl+:  db_k = (1 + alpha b_k)(a_k - a_{k-1})
           da_k = a_k (b_{k+1} - b_k + alpha a_{k+1} - alpha a_{k-1})

    rtl-:  db_k = a_k/(1 + alpha b_{k+1}) - a_{k-1}/(1 + alpha b_{k-1})
           da_k = a_k (b_{k+1}/(1 + alpha b_{k+1}) - b_k/(1 + alpha b_k))

Each field returns the time derivatives (db, da) at a state; the rows of
``systems.SYSTEMS`` bind alpha.  Out-of-range couplings vanish on open
chains; indices wrap on rings.  RK4 is deliberately non-geometric: it serves
as an independent reference for order-of-accuracy comparisons against the
discrete maps.
"""

from __future__ import annotations

import numpy as np

from .core import FlaschkaState, shifted
from .errors import DomainError

_GUARD = 1e-13


def tl_field(s: FlaschkaState):
    a, b, bc = s.a, s.b, s.boundary
    return a - shifted(a, -1, bc), a * (shifted(b, +1, bc) - b)


def rtl_plus_field(s: FlaschkaState, alpha: float):
    a, b, bc = s.a, s.b, s.boundary
    a_prev, a_next = shifted(a, -1, bc), shifted(a, +1, bc)
    db = (1.0 + alpha * b) * (a - a_prev)
    da = a * (shifted(b, +1, bc) - b + alpha * (a_next - a_prev))
    return db, da


def rtl_minus_field(s: FlaschkaState, alpha: float):
    a, b, bc = s.a, s.b, s.boundary
    denom = 1.0 + alpha * b
    if np.min(np.abs(denom)) < _GUARD:
        raise DomainError("1 + alpha*b_k vanishes")
    b_next = shifted(b, +1, bc)
    db = a / (1.0 + alpha * b_next) - shifted(a, -1, bc) / (1.0 + alpha * shifted(b, -1, bc))
    da = a * (b_next / (1.0 + alpha * b_next) - b / denom)
    return db, da


def rk4_step(field, s: FlaschkaState, dt: float) -> FlaschkaState:
    """One classical RK4 step of size dt of the vector field ``field(state)``."""
    def rhs(a, b):
        return field(FlaschkaState(a, b, s.boundary))

    a, b = s.a, s.b
    db1, da1 = rhs(a, b)
    db2, da2 = rhs(a + 0.5 * dt * da1, b + 0.5 * dt * db1)
    db3, da3 = rhs(a + 0.5 * dt * da2, b + 0.5 * dt * db2)
    db4, da4 = rhs(a + dt * da3, b + dt * db3)
    a_new = a + dt / 6.0 * (da1 + 2 * da2 + 2 * da3 + da4)
    b_new = b + dt / 6.0 * (db1 + 2 * db2 + 2 * db3 + db4)
    return FlaschkaState(a_new, b_new, s.boundary)
