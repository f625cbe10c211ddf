"""Integrable discrete-time maps in (a, b) variables.

Each map is the conjugation step T -> P+^{-1} T P+ of a triangular
factorization, written out as closed recurrences:

* dtl(h): factor diagonal beta_k = 1 + h b_k - h^2 a_{k-1}/beta_{k-1}, then

      b~_k = b_k + h (a_k/beta_k - a_{k-1}/beta_{k-1}),
      a~_k = a_k beta_{k+1}/beta_k.

* drtl+(alpha, h): diagonals d1_k (first factor) and d2_k (second factor):

      d1_k = 1 + h b_k + h(alpha - h) a_{k-1}/d1_{k-1},
      d2_k = d1_{k-1} (d1_k + h alpha a_k) / (d1_{k-1} + h alpha a_{k-1}),

      1 + alpha b~_k = (1 + alpha b_k) d2_k/d1_k,   a~_k = a_k d2_{k+1}/d1_k.

* drtl-(alpha, h): superdiagonals dm_k (second factor) and cm_k (first):

      dm_k = a_k / (1 + (alpha + h)(b_k - h dm_{k-1})),
      cm_k = dm_k (1 + alpha (b_k - h dm_{k-1})) / (1 + alpha (b_{k+1} - h dm_k)),

      1 + alpha b~_k = (1 + alpha b_{k+1}) cm_k/dm_k,  a~_k = a_{k+1} cm_k/dm_{k+1}.

Each step is one pass over the state's entries as Python floats (the same
IEEE double arithmetic as numpy, without its per-call overhead on short
vectors): the factor recurrence, the neighbour values, the pivot guards, the
two-expression identity check, the update and the addition-formula checks.
Every guard and check runs on every step.  Each value is formed by the same
expression, in the same order, as the formulas evaluated elementwise on
numpy vectors, so each result is bitwise that of the numpy evaluation and
each failure raises the same error.  The public ``*_factors`` functions
return the factors of the same pass as arrays.

The recurrences start from a_0 = 0 on open chains and run forward; on rings
they are cyclic and double-valued, and the branch with beta_k -> 1 + h b_k
(etc.) as h -> 0 is selected by fixed-point iteration: Gauss-Seidel sweeps on
the same floats, each tested by the residual at the closing site, the only
site a forward sweep leaves inexact.

The parameter coincidences alpha = h (plus) and alpha = -h (minus) collapse
the recurrences; the resulting explicit rational maps are provided
separately, together with the inverse of the explicit plus map.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Boundary, FlaschkaState, shifted
from .errors import BranchNotFound, NumericalError, SingularStep

_PIVOT = 1e-13          # singularity guard for denominators
_FP_TOL = 1e-14         # periodic fixed-point tolerance (relative)
_FP_SWEEPS = 200
_ID_TOL = 1e-12         # internal two-expression identity tolerance
_ADD_TOL = 1e-10        # addition-formula tolerance inside steps


def _check(val: np.ndarray, what: str) -> np.ndarray:
    if np.abs(val).min() < _PIVOT:
        raise SingularStep(f"{what} fell below the singularity guard")
    return val


# The step kernels below run on lists of floats.  Their reductions keep the
# NaN semantics of the numpy reductions they replace: np.min and np.max
# propagate a NaN entry, where Python's min and max skip it.  A product with
# an open-end fill is formed as in the vector formulas (h * 0.0, not 0.0):
# it is -0.0 or NaN for some parameters.

def _guard(vals: list, what: str) -> None:
    """``_check`` on a list: a NaN entry disarms the guard, as in np.min."""
    if min(map(abs, vals)) < _PIVOT and not any(v != v for v in vals):
        raise SingularStep(f"{what} fell below the singularity guard")


def _amax(vals: list) -> float:
    """``np.abs(vals).max()`` of a list: NaN if any entry is NaN."""
    top = max(map(abs, vals))
    total = sum(vals)       # NaN if an entry is NaN (or if both infinities occur)
    if total != total and any(v != v for v in vals):
        return math.nan
    return top


def _prev(v: list, ring: bool, fill: float = 0.0) -> list:
    """Neighbour values v_{k-1}, the list form of ``shifted(v, -1, ...)``."""
    return [v[-1] if ring else fill] + v[:-1]


def _next(v: list, ring: bool, fill: float = 0.0) -> list:
    """Neighbour values v_{k+1}, the list form of ``shifted(v, +1, ...)``."""
    return v[1:] + [v[0] if ring else fill]


def _on_floats(kernel, s: FlaschkaState, *params):
    """Run a step kernel on the state's entries as Python floats.

    Python raises ZeroDivisionError on x/0 where numpy returns inf or nan.
    A guarded denominator is 0 only beside a NaN that disarms its guard, and
    the alpha = 0 form of drtl+ divides by h; such a call reruns on numpy
    float64 scalars, which give numpy's IEEE results.
    """
    try:
        return kernel(s, np.ndarray.tolist, *params)
    except ZeroDivisionError:
        return kernel(s, list, *params)


def _open_chain(update, first: float, n: int) -> list:
    """Values of an open-chain recurrence v_k = update(k, v_{k-1}) from v_0 = first."""
    vals = [first]
    for k in range(1, n):
        vals.append(update(k, vals[-1]))
    return vals


def _cyclic_fixed_point(update, v: list, what: str) -> list:
    """Solve the cyclic one-step recurrence v_k = update(k, v_{k-1}) in place.

    Gauss-Seidel sweeps from the seed list v select the branch the seed
    approximates; a damped scalar Newton polish on the closure condition
    v_n = forward(v_n) runs if the sweeps stall.  Returns v.
    """
    n = len(v)

    def sweep():
        prev = v[-1]
        for k in range(n):
            prev = v[k] = update(k, prev)

    def sweep_residual():
        # After a sweep v_k = update(k, v_{k-1}) holds exactly for k >= 1, so
        # only the closing site can differ; a non-finite later entry stands for
        # the inf - inf or NaN - x its own difference would give.
        gap = abs(v[0] - update(0, v[-1]))
        return gap if all(map(math.isfinite, v[1:])) else math.nan

    scale = max(1.0, _amax(v))
    for _ in range(_FP_SWEEPS):
        sweep()
        if sweep_residual() < _FP_TOL * scale:
            return v

    # Newton polish on t = v_n: run the chain forward from v_0 = t and close it.
    def chain(t):
        val = t
        dval = 1.0
        for k in range(n):
            eps = 1e-7 * max(1.0, abs(val))
            base = update(k, val)
            dval = (update(k, val + eps) - base) / eps * dval
            val = base
        return val, dval

    t = v[-1]
    g, dg = chain(t)
    for _ in range(60):
        denom = dg - 1.0
        if abs(denom) < _PIVOT:
            break
        step = -(g - t) / denom
        for _ in range(30):
            g_new, dg_new = chain(t + step)
            if abs(g_new - (t + step)) < abs(g - t):
                t, g, dg = t + step, g_new, dg_new
                break
            step *= 0.5
        else:
            break
        if abs(g - t) < _FP_TOL * scale:
            break
    v[-1] = t
    sweep()
    if sweep_residual() > 1e-12 * scale:
        raise BranchNotFound(f"cyclic recurrence for {what} did not converge")
    return v


# ---------------------------------------------------------------------------
# dtl(h)
# ---------------------------------------------------------------------------

def _dtl(s: FlaschkaState, floats, h: float, factor_only: bool = False):
    al, bl = floats(s.a), floats(s.b)
    ring = s.boundary is Boundary.PERIODIC
    hh = h * h

    def update(k, prev):
        if abs(prev) < _PIVOT:
            raise SingularStep("beta recurrence hit a vanishing pivot")
        return 1.0 + h * bl[k] - hh * al[k - 1] / prev

    if ring:
        beta = _cyclic_fixed_point(update, floats(1.0 + h * s.b), "beta")
    else:
        beta = _open_chain(update, 1.0 + h * bl[0], s.n)
    _guard(beta, "beta")
    if factor_only:
        return beta

    ratio = [a / be for a, be in zip(al, beta)]
    b_new = [b + h * (r - rp) for b, r, rp in zip(bl, ratio, _prev(ratio, ring))]
    a_new = [a * bn / be for a, bn, be in zip(al, _next(beta, ring, 1.0), beta)]
    return s.replace(a=a_new, b=b_new)


def dtl_factor_diag(s: FlaschkaState, h: float) -> np.ndarray:
    """Diagonal beta of the lower factor in the LU splitting of I + h T."""
    return np.array(_on_floats(_dtl, s, h, True))


def dtl_step(s: FlaschkaState, h: float) -> FlaschkaState:
    return _on_floats(_dtl, s, h)


# ---------------------------------------------------------------------------
# drtl+(alpha, h)
# ---------------------------------------------------------------------------

def _drtl_plus(s: FlaschkaState, floats, alpha: float, h: float, factor_only: bool = False):
    al, bl = floats(s.a), floats(s.b)
    ring = s.boundary is Boundary.PERIODIC
    coupling = h * (alpha - h)

    def update(k, prev):
        if abs(prev) < _PIVOT:
            raise SingularStep("d1 recurrence hit a vanishing pivot")
        return 1.0 + h * bl[k] + coupling * al[k - 1] / prev

    if ring:
        seed = 1.0 + h * (s.b + alpha * shifted(s.a, -1, s.boundary))
        d1 = _cyclic_fixed_point(update, floats(seed), "d1")
    else:
        d1 = _open_chain(update, 1.0 + h * bl[0], s.n)
    _guard(d1, "d1")
    ha = h * alpha
    ha_a = [ha * a for a in al]
    d1_prev = _prev(d1, ring, 1.0)
    denom = [dp + x for dp, x in zip(d1_prev, _prev(ha_a, ring, ha * 0.0))]
    _guard(denom, "d1 + h*alpha*a")
    d2 = [dp * (d + x) / de for dp, d, x, de in zip(d1_prev, d1, ha_a, denom)]

    # cross-check against the equivalent second expression where it is regular
    one_ab = [1.0 + alpha * b for b in bl]
    h_one_ab = [h * x for x in one_ab]
    h_one_ab_next = _next(h_one_ab, ring, h * (1.0 + alpha * 0.0))
    d1_next = _next(d1, ring, 1.0)
    den2 = [alpha * d - t for d, t in zip(d1, h_one_ab)]
    scale = max(1.0, _amax(d2))
    cut = 1e-8 * scale
    gaps = [d * (alpha * dn - tn) / q - e
            for d, dn, tn, q, e in zip(d1, d1_next, h_one_ab_next, den2, d2) if abs(q) > cut]
    if gaps and _amax(gaps) > _ID_TOL * scale:
        raise NumericalError("the two expressions for d2 disagree")
    if factor_only:
        return d1, d2

    a_new = [a * en / d for a, en, d in zip(al, _next(d2, ring, 1.0), d1)]
    if alpha == 0.0:
        # removable singularity: eliminate d2 between the two addition formulas
        b_new = [bn + (d - dn) / h for bn, d, dn in zip(_next(bl, ring), d1, d1_next)]
    else:
        b_new = [(p * e / d - 1.0) / alpha for p, e, d in zip(one_ab, d2, d1)]

    scale = max(1.0, _amax(d1), _amax(bl))
    add1 = [h * (1.0 + alpha * bt) + alpha * dn - tn - alpha * e
            for bt, dn, tn, e in zip(b_new, d1_next, h_one_ab_next, d2)]
    add2 = [d - ha * atp - e + x for d, atp, e, x in zip(d1, _prev(a_new, ring), d2, ha_a)]
    if max(_amax(add1), _amax(add2)) > _ADD_TOL * scale:
        raise NumericalError("drtl+ addition formulas violated")
    return s.replace(a=a_new, b=b_new)


def drtl_plus_factors(s: FlaschkaState, alpha: float, h: float):
    """Diagonals (d1, d2) of the two lower transition factors of drtl+."""
    d1, d2 = _on_floats(_drtl_plus, s, alpha, h, True)
    return np.array(d1), np.array(d2)


def drtl_plus_step(s: FlaschkaState, alpha: float, h: float) -> FlaschkaState:
    return _on_floats(_drtl_plus, s, alpha, h)


# ---------------------------------------------------------------------------
# drtl-(alpha, h)
# ---------------------------------------------------------------------------

def _drtl_minus(s: FlaschkaState, floats, alpha: float, h: float, factor_only: bool = False):
    al, bl = floats(s.a), floats(s.b)
    ring = s.boundary is Boundary.PERIODIC
    rate = alpha + h

    def update(k, prev):
        den = 1.0 + rate * (bl[k] - h * prev)
        if abs(den) < _PIVOT:
            raise SingularStep("dm recurrence hit a vanishing denominator")
        return al[k] / den

    if ring:
        denom0 = _check(1.0 + alpha * s.b, "1 + alpha*b")
        dm = _cyclic_fixed_point(update, floats(s.a / denom0), "dm")
    else:
        dm = _open_chain(update, update(0, 0.0), s.n)     # a_0 = 0 before the chain
    h_dm = [h * d for d in dm]
    h_dm_prev = _prev(h_dm, ring, h * 0.0)
    b_next = _next(bl, ring)
    b_lag = [b - x for b, x in zip(bl, h_dm_prev)]            # b - h dm_prev
    b_lead = [bn - x for bn, x in zip(b_next, h_dm)]          # b_next - h dm
    lower = [1.0 + alpha * w for w in b_lead]
    _guard(lower, "1 + alpha(b_next - h dm)")
    cm = [d * (1.0 + alpha * u) / lo for d, u, lo in zip(dm, b_lag, lower)]

    # second expression, checked away from its 0/0 degenerations (on open
    # chains the last site has no k+1 neighbour and is left out)
    alpha_a = [alpha * a for a in al]
    dm_max = _amax(dm)
    scale = max(1.0, dm_max)
    cut = 1e-8 * scale
    den2 = [aan + hdn for aan, hdn in zip(_next(alpha_a, ring), _next(h_dm, ring))]
    if not ring:
        den2.pop()          # zip below stops before the open end
    gaps = [dn * (aa + hd) / q - c
            for dn, aa, hd, q, c in zip(_next(dm, ring), alpha_a, h_dm, den2, cm) if abs(q) > cut]
    if gaps and _amax(gaps) > _ID_TOL * scale:
        raise NumericalError("the two expressions for cm disagree")
    if factor_only:
        return dm, cm

    # exact rational form of (1 + alpha b~) = (1 + alpha b_next) * cm/dm,
    # free of the 0/0 at alpha = 0 and at open boundaries where dm_n = 0
    b_new = [(b + h * (d - dp) + alpha * bn * u) / lo
             for b, d, dp, bn, u, lo in zip(bl, dm, _prev(dm, ring), b_next, b_lag, lower)]
    a_new = [c * (1.0 + rate * w) for c, w in zip(cm, b_lead)]

    scale = max(1.0, _amax(bl), dm_max)
    h_cm = [h * c for c in cm]
    add1 = [bt + hdp - b - hc for bt, hdp, b, hc in zip(b_new, h_dm_prev, bl, h_cm)]
    add2 = [alpha * at - hd - aa + hc for at, hd, aa, hc in zip(a_new, h_dm, alpha_a, h_cm)]
    if max(_amax(add1), _amax(add2)) > _ADD_TOL * scale:
        raise NumericalError("drtl- addition formulas violated")
    return s.replace(a=a_new, b=b_new)


def drtl_minus_factors(s: FlaschkaState, alpha: float, h: float):
    """Superdiagonal coefficients (dm, cm) of the two upper factors of drtl-."""
    dm, cm = _on_floats(_drtl_minus, s, alpha, h, True)
    return np.array(dm), np.array(cm)


def drtl_minus_step(s: FlaschkaState, alpha: float, h: float) -> FlaschkaState:
    return _on_floats(_drtl_minus, s, alpha, h)


# ---------------------------------------------------------------------------
# explicit rational degenerations
# ---------------------------------------------------------------------------

def drtl_plus_explicit_step(s: FlaschkaState, h: float) -> FlaschkaState:
    """drtl+(h, h): fully explicit birational discretization of the tl flow.

        1 + h b~_k = (1 + h b_{k-1}) D_k / D_{k-1},
        a~_k = a_k D_{k+1} / D_k,        D_k = 1 + h b_k + h^2 a_k.
    """
    a, b = s.a, s.b
    d = 1.0 + h * b + h * h * a
    _check(d, "1 + h b + h^2 a")
    d_prev = shifted(d, -1, s.boundary, fill=1.0)
    d_next = shifted(d, +1, s.boundary, fill=1.0)
    b_prev = shifted(b, -1, s.boundary)
    a_prev = shifted(a, -1, s.boundary)
    # expanded form of ((1 + h b_prev) d/d_prev - 1)/h: no small-h cancellation
    b_new = (b - b_prev + h * (a - a_prev) + b_prev * d) / d_prev
    a_new = a * d_next / d
    return s.replace(a=a_new, b=b_new)


def drtl_plus_explicit_inverse(s: FlaschkaState, h: float) -> FlaschkaState:
    """Invert drtl+(h, h) through 1 + h b~_k + h^2 a~_{k-1} = 1 + h b_k + h^2 a_k."""
    a_new, b_new = s.a, s.b
    a_new_prev = shifted(a_new, -1, s.boundary)
    d = 1.0 + h * b_new + h * h * a_new_prev       # equals D_k of the preimage
    _check(d, "reconstructed D")
    n = s.n
    b = np.empty(n)
    if s.boundary is Boundary.OPEN:
        # site n has a_n = 0, so D_n determines b_n directly; the two-term
        # relation then walks b_{k-1} out of b~_k for k = n..2
        b[-1] = (d[-1] - 1.0) / h
        for k in range(n - 1, 0, -1):
            b[k - 1] = ((1.0 + h * b_new[k]) * d[k - 1] / d[k] - 1.0) / h
    else:
        for k in range(n):
            j = (k + 1) % n
            b[k] = ((1.0 + h * b_new[j]) * d[k] / d[j] - 1.0) / h
    a = (d - 1.0 - h * b) / (h * h)
    if s.boundary is Boundary.OPEN:
        a[-1] = 0.0
    return s.replace(a=a, b=b)


def drtl_minus_explicit_step(s: FlaschkaState, h: float) -> FlaschkaState:
    """drtl-(-h, h): the mirrored explicit rational discretization.

        1 - h b~_k = (1 - h b_{k+1}) E_k / E_{k+1},
        a~_k = a_k E_k / E_{k+1},        E_k = 1 - h b_k + h^2 a_{k-1}.
    """
    a, b = s.a, s.b
    a_prev = shifted(a, -1, s.boundary)
    e = 1.0 - h * b + h * h * a_prev
    _check(e, "1 - h b + h^2 a_prev")
    e_next = shifted(e, +1, s.boundary, fill=1.0)
    _check(e_next, "E_next")
    b_next = shifted(b, +1, s.boundary)
    # expanded form of (1 - (1 - h b_next) e/e_next)/h: no small-h cancellation
    b_new = (b - b_next + h * (a - a_prev) + b_next * e) / e_next
    a_new = a * e / e_next
    return s.replace(a=a_new, b=b_new)
