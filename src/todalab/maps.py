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

Each step runs on the state's entries as Python floats (the same IEEE
double arithmetic as numpy, without its per-call overhead on short vectors),
in two halves.  The step half forms the factor recurrence with its pivot
test, the ring closure and the update.  The check half runs every other
guard and check: the pivot guards, the two-expression identity and the
addition formulas.  The public steps run both halves on every step.  The
check half is written once, for one step's floats and for a stack of steps
as columns (``_passes``); ``verify.trajectory_blocks`` steps the step half
alone and checks a block of steps at a time, rerunning a failing block
through the public step.
Each value is formed by the same expression, in the same order, as the
formulas evaluated elementwise on numpy vectors, so each result is bitwise
that of the numpy evaluation and each failure raises the same error.  The
public ``*_factors`` functions return the factors of the same pass as arrays.

``step_stack(step, a, b, boundary)`` steps a (B, n) stack of independent
states, row i bitwise ``step(state i)``: a bound factor-map step runs its
step half on each row's floats and its check half once for the stack, a
bound explicit step its numpy body on the whole stack (the public explicit
step is that body on one row), and any other step, or a stack that fails
the checks of a state or raises, one row at a time through the public step,
so the error raised is the first failing row's.

The recurrences start from a_0 = 0 on open chains and run forward; on rings
they are cyclic and double-valued.  Each update is Moebius in the previous
factor, so the branch with beta_k -> 1 + h b_k (etc.) as h -> 0 is the
attracting fixed point of the product of the 2x2 site matrices round the
ring.  From it, Newton steps on the float recurrence's own closure, each
followed by a forward pass (``_ring_chain``, the loop every chart ring uses
too), restore the digits the product loses to cancellation; the first pass
whose residual at the closing site, the only site a pass leaves inexact, is
below 1e-12 relative gives every factor.  A ring whose fixed-point quadratic
has complex roots raises NoRealBranch.

The parameter coincidences alpha = h (plus) and alpha = -h (minus) collapse
the recurrences; the resulting explicit rational maps are provided
separately, together with the inverse of the explicit plus map.
"""

from __future__ import annotations

import inspect
import math
from functools import partial
from itertools import compress

import numpy as np

from .core import STEP_ERRORS, Boundary, FlaschkaState, on_stack, shifted
from .errors import (DomainError, NonInvertibleLeg, NoRealBranch, NumericalError,
                     SingularStep, SolveFailed)

_PIVOT = 1e-13          # singularity guard for denominators
_ID_TOL = 1e-12         # internal two-expression identity tolerance
_CLOSURE_STEPS = 8      # Newton corrections of a ring closure before it fails
_HALVINGS = 40          # halvings of a correction whose pass leaves a leg domain
_ADD_TOL = 1e-10        # addition-formula tolerance inside steps


def _check(val: np.ndarray, what: str) -> np.ndarray:
    if np.abs(val).min() < _PIVOT:
        raise SingularStep(f"{what} fell below the singularity guard")
    return val


# The step kernels below run on lists of floats, each in two halves.  The
# step half forms the factors (with the pivot test of their recurrence), the
# ring closure and the update, and returns (a~, b~, factors): factors are
# the lists besides a, b, a~ and b~ that the check half reads.  The check
# half runs every other guard and check, on one step's floats or on a block
# of steps as columns (site k is the array ``vals[k]`` of one value per
# step), where each row takes the float value of its step.  The reductions
# keep the NaN semantics of the numpy reductions they replace: np.min and
# np.max propagate a NaN entry, where Python's min and max skip it.  A
# product with an open-end fill is formed as in the vector formulas
# (h * 0.0, not 0.0): it is -0.0 or NaN for some parameters.

def _guard(vals: list, what: str) -> None:
    """``_check`` on a list: a NaN entry disarms the guard, as in np.min;
    on columns, of each row."""
    if isinstance(vals[0], np.ndarray):
        low = (np.abs(vals).min(axis=0) < _PIVOT).any()   # a NaN row compares False
    else:
        low = min(map(abs, vals)) < _PIVOT and not any(v != v for v in vals)
    if low:
        raise SingularStep(f"{what} fell below the singularity guard")


def _amax(vals: list) -> float:
    """``np.abs(vals).max()`` of a list: NaN if any entry is NaN; on
    columns, of each row."""
    if isinstance(vals[0], np.ndarray):
        return np.abs(vals).max(axis=0)
    top = max(map(abs, vals))
    total = sum(vals)       # NaN if an entry is NaN (or if both infinities occur)
    if total != total and any(v != v for v in vals):
        return math.nan
    return top


def _max(*vals):
    """Python's max of floats (which passes over a NaN after the first
    value), or of columns row by row."""
    if not isinstance(vals[-1], np.ndarray):
        return max(vals)
    top = vals[0]
    for v in vals[1:]:
        top = np.where(v > top, v, top)
    return top


def _over(top, bound) -> bool:
    """Whether top > bound: for a step, or in any row of a block."""
    over = top > bound
    return over if over.__class__ is bool else over.any()


def _regular(den: list, cut, *lists):
    """(den_k, *lists_k) of each site k where |den_k| > cut, where a factor's
    second expression does not degenerate to 0/0.  On columns every site
    comes, its rows where den is not regular set to den 1 and 0 elsewhere,
    so an expression (...) / den - (...) of them is 0 there."""
    if isinstance(den[0], np.ndarray):
        return [(np.where(keep, q, 1.0), *(np.where(keep, v, 0.0) for v in rest))
                for q, *rest in zip(den, *lists) for keep in [np.abs(q) > cut]]
    return compress(zip(den, *lists), map(cut.__lt__, map(abs, den)))


def _prev(v: list, ring: bool, fill: float = 0.0) -> list:
    """Neighbour values v_{k-1}, the list form of ``shifted(v, -1, ...)``."""
    return [v[-1] if ring else fill] + v[:-1]


def _next(v: list, ring: bool, fill: float = 0.0) -> list:
    """Neighbour values v_{k+1}, the list form of ``shifted(v, +1, ...)``."""
    return v[1:] + [v[0] if ring else fill]


def _on_floats(halves, s: FlaschkaState, factor_only: bool, *params):
    """(a~, b~, factors) of both halves of a step run on the state's entries
    as Python floats (a~, b~ None with ``factor_only``).

    Python raises ZeroDivisionError on x/0 where numpy returns inf or nan.
    The step half divides by its denominators before the check half guards
    them, and the alpha = 0 form of drtl+ divides by h; a call that divides
    by 0 reruns on numpy float64 scalars, which give numpy's IEEE results,
    with its floating-point warnings off: the guard or the state's check
    then raises its error, not a warning.
    """
    step_half, check_half = halves
    ring = s.boundary is Boundary.PERIODIC
    try:
        al, bl = s.a.tolist(), s.b.tolist()
        a_new, b_new, factors = step_half(*params, al, bl, ring, factor_only)
        check_half(*params, ring, al, bl, a_new, b_new, *factors)
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            al, bl = list(s.a), list(s.b)
            a_new, b_new, factors = step_half(*params, al, bl, ring, factor_only)
            check_half(*params, ring, al, bl, a_new, b_new, *factors)
    return a_new, b_new, factors


def _open_chain(update, first: float, n: int) -> list:
    """Values of an open-chain recurrence v_k = update(k, v_{k-1}) from v_0 = first."""
    vals = [first]
    for k in range(1, n):
        vals.append(update(k, vals[-1]))
    return vals


_OVERFLOWED = "ring product of the Moebius sites overflowed or vanished"


def _ring_fixed_point(sites):
    """Attracting fixed point of a ring of Moebius site maps.

    Site k maps v_{k-1} to v_k = (m11 v_{k-1} + m12)/(m21 v_{k-1} + m22), the
    matrix (m11, m12, m21, m22) acting on (v_{k-1}, 1).  The ring closes at a
    fixed point t = v_n of the product P = M_n ... M_1, a root of
    P21 t^2 + (P22 - P11) t - P12 = 0.  Of the two real roots the attracting
    one, with the larger eigenvalue |P21 t + P22|, is the branch forward
    sweeps converge to and the one that stays continuous as h -> 0.  Raises
    NoRealBranch (with the discriminant) if the roots are complex, and
    SolveFailed if the product overflows or vanishes; NaN if P has no finite
    fixed point.

    The site entries may also be columns, one row for each ring of a stack,
    under the caller's ``np.errstate(all="ignore")``: each row runs the float
    arithmetic of its own ring (``_max`` is Python's max row by row), so a
    row's seed is bitwise its ring's.  A row that would raise fails the
    stack at the end instead, with the error of the first such row: a
    negative discriminant raises NoRealBranch, the NaN that an overflowing,
    vanishing or non-finite product leaves raises SolveFailed.
    """
    columns = isinstance(sites[0][0], np.ndarray)
    top = _max if columns else max
    p11, p12, p21, p22 = 1.0, 0.0, 0.0, 1.0
    for m11, m12, m21, m22 in sites:
        p11, p12, p21, p22 = (m11 * p11 + m12 * p21, m11 * p12 + m12 * p22,
                              m21 * p11 + m22 * p21, m21 * p12 + m22 * p22)
        size = top(abs(p11), abs(p12), abs(p21), abs(p22))
        if not (columns or 0.0 < size < math.inf):
            raise SolveFailed(_OVERFLOWED)
        p11, p12, p21, p22 = p11 / size, p12 / size, p21 / size, p22 / size

    half_b = 0.5 * (p22 - p11)
    disc = half_b * half_b + p12 * p21
    low = disc
    if columns:   # the first failing row's, NaN if its product is not finite
        failing = ~(disc >= 0.0)
        low = float(disc[failing.argmax()]) if failing.any() else 0.0
        if low != low:
            raise SolveFailed(_OVERFLOWED)
    if low < 0.0:
        raise NoRealBranch(f"ring step has no real solution: discriminant {low:.3g} < 0",
                           discriminant=low)
    sqrt, copysign = (np.sqrt, np.copysign) if columns else (math.sqrt, math.copysign)
    big = -(half_b + copysign(sqrt(disc), half_b))   # no cancellation
    if not (columns or p21 and big):   # one root, or none
        return big / p21 if p21 else -p12 / big if big else math.nan
    # of the roots big/p21 and -p12/big the attracting one, big/p21 on a tie;
    # on columns the single root of a row with one, NaN in a row with none
    first, second = big / p21, -p12 / big
    take_second = abs(p21 * second + p22) > abs(p21 * first + p22)
    if not columns:
        return second if take_second else first
    take_second = (big != 0.0) & (take_second | (p21 == 0.0))
    return np.where(take_second, second, np.where(p21 != 0.0, first, math.nan))


def _moebius_slope(sites):
    """Slope dv_k/dv_{k-1} = det M_k / (m21 v_{k-1} + m22)^2 of Moebius site k,
    whose entries are floats or columns of floats.  The square is libm's pow
    on both: ``** 2`` of a float calls it, of a column it is x*x, which
    differs in the last bit of about one square in a thousand."""
    square = np.float_power if isinstance(sites[0][0], np.ndarray) else pow

    def slope(k, prev, val):
        m11, m12, m21, m22 = sites[k]
        return (m11 * m22 - m12 * m21) / square(m21 * prev + m22, 2)
    return slope


def _ring_chain(update, site_slope, closes, t, n: int) -> list:
    """Values of the cyclic recurrence v_k = update(k, v_{k-1}) from a seed t
    for v_{n-1}, the one closure loop of every map and chart ring: Newton
    steps on the closure v_{n-1}(t) = t, with the product of the
    ``site_slope(k, v_{k-1}, v_k)`` as derivative, each followed by a forward
    pass; a correction whose pass leaves a leg domain is halved up to
    _HALVINGS times.  The first corrected pass ``closes(vals, step)`` accepts,
    given the correction ``step`` just made, is final (a correction that
    leaves t as it is keeps the previous pass).

    t may also be a column, one seed for each row of a stack of rings whose
    site k is the column ``vals[k]``: every row runs the float arithmetic of
    its own loop.  A correction that moves any row re-passes the stack, the
    unmoved rows from their unchanged t, so each row's passes are bitwise
    those of its own loop.  A stacked pass is never halved: a row that
    leaves a leg domain raises for the stack, whose rows the caller then
    solves one at a time."""
    columns = isinstance(t, np.ndarray)
    vals = _open_chain(update, update(0, t), n)
    for _ in range(_CLOSURE_STEPS):
        slope = math.prod(site_slope(k, prev, val)
                          for k, (prev, val) in enumerate(zip([t] + vals[:-1], vals)))
        step = (vals[-1] - t) / (1.0 - slope)
        for _ in range(_HALVINGS):
            try:
                if columns:
                    moved = t + step != t
                    if moved.any():
                        t = np.where(moved, t + step, t)
                        vals = _open_chain(update, update(0, t), n)
                elif t + step != t:
                    vals, t = _open_chain(update, update(0, t + step), n), t + step
                break
            except (DomainError, NonInvertibleLeg):
                if columns:
                    raise
                step *= 0.5
        else:
            raise SolveFailed("ring solver gave up: every halved correction leaves a leg domain")
        if closes(vals, step):
            return vals
    raise SolveFailed("ring recurrence does not close at its fixed point")


def _moebius_chain(update, sites) -> list:
    """``_ring_chain`` of Moebius ``sites`` from their attracting fixed point,
    final when a pass closes at site 0 (the one site a pass leaves inexact)
    to 1e-12 relative: most rings after one correction, rings with sites of
    1e4-1e8 after two to seven."""
    def closes(vals, step):
        return abs(vals[0] - update(0, vals[-1])) <= 1e-12 * max(1.0, _amax(vals))
    return _ring_chain(update, _moebius_slope(sites), closes, _ring_fixed_point(sites), len(sites))


# ---------------------------------------------------------------------------
# dtl(h)
# ---------------------------------------------------------------------------

def _dtl(h: float, al: list, bl: list, ring: bool, factor_only: bool = False):
    """Step half of dtl(h); its factors are (beta,)."""
    hh = h * h

    def update(k, prev):
        if abs(prev) < _PIVOT:
            raise SingularStep("beta recurrence hit a vanishing pivot")
        return 1.0 + h * bl[k] - hh * al[k - 1] / prev

    if ring:
        beta = _moebius_chain(update, [(1.0 + h * b, -hh * ap, 1.0, 0.0)
                                       for b, ap in zip(bl, _prev(al, ring))])
    else:
        beta = _open_chain(update, 1.0 + h * bl[0], len(bl))
    if factor_only:
        return None, None, (beta,)

    ratio = [a / be for a, be in zip(al, beta)]
    b_new = [b + h * (r - rp) for b, r, rp in zip(bl, ratio, _prev(ratio, ring))]
    a_new = [a * bn / be for a, bn, be in zip(al, _next(beta, ring, 1.0), beta)]
    return a_new, b_new, (beta,)


def _dtl_checks(h: float, ring: bool, al, bl, a_new, b_new, beta) -> None:
    """Check half of dtl(h)."""
    _guard(beta, "beta")


_DTL = (_dtl, _dtl_checks)


def dtl_factor_diag(s: FlaschkaState, h: float) -> np.ndarray:
    """Diagonal beta of the lower factor in the LU splitting of I + h T."""
    return np.array(_on_floats(_DTL, s, True, h)[2][0])


def dtl_step(s: FlaschkaState, h: float) -> FlaschkaState:
    a, b, _ = _on_floats(_DTL, s, False, h)
    return s.replace(a=a, b=b)


# ---------------------------------------------------------------------------
# drtl+(alpha, h)
# ---------------------------------------------------------------------------

def _drtl_plus(alpha: float, h: float, al: list, bl: list, ring: bool, factor_only: bool = False):
    """Step half of drtl+(alpha, h); its factors are (d1, d2) and the
    denominators d1_prev + h alpha a_prev of d2."""
    coupling = h * (alpha - h)

    def update(k, prev):
        if abs(prev) < _PIVOT:
            raise SingularStep("d1 recurrence hit a vanishing pivot")
        return 1.0 + h * bl[k] + coupling * al[k - 1] / prev

    if ring:
        d1 = _moebius_chain(update, [(1.0 + h * b, coupling * ap, 1.0, 0.0)
                                     for b, ap in zip(bl, _prev(al, ring))])
    else:
        d1 = _open_chain(update, 1.0 + h * bl[0], len(bl))
    ha = h * alpha
    d1_prev = _prev(d1, ring, 1.0)
    denom = [dp + ha * ap for dp, ap in zip(d1_prev, _prev(al, ring))]
    d2 = [dp * (d + ha * a) / de for dp, d, a, de in zip(d1_prev, d1, al, denom)]
    if factor_only:
        return None, None, (d1, d2, denom)

    a_new = [a * en / d for a, en, d in zip(al, _next(d2, ring, 1.0), d1)]
    if alpha == 0.0:
        # removable singularity: eliminate d2 between the two addition formulas
        b_new = [bn + (d - dn) / h for bn, d, dn in zip(_next(bl, ring), d1, _next(d1, ring, 1.0))]
    else:
        b_new = [((1.0 + alpha * b) * e / d - 1.0) / alpha for b, e, d in zip(bl, d2, d1)]
    return a_new, b_new, (d1, d2, denom)


def _drtl_plus_checks(alpha: float, h: float, ring: bool, al, bl, a_new, b_new,
                      d1, d2, denom) -> None:
    """Check half of drtl+(alpha, h): the addition formulas only where the
    step half formed a~, b~."""
    _guard(d1, "d1")
    _guard(denom, "d1 + h*alpha*a")
    # cross-check against the equivalent second expression where it is regular
    h_one_ab = [h * (1.0 + alpha * b) for b in bl]
    h_one_ab_next = _next(h_one_ab, ring, h * (1.0 + alpha * 0.0))
    d1_next = _next(d1, ring, 1.0)
    den2 = [alpha * d - t for d, t in zip(d1, h_one_ab)]
    scale = _max(1.0, _amax(d2))
    gaps = [d * (alpha * dn - tn) / q - e for q, d, dn, tn, e in
            _regular(den2, 1e-8 * scale, d1, d1_next, h_one_ab_next, d2)]
    if gaps and _over(_amax(gaps), _ID_TOL * scale):
        raise NumericalError("the two expressions for d2 disagree")
    if a_new is None:
        return

    scale = _max(1.0, _amax(d1), _amax(bl))
    ha = h * alpha
    add1 = [h * (1.0 + alpha * bt) + alpha * dn - tn - alpha * e
            for bt, dn, tn, e in zip(b_new, d1_next, h_one_ab_next, d2)]
    add2 = [d - ha * atp - e + ha * a for d, atp, e, a in zip(d1, _prev(a_new, ring), d2, al)]
    if _over(_max(_amax(add1), _amax(add2)), _ADD_TOL * scale):
        raise NumericalError("drtl+ addition formulas violated")


_DRTL_PLUS = (_drtl_plus, _drtl_plus_checks)


def drtl_plus_factors(s: FlaschkaState, alpha: float, h: float):
    """Diagonals (d1, d2) of the two lower transition factors of drtl+."""
    d1, d2, _ = _on_floats(_DRTL_PLUS, s, True, alpha, h)[2]
    return np.array(d1), np.array(d2)


def drtl_plus_step(s: FlaschkaState, alpha: float, h: float) -> FlaschkaState:
    a, b, _ = _on_floats(_DRTL_PLUS, s, False, alpha, h)
    return s.replace(a=a, b=b)


# ---------------------------------------------------------------------------
# drtl-(alpha, h)
# ---------------------------------------------------------------------------

def _drtl_minus(alpha: float, h: float, al: list, bl: list, ring: bool, factor_only: bool = False):
    """Step half of drtl-(alpha, h); its factors are (dm, cm) and the
    denominators 1 + alpha (b_next - h dm) of cm."""
    rate = alpha + h

    def update(k, prev):
        den = 1.0 + rate * (bl[k] - h * prev)
        if abs(den) < _PIVOT:
            raise SingularStep("dm recurrence hit a vanishing denominator")
        return al[k] / den

    if ring:
        dm = _moebius_chain(update, [(0.0, a, -rate * h, 1.0 + rate * b)
                                     for a, b in zip(al, bl)])
    else:
        dm = _open_chain(update, update(0, 0.0), len(bl))     # a_0 = 0 before the chain
    dm_prev = _prev(dm, ring)
    b_next = _next(bl, ring)
    b_lag = [b - h * dp for b, dp in zip(bl, dm_prev)]        # b - h dm_prev
    b_lead = [bn - h * d for bn, d in zip(b_next, dm)]        # b_next - h dm
    lower = [1.0 + alpha * w for w in b_lead]
    cm = [d * (1.0 + alpha * u) / lo for d, u, lo in zip(dm, b_lag, lower)]
    if factor_only:
        return None, None, (dm, cm, lower)

    # exact rational form of (1 + alpha b~) = (1 + alpha b_next) * cm/dm,
    # free of the 0/0 at alpha = 0 and at open boundaries where dm_n = 0
    b_new = [(b + h * (d - dp) + alpha * bn * u) / lo
             for b, d, dp, bn, u, lo in zip(bl, dm, dm_prev, b_next, b_lag, lower)]
    a_new = [c * (1.0 + rate * w) for c, w in zip(cm, b_lead)]
    return a_new, b_new, (dm, cm, lower)


def _drtl_minus_checks(alpha: float, h: float, ring: bool, al, bl, a_new, b_new,
                       dm, cm, lower) -> None:
    """Check half of drtl-(alpha, h): the addition formulas only where the
    step half formed a~, b~."""
    _guard(lower, "1 + alpha(b_next - h dm)")
    # second expression, checked away from its 0/0 degenerations (on open
    # chains the last site has no k+1 neighbour and is left out)
    alpha_a = [alpha * a for a in al]
    h_dm = [h * d for d in dm]
    dm_max = _amax(dm)
    scale = _max(1.0, dm_max)
    den2 = [aan + hdn for aan, hdn in zip(_next(alpha_a, ring), _next(h_dm, ring))]
    if not ring:
        den2.pop()          # zip below stops before the open end
    gaps = [dn * (aa + hd) / q - c for q, dn, aa, hd, c in
            _regular(den2, 1e-8 * scale, _next(dm, ring), alpha_a, h_dm, cm)]
    if gaps and _over(_amax(gaps), _ID_TOL * scale):
        raise NumericalError("the two expressions for cm disagree")
    if a_new is None:
        return

    scale = _max(1.0, _amax(bl), dm_max)
    h_cm = [h * c for c in cm]
    add1 = [bt + hdp - b - hc
            for bt, hdp, b, hc in zip(b_new, _prev(h_dm, ring, h * 0.0), bl, h_cm)]
    add2 = [alpha * at - hd - aa + hc for at, hd, aa, hc in zip(a_new, h_dm, alpha_a, h_cm)]
    if _over(_max(_amax(add1), _amax(add2)), _ADD_TOL * scale):
        raise NumericalError("drtl- addition formulas violated")


_DRTL_MINUS = (_drtl_minus, _drtl_minus_checks)


def drtl_minus_factors(s: FlaschkaState, alpha: float, h: float):
    """Superdiagonal coefficients (dm, cm) of the two upper factors of drtl-."""
    dm, cm, _ = _on_floats(_DRTL_MINUS, s, True, alpha, h)[2]
    return np.array(dm), np.array(cm)


def drtl_minus_step(s: FlaschkaState, alpha: float, h: float) -> FlaschkaState:
    a, b, _ = _on_floats(_DRTL_MINUS, s, False, alpha, h)
    return s.replace(a=a, b=b)


# the public factor-map steps and their (step half, check half)
_HALVES = {dtl_step: _DTL, drtl_plus_step: _DRTL_PLUS, drtl_minus_step: _DRTL_MINUS}


def _bound(step, table):
    """(entry, params) of ``step`` if it is a public step in ``table``, or a
    ``functools.wraps`` wrapper of one (a profiler's, say), with its
    parameters bound by keyword as the ``systems`` rows bind them: the
    table's entry for it and the bound parameters in order.  None for any
    other step, which a caller then runs as it is."""
    if not isinstance(step, partial) or step.args:
        return None
    func = inspect.unwrap(step.func)
    if func not in table:
        return None
    try:
        params = inspect.signature(func).bind(None, **step.keywords).args[1:]
    except TypeError:
        return None
    return table[func], params


def _halves(step):
    """(step half, check half) of a bound factor-map step (dtl, drtl+,
    drtl-; see ``_bound``): functions of (a, b, ring) and of
    (ring, a, b, a~, b~, *factors) with the parameters bound.  None for any
    other step."""
    found = _bound(step, _HALVES)
    return None if found is None else tuple(partial(half, *found[1]) for half in found[0])


# Fewest steps a stack checks as columns: each operation of the check half
# is one numpy call per site, whatever the rows, so a shorter stack checks
# each step's floats in less time (below about 13 steps at n = 8 and 18 at
# n = 128 for drtl+, 6 for dtl).
_COLUMN_ROWS = 16


def _passes(check_half, ring, parts) -> bool:
    """Whether every step of a stack passes the check half: ``parts`` are
    the (B, n) arrays (a, b, a~, b~, *factors), row i of each that of step
    i, checked as columns (site k of every row is column k), or for fewer
    than _COLUMN_ROWS steps, step by step on floats.  Each row of a column
    takes the float value of its step, so a stack passes exactly when each
    of its steps does."""
    try:
        if len(parts[0]) < _COLUMN_ROWS:
            for k in range(len(parts[0])):
                check_half(ring, *(v[k].tolist() for v in parts))
        else:
            with np.errstate(all="ignore"):
                check_half(ring, *(list(v.T) for v in parts))
    except STEP_ERRORS:
        return False
    return True


def _factor_stack(halves, *args):
    """(a~, b~) of a factor map of (step half, check half) ``halves`` on
    (B, n) stacks, args (*params, a, b, boundary): its step half on the
    floats of each row, its check half once for the stack (``_passes``),
    which raises if a step fails it."""
    *params, a, b, boundary = args
    step_half, check_half = (partial(half, *params) for half in halves)
    ring = boundary is Boundary.PERIODIC
    taken = [(u, v, *factors) for u, v, factors in
             (step_half(ar, br, ring) for ar, br in zip(a.tolist(), b.tolist()))]
    parts = [np.array(part) for part in zip(*taken)]
    if not _passes(check_half, ring, [a, b, *parts]):
        raise NumericalError("a step of the stack fails its in-step checks")
    return parts[0], parts[1]


# ---------------------------------------------------------------------------
# explicit rational degenerations
# ---------------------------------------------------------------------------

def _drtl_plus_explicit(h: float, a: np.ndarray, b: np.ndarray, boundary: Boundary):
    """(a~, b~) of drtl+(h, h) on (..., n) stacks (``drtl_plus_explicit_step``)."""
    d = 1.0 + h * b + h * h * a
    _check(d, "1 + h b + h^2 a")
    d_prev = shifted(d, -1, boundary, fill=1.0)
    d_next = shifted(d, +1, boundary, fill=1.0)
    b_prev = shifted(b, -1, boundary)
    a_prev = shifted(a, -1, boundary)
    # expanded form of ((1 + h b_prev) d/d_prev - 1)/h: no small-h cancellation
    b_new = (b - b_prev + h * (a - a_prev) + b_prev * d) / d_prev
    return a * d_next / d, b_new


def drtl_plus_explicit_step(s: FlaschkaState, h: float) -> FlaschkaState:
    """drtl+(h, h): fully explicit birational discretization of the tl flow.

        1 + h b~_k = (1 + h b_{k-1}) D_k / D_{k-1},
        a~_k = a_k D_{k+1} / D_k,        D_k = 1 + h b_k + h^2 a_k.
    """
    return s.replace(*_drtl_plus_explicit(h, s.a, s.b, s.boundary))


def drtl_plus_explicit_inverse(s: FlaschkaState, h: float) -> FlaschkaState:
    """Invert drtl+(h, h) through 1 + h b~_k + h^2 a~_{k-1} = 1 + h b_k + h^2 a_k.

    With delta_k = (D_k - 1)/h = b~_k + h a~_{k-1}, the first step equation
    gives b_k = (delta_k - delta_{k+1} + b~_{k+1} D_k) / D_{k+1} and then
    a_k = (delta_k - b_k)/h: rounding errors grow like 1/h, not 1/h^2.  On
    open chains the fills b~_{n+1} = 0, D_{n+1} = 1 give b_n = delta_n, so
    a_n = 0 exactly.
    """
    delta = s.b + h * shifted(s.a, -1, s.boundary)
    d = 1.0 + h * delta       # equals D_k of the preimage
    _check(d, "reconstructed D")
    b = ((delta - shifted(delta, +1, s.boundary) + shifted(s.b, +1, s.boundary) * d)
         / shifted(d, +1, s.boundary, fill=1.0))
    return s.replace(a=(delta - b) / h, b=b)


def _drtl_minus_explicit(h: float, a: np.ndarray, b: np.ndarray, boundary: Boundary):
    """(a~, b~) of drtl-(-h, h) on (..., n) stacks (``drtl_minus_explicit_step``)."""
    a_prev = shifted(a, -1, boundary)
    e = 1.0 - h * b + h * h * a_prev
    _check(e, "1 - h b + h^2 a_prev")
    e_next = shifted(e, +1, boundary, fill=1.0)
    _check(e_next, "E_next")
    b_next = shifted(b, +1, boundary)
    # expanded form of (1 - (1 - h b_next) e/e_next)/h: no small-h cancellation
    b_new = (b - b_next + h * (a - a_prev) + b_next * e) / e_next
    return a * e / e_next, b_new


def drtl_minus_explicit_step(s: FlaschkaState, h: float) -> FlaschkaState:
    """drtl-(-h, h): the mirrored explicit rational discretization.

        1 - h b~_k = (1 - h b_{k+1}) E_k / E_{k+1},
        a~_k = a_k E_k / E_{k+1},        E_k = 1 - h b_k + h^2 a_{k-1}.
    """
    return s.replace(*_drtl_minus_explicit(h, s.a, s.b, s.boundary))


# the public steps with a stacked form, a function of (*params, a, b,
# boundary): a factor map's halves, an explicit map's numpy body
_STACKED = {**{step: partial(_factor_stack, halves) for step, halves in _HALVES.items()},
            drtl_plus_explicit_step: _drtl_plus_explicit,
            drtl_minus_explicit_step: _drtl_minus_explicit}


def step_stack(step, a: np.ndarray, b: np.ndarray, boundary: Boundary):
    """(a~, b~) stacks of one step of ``step``, a function of one
    FlaschkaState, on (B, n) stacks of a and b; row i is bitwise
    ``step(state i)``, or the call raises the error of the first row whose
    step raises.

    A bound factor-map step (see ``_bound``) runs its step half on the
    floats of each row and its check half once for the stack; a bound
    explicit step runs its numpy body on the stack.  A stack that fails the
    checks of a state on its way in or out, or whose stacked step raises,
    and any other step (a flow, say), run one row at a time through the
    public step (``core.on_stack``).
    """
    found = _bound(step, _STACKED)
    stacked = None if found is None else partial(found[0], *found[1])
    open_end = boundary is Boundary.OPEN
    return on_stack(stacked, step, FlaschkaState, a, b, boundary, open_end, open_end)
