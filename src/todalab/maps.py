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

Each step runs in two halves.  The step half runs on the state's entries
as Python floats (the same IEEE double arithmetic as numpy, without its
per-call overhead on short vectors) in two loops over the sites: the factor
recurrence with its pivot test (one pass on an open chain, every closure
pass on a ring) and the update, forming a~, b~ and the check half's factors.
The check half runs every other guard and check (the pivot guards, the
two-expression identity, the addition formulas), written once on site-major
(n, B) arrays, one column per step.  The public steps run both halves on
every step, the check half on one column; ``verify.trajectory_blocks``
steps the step half alone and checks a block of steps in one call
(``_passes``), rerunning a failing block through the public step.  Each
value is formed by the same expression, in the same order, as the formulas
evaluated elementwise on numpy vectors, so each result is bitwise that of
the numpy evaluation and each failure raises the same error.  The public
``*_factors`` functions return the factors of the same pass as arrays.

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
below 1e-12 relative gives every factor (if none is, the seed's own pass,
when it is finite and closes exactly, as at a double root).  A ring whose
fixed-point quadratic has complex roots raises NoRealBranch.

The parameter coincidences alpha = h (plus) and alpha = -h (minus) collapse
the recurrences; the resulting explicit rational maps are provided
separately, together with the inverse of the explicit plus map.
"""

from __future__ import annotations

import inspect
import math
from functools import partial

import numpy as np

from .core import STEP_ERRORS, Boundary, FlaschkaState, on_stack, shifted
from .errors import (DomainError, NonInvertibleLeg, NoRealBranch, NumericalError,
                     SingularStep, SolveFailed)

_PIVOT = 1e-13          # singularity guard for denominators
_ID_TOL = 1e-12         # internal two-expression identity tolerance
_CLOSURE_STEPS = 8      # Newton corrections of a ring closure before it fails
_HALVINGS = 40          # halvings of a correction whose pass leaves a leg domain
_ADD_TOL = 1e-10        # addition-formula tolerance inside steps
_DOUBLE_ROOT = 4.0 * 2.0 ** -52   # rounding band of a ring's discriminant, relative to its terms


# The step kernels below run on lists of floats, each in two halves.  The
# step half returns (a~, b~, factors): factors are the lists besides a, b,
# a~ and b~ that the check half reads.  The check half runs on site-major
# (n, B) arrays, row k site k and column j step j: a block of B steps, or a
# public step as one column.  Its reductions run along the sites (axis 0),
# one value per step, and keep the NaN semantics of the vector formulas:
# np.min and np.max propagate a NaN entry of a step, while ``_max`` is
# Python's max of each step, which passes over a NaN after its first value.
# A block's arrays are transposed views of its (B, n) rows, so a reduction
# takes |vals| in C order first: along the sites of a view it is some ten
# times slower.  A product with an open-end fill is formed as in the vector
# formulas (h * 0.0, not 0.0): it is -0.0 or NaN for some parameters.

def _guard(vals: np.ndarray, what: str) -> None:
    """The one pivot guard: SingularStep if some step's |vals| falls below
    _PIVOT at a site.  vals are site-major, (n, B) or one state's (n,); a
    NaN entry disarms its step's guard, as in np.min."""
    if (np.abs(vals, order="C").min(axis=0) < _PIVOT).any():   # a NaN step compares False
        raise SingularStep(f"{what} fell below the singularity guard")


def _amax(vals: np.ndarray) -> np.ndarray:
    """``np.abs(v).max()`` of each step v: NaN if an entry is NaN."""
    return np.abs(vals, order="C").max(axis=0)


def _max(*vals):
    """Python's max of the values of each step (of each ring, for
    ``_ring_fixed_point``'s columns), which passes over a NaN after the
    first value."""
    top = vals[0]
    for v in vals[1:]:
        top = np.where(v > top, v, top)
    return top


def _regular(gaps: np.ndarray, den: np.ndarray, cut) -> np.ndarray:
    """The gaps of a factor's two expressions where the second one's
    denominator is regular, |den| > cut, and 0 elsewhere, where the gap
    formed at every site may be the inf or NaN of a degenerate 0/0."""
    return np.where(np.abs(den) > cut, gaps, 0.0)


def _prev(v: list, ring: bool, fill: float = 0.0) -> list:
    """Neighbour values v_{k-1}, the list form of ``shifted(v, -1, ...)``."""
    return [v[-1] if ring else fill] + v[:-1]


def _next(v: list, ring: bool, fill: float = 0.0) -> list:
    """Neighbour values v_{k+1}, the list form of ``shifted(v, +1, ...)``."""
    return v[1:] + [v[0] if ring else fill]


def _on_floats(halves, s: FlaschkaState, factor_only: bool, *params):
    """(a~, b~, factors) of a step: its step half run on the state's entries
    as Python floats (a~, b~ None with ``factor_only``), its check half on
    them as a block of one step.

    Python raises ZeroDivisionError on x/0 where numpy returns inf or nan.
    The step half divides by its denominators before the check half guards
    them, and the alpha = 0 form of drtl+ divides by h; a step half that
    divides by 0 reruns on numpy float64 scalars, which give numpy's IEEE
    results, with its floating-point warnings off: the guard or the state's
    check then raises its error, not a warning.
    """
    step_half, check_half = halves
    ring = s.boundary is Boundary.PERIODIC
    try:
        out = step_half(*params, s.a.tolist(), s.b.tolist(), ring, factor_only)
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = step_half(*params, list(s.a), list(s.b), ring, factor_only)
    formed = [s.a, s.b, *(() if factor_only else out[:2]), *out[2]]
    columns = list(np.array(formed)[..., None])   # each (n, 1): one step, site-major
    if factor_only:
        columns[2:2] = out[:2]
    with np.errstate(all="ignore"):
        check_half(*params, s.boundary, *columns)
    return out


_OVERFLOWED = "ring product of the Moebius sites overflowed or vanished"
_NOT_CLOSED = "ring recurrence does not close at its fixed point"


def _ring_fixed_point(sites, band=_DOUBLE_ROOT):
    """Attracting fixed point of a ring of Moebius site maps.

    Site k maps v_{k-1} to v_k = (m11 v_{k-1} + m12)/(m21 v_{k-1} + m22), the
    matrix (m11, m12, m21, m22) acting on (v_{k-1}, 1).  The ring closes at a
    fixed point t = v_n of the product P = M_n ... M_1, a root of
    P21 t^2 + (P22 - P11) t - P12 = 0.  Of the two real roots the attracting
    one, with the larger eigenvalue |P21 t + P22|, is the branch forward
    sweeps converge to and the one that stays continuous as h -> 0.  Raises
    NoRealBranch (with the discriminant) if the roots are complex, and
    SolveFailed if the product overflows or vanishes; NaN if P has no finite
    fixed point.  A discriminant below 0 by at most `band` times
    half_b^2 + |P12 P21| is a double root that rounding left complex and
    counts as 0; a caller whose ring then does not close calls it again
    with band 0 for the NoRealBranch of that discriminant.

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
    disc = top(disc, disc * (disc < -band * (half_b * half_b + abs(p12 * p21))))   # 0 in the band
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
    differs in the last bit of about one square in a thousand.  A float
    square that overflows, where pow raises OverflowError, fails the ring
    with SolveFailed."""
    square = np.float_power if isinstance(sites[0][0], np.ndarray) else pow

    def slope(k, prev, val):
        m11, m12, m21, m22 = sites[k]
        try:
            return (m11 * m22 - m12 * m21) / square(m21 * prev + m22, 2)
        except OverflowError as exc:
            raise SolveFailed(f"ring closure slope overflows at site {k}") from exc
    return slope


def _ring_chain(forward, site_slope, closes, t) -> list:
    """Values v_0 ... v_{n-1} of a cyclic recurrence, the one closure loop of
    every map and chart ring: ``forward(t)`` is a pass of the recurrence
    round the ring from a seed t for v_{n-1}.  Newton steps on the closure
    v_{n-1}(t) = t, with the product of the ``site_slope(k, v_{k-1}, v_k)``
    as derivative, each followed by a pass; a correction whose pass leaves
    a leg domain is halved up to _HALVINGS times.  The first corrected pass
    ``closes(vals, step)`` accepts, given the correction ``step`` just made,
    is final (a correction that leaves t as it is keeps the previous pass).

    t may also be a column, one seed for each row of a stack of rings whose
    site k is the column ``vals[k]``: every row runs the float arithmetic of
    its own loop.  A correction that moves any row re-passes the stack, the
    unmoved rows from their unchanged t, so each row's passes are bitwise
    those of its own loop.  A stacked pass is never halved: a row that
    leaves a leg domain raises for the stack, whose rows the caller then
    solves one at a time."""
    columns = isinstance(t, np.ndarray)
    vals = forward(t)
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
                        vals = forward(t)
                elif t + step != t:
                    vals, t = forward(t + step), t + step
                break
            except (DomainError, NonInvertibleLeg):
                if columns:
                    raise
                step *= 0.5
        else:
            raise SolveFailed("ring solver gave up: every halved correction leaves a leg domain")
        if closes(vals, step):
            return vals
    raise SolveFailed(_NOT_CLOSED)


def _moebius_chain(forward, inputs: list, sites) -> list:
    """``_ring_chain`` of passes ``forward(t, inputs)`` from the attracting
    fixed point of Moebius ``sites``, final when a pass closes at site 0 (the
    one site a pass leaves inexact) to 1e-12 relative: most rings after one
    correction, rings with sites of 1e4-1e8 after two to seven.  If no
    corrected pass closes, the seed's own pass is final when it is finite
    and closes exactly: at a double root the closure's slope is 1, so the
    first correction divides 0 by 0, or an ulp of residual by a 1 - slope
    of a few ulps, and the rest converge linearly.  A ring seeded at a
    double root that rounding left complex which then fails raises the
    NoRealBranch of its discriminant.  (A NaN in a map's pass reaches its
    closing value, so Python's max passing over it changes no decision.)"""
    def gap(vals):
        return abs(vals[0] - forward(vals[-1], inputs[:1])[0])

    def closes(vals, step):
        return gap(vals) <= 1e-12 * max(1.0, *map(abs, vals))
    seed = _ring_fixed_point(sites)
    try:
        return _ring_chain(lambda t: forward(t, inputs), _moebius_slope(sites), closes, seed)
    except NumericalError as exc:
        if str(exc) == _NOT_CLOSED:
            vals = forward(seed, inputs)
            if gap(vals) == 0.0 and all(map(math.isfinite, vals)):
                return vals
        _ring_fixed_point(sites, 0.0)   # raises if the seed was a rounded double root
        raise


def _lower_chain(h: float, coupling: float, what: str, al: list, bl: list, ring: bool):
    """Diagonal v_k = 1 + h b_k + coupling a_{k-1}/v_{k-1} of the lower factor
    of dtl (beta, coupling -h^2, as x - y is x + (-y) in IEEE) and drtl+ (d1)."""
    def forward(prev, inputs):      # (b_k, a_{k-1}) of each site
        vals = []
        for b, ap in inputs:
            if abs(prev) < _PIVOT:
                raise SingularStep(f"{what} recurrence hit a vanishing pivot")
            prev = 1.0 + h * b + coupling * ap / prev
            vals.append(prev)
        return vals

    if not ring:
        return [1.0 + h * bl[0]] + forward(1.0 + h * bl[0], zip(bl[1:], al))
    inputs = list(zip(bl, _prev(al, ring)))
    return _moebius_chain(forward, inputs, [(1.0 + h * b, coupling * ap, 1.0, 0.0)
                                            for b, ap in inputs])


# ---------------------------------------------------------------------------
# dtl(h)
# ---------------------------------------------------------------------------

def _dtl(h: float, al: list, bl: list, ring: bool, factor_only: bool = False):
    """Step half of dtl(h); its factors are (beta,)."""
    beta = _lower_chain(h, -(h * h), "beta", al, bl, ring)
    if factor_only:
        return None, None, (beta,)
    a_new, b_new = [], []
    rp = al[-1] / beta[-1] if ring else 0.0       # a_{k-1}/beta_{k-1}
    for a, b, be, bn in zip(al, bl, beta, _next(beta, ring, 1.0)):
        r = a / be
        b_new.append(b + h * (r - rp))
        a_new.append(a * bn / be)
        rp = r
    return a_new, b_new, (beta,)


def _dtl_checks(h: float, boundary: Boundary, al, bl, a_new, b_new, beta) -> None:
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
    d1 = _lower_chain(h, h * (alpha - h), "d1", al, bl, ring)
    # site k forms a~_{k-1} = a_{k-1} d2_k/d1_{k-1}: at k = 0 a ring's a~_{n-1}
    ha = h * alpha
    denom, d2, a_new = [], [], []
    dp, ap = (d1[-1], al[-1]) if ring else (1.0, 0.0)     # d1_{k-1}, a_{k-1}
    for a, d in zip(al, d1):
        de = dp + ha * ap
        e = dp * (d + ha * a) / de
        denom.append(de)
        d2.append(e)
        a_new.append(ap * e / dp)
        dp, ap = d, a
    if factor_only:     # b~ and the open end's a~ divide by the last d1, b~ by h
        return None, None, (d1, d2, denom)
    a_new = a_new[1:] + [a_new[0] if ring else ap * 1.0 / dp]
    if alpha == 0.0:
        # removable singularity: eliminate d2 between the two addition formulas
        b_new = [bn + (d - dn) / h for bn, d, dn in zip(_next(bl, ring), d1, _next(d1, ring, 1.0))]
    else:
        b_new = [((1.0 + alpha * b) * e / d - 1.0) / alpha for b, e, d in zip(bl, d2, d1)]
    return a_new, b_new, (d1, d2, denom)


def _drtl_plus_checks(alpha: float, h: float, boundary: Boundary, al, bl, a_new, b_new,
                      d1, d2, denom) -> None:
    """Check half of drtl+(alpha, h): the addition formulas only where the
    step half formed a~, b~."""
    _guard(d1, "d1")
    _guard(denom, "d1 + h*alpha*a")
    # cross-check against the equivalent second expression where it is regular
    h_one_ab = h * (1.0 + alpha * bl)
    h_one_ab_next = shifted(h_one_ab.T, +1, boundary, h * (1.0 + alpha * 0.0)).T
    d1_next = shifted(d1.T, +1, boundary, 1.0).T
    den2 = alpha * d1 - h_one_ab
    scale = _max(1.0, _amax(d2))
    gaps = _regular(d1 * (alpha * d1_next - h_one_ab_next) / den2 - d2, den2, 1e-8 * scale)
    if (_amax(gaps) > _ID_TOL * scale).any():
        raise NumericalError("the two expressions for d2 disagree")
    if a_new is None:
        return

    scale = _max(1.0, _amax(d1), _amax(bl))
    ha = h * alpha
    add1 = h * (1.0 + alpha * b_new) + alpha * d1_next - h_one_ab_next - alpha * d2
    add2 = d1 - ha * shifted(a_new.T, -1, boundary).T - d2 + ha * al
    if (_max(_amax(add1), _amax(add2)) > _ADD_TOL * scale).any():
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

    def forward(prev, inputs):      # (a_k, b_k) of each site
        dm = []
        for a, b in inputs:
            den = 1.0 + rate * (b - h * prev)
            if abs(den) < _PIVOT:
                raise SingularStep("dm recurrence hit a vanishing denominator")
            prev = a / den
            dm.append(prev)
        return dm

    inputs = list(zip(al, bl))
    dm = (_moebius_chain(forward, inputs, [(0.0, a, -rate * h, 1.0 + rate * b) for a, b in inputs])
          if ring else forward(0.0, inputs))     # a_0 = 0 before an open chain
    # a~ and b~ divide by the denominators of cm only: formed with factor_only too
    lower, cm, a_new, b_new = [], [], [], []
    dp = dm[-1] if ring else 0.0      # dm_{k-1}
    for b, d, bn in zip(bl, dm, _next(bl, ring)):
        u = b - h * dp                # b - h dm_prev
        w = bn - h * d                # b_next - h dm
        lo = 1.0 + alpha * w
        c = d * (1.0 + alpha * u) / lo
        lower.append(lo)
        cm.append(c)
        # exact rational form of (1 + alpha b~) = (1 + alpha b_next) * cm/dm,
        # free of the 0/0 at alpha = 0 and at open boundaries where dm_n = 0
        b_new.append((b + h * (d - dp) + alpha * bn * u) / lo)
        a_new.append(c * (1.0 + rate * w))
        dp = d
    return (None, None, (dm, cm, lower)) if factor_only else (a_new, b_new, (dm, cm, lower))


def _drtl_minus_checks(alpha: float, h: float, boundary: Boundary, al, bl, a_new, b_new,
                       dm, cm, lower) -> None:
    """Check half of drtl-(alpha, h): the addition formulas only where the
    step half formed a~, b~."""
    _guard(lower, "1 + alpha(b_next - h dm)")
    # second expression, checked away from its 0/0 degenerations (on open
    # chains the last site has no k+1 neighbour: its denominator is the fill 0)
    alpha_a, h_dm = alpha * al, h * dm
    a_dm = alpha_a + h_dm
    dm_max = _amax(dm)
    scale = _max(1.0, dm_max)
    den2 = shifted(a_dm.T, +1, boundary).T
    gaps = _regular(shifted(dm.T, +1, boundary).T * a_dm / den2 - cm, den2, 1e-8 * scale)
    if (_amax(gaps) > _ID_TOL * scale).any():
        raise NumericalError("the two expressions for cm disagree")
    if a_new is None:
        return

    scale = _max(1.0, _amax(bl), dm_max)
    h_cm = h * cm
    add1 = b_new + shifted(h_dm.T, -1, boundary, h * 0.0).T - bl - h_cm
    add2 = alpha * a_new - h_dm - alpha_a + h_cm
    if (_max(_amax(add1), _amax(add2)) > _ADD_TOL * scale).any():
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
    (boundary, a, b, a~, b~, *factors) with the parameters bound.  None for
    any other step."""
    found = _bound(step, _HALVES)
    return None if found is None else tuple(partial(half, *found[1]) for half in found[0])


def _passes(check_half, boundary, parts) -> bool:
    """Whether every step of a block passes the check half: ``parts`` are
    the (B, n) arrays (a, b, a~, b~, *factors), row i of each that of step
    i, checked transposed, site-major.  Each step's column takes the values
    of its own check, so a block passes exactly when each of its steps
    does."""
    try:
        with np.errstate(all="ignore"):
            check_half(boundary, *(v.T for v in parts))
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
    if not _passes(check_half, boundary, [a, b, *parts]):
        raise NumericalError("a step of the stack fails its in-step checks")
    return parts[0], parts[1]


# ---------------------------------------------------------------------------
# explicit rational degenerations
# ---------------------------------------------------------------------------

def _drtl_plus_explicit(h: float, a: np.ndarray, b: np.ndarray, boundary: Boundary):
    """(a~, b~) of drtl+(h, h) on (..., n) stacks (``drtl_plus_explicit_step``)."""
    d = 1.0 + h * b + h * h * a
    _guard(d.T, "1 + h b + h^2 a")
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
    _guard(d.T, "reconstructed D")
    b = ((delta - shifted(delta, +1, s.boundary) + shifted(s.b, +1, s.boundary) * d)
         / shifted(d, +1, s.boundary, fill=1.0))
    return s.replace(a=(delta - b) / h, b=b)


def _drtl_minus_explicit(h: float, a: np.ndarray, b: np.ndarray, boundary: Boundary):
    """(a~, b~) of drtl-(-h, h) on (..., n) stacks (``drtl_minus_explicit_step``)."""
    a_prev = shifted(a, -1, boundary)
    e = 1.0 - h * b + h * h * a_prev
    _guard(e.T, "1 - h b + h^2 a_prev")
    e_next = shifted(e, +1, boundary, fill=1.0)
    _guard(e_next.T, "E_next")
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
