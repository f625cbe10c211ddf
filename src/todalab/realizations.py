"""Canonical (x, p) charts of the lattice maps and their leg functions.

Every chart in the catalog pairs three ingredients:

* a map (x, p) -> (a, b) onto the Flaschka phase space, pushing the
  canonical bracket onto one of the compatible brackets of poisson.py;
* leg functions psi, phi, psi0 of coordinate differences, with exact
  antiderivatives Psi, Phi, Psi0, defining the one-step equations

      p_k  = psi(x~_k - x_k) + phi(x_k - x~_{k-1}) [+ psi0 differences]
      p~_k = psi(x~_k - x_k) + phi(x_{k+1} - x~_k) [+ psi0 differences]

  in one of four arrangements (families): "dtl" has no psi0, "drtl_plus"
  puts the psi0 difference into the first equation, "drtl_minus" into the
  second, and "explicit" has no phi at all (the step is closed form);
* the map in (a, b) variables it realizes, the row of systems.SYSTEMS its
  family names, used as a cross-validation oracle (pullback_consistency).

Open chains use x_0 = +inf, x_{n+1} = -inf, which zeroes every leg of an
exponentiated gap; charts whose formulas do not degenerate that way
(difference, rational and hyperbolic charts) are periodic-only.

Charts and steps also act on (..., n) stacks of states, one state per row
(``chart_stack``, ``step_stack``): every formula is elementwise along the
last axis, and the chains of a step run site k of every row at once, so
row i of a stack is bitwise the result for state i alone.

All parameters (h, alpha, epsilon, beta) are bound when the Realization is
constructed: for the explicit family alpha = h ties even the phase-space
chart to the step size.  Each explicit-* chart is built from a relativistic
chart at alpha = h, where that chart's phi leg vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import count, repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import Boundary, CanonicalState, FlaschkaState, on_stack, random_canonical, shifted
from .errors import DomainError, NoRealBranch, NonInvertibleLeg, SolveFailed
from .maps import _CLOSURE_STEPS, _moebius_slope, _ring_chain, _ring_fixed_point
from .poisson import Bracket, _central_differences, combo
from .systems import SYSTEMS


# B_2k / (2k+1)!, k = 1..9: Li2(1 - e^-u) = u - u^2/4 + sum_k B_2k u^(2k+1) / (2k+1)!.
# For |u| <= log 2 the k = 9 term is below 1e-18 and the k = 10 term 5e-21.
_LI2_BERNOULLI = (1 / 36, -1 / 3600, 1 / 211680, -1 / 10886400, 1 / 526901760,
                  -691 / 16999766784000, 1 / 1120863744000,
                  -3617 / 181400588328960000, 43867 / 97072790126247936000)
_PI2_6 = np.pi ** 2 / 6


def _li2(z):
    """Real dilogarithm Li2(z), z <= 1 (arguments up to 1 + 1e-12 read as 1).

    Reflection Li2(z) = pi^2/6 - log z log(1-z) - Li2(1-z) for z > 1/2 and
    inversion Li2(z) = -pi^2/6 - log^2(-z)/2 - Li2(1/z) for z < -1 map every
    argument to y in [-1, 1/2], where the Bernoulli series in u = -log(1-y)
    ('t Hooft & Veltman 1979) is summed once for the whole array.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z > 1.0 + 1e-12):
        raise DomainError("dilogarithm argument exceeds 1")
    z = np.minimum(z, 1.0)
    reflect, invert = z > 0.5, z < -1.0
    y = np.where(reflect, 1.0 - z, z)
    np.divide(1.0, z, out=y, where=invert)
    u = -np.log1p(-y)
    u2 = u * u
    tail = _LI2_BERNOULLI[-1]
    for c in _LI2_BERNOULLI[-2::-1]:
        tail = tail * u2 + c
    series = u - 0.25 * u2 + u * u2 * tail
    mapped = reflect | invert
    log_z = np.log(np.abs(z), out=np.zeros_like(z), where=mapped)
    # log(1-z) where reflected (0 at z = 1), log(-z)/2 where inverted
    log_w = np.where(invert, 0.5 * log_z, 0.0)
    np.log(y, out=log_w, where=reflect & (y > 0.0))
    pi_term = np.where(reflect, _PI2_6, np.where(invert, -_PI2_6, 0.0))
    return pi_term - log_z * log_w + np.where(mapped, -series, series)


def _need(cond, msg, err=DomainError):
    if cond is True or cond is np.True_:
        return
    if not np.asarray(cond).all():
        raise err(msg)


def _coth(w):
    _need(np.abs(w) > 1e-300, "coth argument vanishes")
    return 1.0 / np.tanh(w)


def _log_sinh_integral(w):
    """Odd antiderivative of log|sinh|: S'(w) = log|sinh w|, S(0) = 0."""
    w = np.asarray(w, dtype=float)
    _need(np.abs(w) > 1e-300, "hyperbolic leg hits the sinh zero")
    aw = np.abs(w)
    s0 = 0.5 * aw * aw - aw * np.log(2.0) + 0.5 * _li2(np.exp(-2.0 * aw))
    return np.sign(w) * (s0 - 0.5 * _li2(1.0))


@dataclass(frozen=True)
class Legs:
    psi: Callable
    dpsi: Callable
    psi_inv: Callable
    Psi: Callable
    phi: Optional[Callable] = None
    dphi: Optional[Callable] = None
    Phi: Optional[Callable] = None
    psi0: Optional[Callable] = None
    Psi0: Optional[Callable] = None
    # (q, s) when psi(v) = expm1(v)/h and h*phi(u) = q e^u / (1 - s e^u): the
    # ring step is then a Moebius recurrence, seeded at its exact fixed point
    mobius: Optional[tuple] = None
    v_range: tuple = (-0.5, 0.5)   # sampling window for derivative checks
    u_range: tuple = (-1.0, 1.0)


@dataclass(frozen=True)
class Realization:
    name: str
    family: str                    # "dtl" | "drtl_plus" | "drtl_minus" | "explicit"
    h: float
    alpha: float
    legs: Legs
    bracket: object
    supports_open: bool
    chart: Callable                # (x, p, boundary) arrays -> (a, b) arrays
    hamiltonian: Optional[Callable] = None
    ordered_domain: bool = False   # chart requires strictly increasing x
    # Lagrangian slicing: False puts the psi0 difference on the base level
    # (first map equation), True on the image level (second map equation).
    # Charts that reference p_{k-1} (dual-type) realize their map through
    # the opposite slicing from the additive-exponential prototype.
    psi0_on_image: bool = False

    @property
    def system(self):
        """The row of systems.SYSTEMS whose map this chart realizes."""
        return SYSTEMS[_FAMILY_SYSTEM[self.family]]


# ---------------------------------------------------------------------------
# gap helpers
# ---------------------------------------------------------------------------

# Every helper below and every chart body works along the last axis of its
# arrays, so a (..., n) stack of states is evaluated row by row in one call.

def _gaps(x, boundary):
    """(x_k - x_{k-1}, x_{k+1} - x_k) on a ring; rejects open chains."""
    if boundary is not Boundary.PERIODIC:
        raise DomainError("this chart is defined on rings only")
    return x - shifted(x, -1, Boundary.PERIODIC), shifted(x, 1, Boundary.PERIODIC) - x


def _leg_at_mixed_next(fn, x, xt, boundary):
    """fn(x_{k+1} - xt_k) with the open-end zero at k = n."""
    if boundary is Boundary.PERIODIC:
        return fn(shifted(x, 1, Boundary.PERIODIC) - xt)
    out = np.zeros(x.shape)
    out[..., :-1] = fn(x[..., 1:] - xt[..., :-1])
    return out


def _leg_at_mixed_prev(fn, x, xt, boundary):
    """fn(x_k - xt_{k-1}) with the open-end zero at k = 1: the next leg shifted."""
    return shifted(_leg_at_mixed_next(fn, x, xt, boundary), -1, boundary)


def _exp_next(x, boundary):    # e^{x_{k+1} - x_k}, 0 at k = n
    return _leg_at_mixed_next(np.exp, x, x, boundary)


def _exp_prev(x, boundary):    # e^{x_k - x_{k-1}}, 0 at k = 1
    return _leg_at_mixed_prev(np.exp, x, x, boundary)


# ---------------------------------------------------------------------------
# leg builders
# ---------------------------------------------------------------------------

def _legs_exp(h):
    def psi_inv(y):
        _need(1.0 + h * y > 0, "step equation has no real solution", NonInvertibleLeg)
        return np.log1p(h * y)
    return Legs(
        psi=lambda v: np.expm1(v) / h,
        dpsi=lambda v: np.exp(v) / h,
        psi_inv=psi_inv,
        Psi=lambda v: (np.expm1(v) - v) / h,
        phi=lambda u: h * np.exp(u),
        dphi=lambda u: h * np.exp(u),
        Phi=lambda u: h * np.exp(u),
        mobius=(h * h, 0.0),
        v_range=(-0.8, 0.8), u_range=(-1.5, 1.0))


def _legs_dual(h):
    def psi(v):
        _need(v / h > 0, "log leg needs v/h > 0")
        return np.log(v / h)
    def phi(u):
        _need(1.0 + h * u > 0, "log leg needs 1 + h u > 0")
        return np.log1p(h * u)
    return Legs(
        psi=psi, dpsi=lambda v: 1.0 / v, psi_inv=lambda y: h * np.exp(y),
        Psi=lambda v: v * np.log(v / h) - v,
        phi=phi, dphi=lambda u: h / (1.0 + h * u),
        Phi=lambda u: (1.0 + h * u) * np.log1p(h * u) / h - u,
        v_range=(0.2 * h, 4.0 * h), u_range=(-1.0, 1.0))


def _psi_log_expm1(h):
    def psi(v):
        _need(v * h > 0, "log leg needs (e^v - 1)/h > 0")
        return np.log(np.expm1(v) / h)
    def Psi(v):
        _need(v > 0, "antiderivative domain is v > 0")
        return 0.5 * v * v + _li2(np.exp(-v)) - v * np.log(h)
    return psi, (lambda v: np.exp(v) / np.expm1(v)), (lambda y: np.log1p(h * np.exp(y))), Psi


def _legs_mod_exp(h):
    psi, dpsi, psi_inv, Psi = _psi_log_expm1(h)
    return Legs(
        psi=psi, dpsi=dpsi, psi_inv=psi_inv, Psi=Psi,
        phi=lambda u: np.log1p(h * np.exp(u)),
        dphi=lambda u: h * np.exp(u) / (1.0 + h * np.exp(u)),
        Phi=lambda u: -_li2(-h * np.exp(u)),
        v_range=(0.05, 1.0), u_range=(-1.5, 1.0))


def _psi_eps_family(h, eps):
    """psi(v) = (1/eps) log(1 + (eps/h)(e^v - 1)) and its antiderivative."""
    def psi(v):
        arg = 1.0 + (eps / h) * np.expm1(v)
        _need(arg > 0, "eps-family leg outside domain")
        return np.log(arg) / eps
    def dpsi(v):
        return np.exp(v) / (h + eps * np.expm1(v))
    def psi_inv(y):
        arg = 1.0 + (h / eps) * np.expm1(eps * y)
        _need(arg > 0, "step equation has no real solution", NonInvertibleLeg)
        return np.log(arg)
    def Psi(v):
        q = (h - eps) / eps
        return (v * np.log(eps / h) + 0.5 * v * v + _li2(-q * np.exp(-v))) / eps
    return psi, dpsi, psi_inv, Psi


def _legs_mod_exp_eps(h, eps):
    psi, dpsi, psi_inv, Psi = _psi_eps_family(h, eps)
    return Legs(
        psi=psi, dpsi=dpsi, psi_inv=psi_inv, Psi=Psi,
        phi=lambda u: np.log1p(h * eps * np.exp(u)) / eps,
        dphi=lambda u: h * np.exp(u) / (1.0 + h * eps * np.exp(u)),
        Phi=lambda u: -_li2(-h * eps * np.exp(u)) / eps,
        v_range=(0.05, 0.8), u_range=(-1.0, 1.0))


def _psi_hyperbolic(beta, shift):
    """psi(v) = (1/2beta) log(sinh(v + shift)/sinh(v - shift)), v > shift > 0."""
    def psi(v):
        ratio = np.sinh(np.asarray(v) + shift) / np.sinh(np.asarray(v) - shift)
        _need(ratio > 0, "hyperbolic leg outside domain (|v| <= shift)")
        return np.log(ratio) / (2.0 * beta)
    def dpsi(v):
        return (_coth(v + shift) - _coth(v - shift)) / (2.0 * beta)
    def psi_inv(y):
        r = np.exp(2.0 * beta * np.asarray(y))
        _need(np.abs(r - 1.0) > 1e-300, "hyperbolic leg not invertible here", NonInvertibleLeg)
        arg = np.tanh(shift) * (r + 1.0) / (r - 1.0)
        _need(np.abs(arg) < 1.0, "hyperbolic leg not invertible here", NonInvertibleLeg)
        return np.arctanh(arg)
    def Psi(v):
        return (_log_sinh_integral(np.asarray(v) + shift)
                - _log_sinh_integral(np.asarray(v) - shift)) / (2.0 * beta)
    return psi, dpsi, psi_inv, Psi


def _reparametrized(beta, t):
    """Step or family parameter t of a multiplicative-hyperbolic chart in its
    additive form: -log(1 - 4 beta t) / (4 beta)."""
    return -np.log(1.0 - 4.0 * beta * t) / (4.0 * beta)


def _legs_hyp_mult(h, beta):
    _need(1.0 - 4.0 * beta * h > 0, "reparametrized step undefined: 4*beta*h >= 1")
    s = beta * _reparametrized(beta, h)
    psi, dpsi, psi_inv, Psi = _psi_hyperbolic(beta, s)
    return Legs(
        psi=psi, dpsi=dpsi, psi_inv=psi_inv, Psi=Psi,
        phi=psi, dphi=dpsi, Phi=Psi,
        v_range=(s + 0.15, s + 1.0), u_range=(s + 0.15, s + 1.0))


def _psi_rational_log(h, domain_msg="rational-log leg needs |v| > |h|"):
    def psi(v):
        ratio = (np.asarray(v) + h) / (np.asarray(v) - h)
        _need(ratio > 0, domain_msg)
        return 0.5 * np.log(ratio)
    def dpsi(v):
        return 0.5 * (1.0 / (v + h) - 1.0 / (v - h))
    def psi_inv(y):
        _need(np.abs(np.tanh(y)) > 1e-300, "leg not invertible at 0", NonInvertibleLeg)
        return h / np.tanh(y)
    def Psi(v):
        v = np.asarray(v)
        return 0.5 * ((v + h) * np.log(np.abs(v + h)) - (v - h) * np.log(np.abs(v - h)))
    return psi, dpsi, psi_inv, Psi


def _legs_rat_mult(h):
    psi, dpsi, psi_inv, Psi = _psi_rational_log(h)
    return Legs(psi=psi, dpsi=dpsi, psi_inv=psi_inv, Psi=Psi,
                phi=psi, dphi=dpsi, Phi=Psi,
                v_range=(h + 0.1, h + 1.0), u_range=(h + 0.1, h + 1.0))


def _reciprocal_leg(c):
    """c/v, its derivative and its antiderivative c log|v|."""
    return (lambda v: c / v), (lambda v: -c / np.asarray(v) ** 2), (lambda v: c * np.log(np.abs(v)))


def _legs_rat_add(h):
    def inv(y):
        _need(np.abs(y) > 1e-300, "leg not invertible at 0", NonInvertibleLeg)
        return h / y
    psi, dpsi, Psi = _reciprocal_leg(h)
    return Legs(psi=psi, dpsi=dpsi, psi_inv=inv, Psi=Psi, phi=psi, dphi=dpsi, Phi=Psi,
                v_range=(0.15, 1.0), u_range=(0.15, 1.0))


# relativistic leg sets ------------------------------------------------------

def _legs_rel_exp_add_plus(h, alpha):
    def off_pole(u):   # e^u where phi and Phi are defined
        w = np.exp(u)
        _need(1.0 - h * alpha * w > 0, "leg pole: 1 - h*alpha*e^u <= 0")
        return w
    def phi(u):
        w = off_pole(u)
        return (h - alpha) * w / (1.0 - h * alpha * w)
    return replace(   # the kinetic leg of the exponential chart
        _legs_exp(h), phi=phi,
        dphi=lambda u: (h - alpha) * np.exp(u) / (1.0 - h * alpha * np.exp(u)) ** 2,
        Phi=lambda u: -((h - alpha) / (h * alpha)) * np.log1p(-h * alpha * off_pole(u)),
        mobius=(h * (h - alpha), h * alpha),
        psi0=lambda u: alpha * np.exp(u), Psi0=lambda u: alpha * np.exp(u))


def _legs_rel_exp_add_minus(h, alpha):
    c = h + alpha
    def psi(v):
        w = np.expm1(v)
        den = h - alpha * w
        _need(np.abs(den) > 1e-300, "leg pole: h = alpha (e^v - 1)")
        return w / den
    def dpsi(v):   # libm's pow squares a float and a column alike (maps._moebius_slope)
        return h * np.exp(v) / np.float_power(h - alpha * np.expm1(v), 2)
    def psi_inv(y):
        den = 1.0 + alpha * y
        _need(np.abs(den) > 1e-300, "step equation has no real solution", NonInvertibleLeg)
        arg = 1.0 + h * y / den
        _need(arg > 0, "step equation has no real solution", NonInvertibleLeg)
        return np.log(arg)
    def Psi(v):
        den = c - alpha * np.exp(v)
        _need(den > 0, "antiderivative domain exceeded")
        return -np.asarray(v) / c - (h / (alpha * c)) * np.log(den)
    return Legs(
        psi=psi, dpsi=dpsi, psi_inv=psi_inv, Psi=Psi,
        phi=lambda u: c * np.exp(u), dphi=lambda u: c * np.exp(u), Phi=lambda u: c * np.exp(u),
        psi0=lambda u: -alpha * np.exp(u), Psi0=lambda u: -alpha * np.exp(u),
        v_range=(-0.5, 0.25), u_range=(-1.5, 1.0))


def _legs_ruijsenaars(h, alpha):
    psi, dpsi, psi_inv, Psi = _psi_eps_family(h, alpha)
    def phi(u):
        arg = 1.0 - alpha * (h - alpha) * np.exp(u)
        _need(arg > 0, "leg pole: 1 - alpha(h - alpha) e^u <= 0")
        return -np.log(arg) / alpha
    return Legs(
        psi=psi, dpsi=dpsi, psi_inv=psi_inv, Psi=Psi,
        phi=phi,
        dphi=lambda u: (h - alpha) * np.exp(u) / (1.0 - alpha * (h - alpha) * np.exp(u)),
        Phi=lambda u: _li2(alpha * (h - alpha) * np.exp(u)) / alpha,
        psi0=lambda u: np.log1p(alpha * alpha * np.exp(u)) / alpha,
        Psi0=lambda u: -_li2(-alpha * alpha * np.exp(u)) / alpha,
        v_range=(-0.2, 0.8), u_range=(-1.5, 1.0))


def _legs_rel_dual_plus(h, alpha):
    def phi(u):
        _need((1.0 + h * u > 0) & (1.0 + alpha * u > 0), "log leg outside domain")
        return np.log1p(h * u) - np.log1p(alpha * u)
    def psi0(u):
        _need(1.0 + alpha * u > 0, "log leg needs 1 + alpha u > 0")
        return np.log1p(alpha * u)
    return replace(
        _legs_dual(h), phi=phi,
        dphi=lambda u: h / (1.0 + h * u) - alpha / (1.0 + alpha * u),
        Phi=lambda u: ((1.0 + h * u) * np.log1p(h * u) / h
                       - (1.0 + alpha * u) * np.log1p(alpha * u) / alpha),
        psi0=psi0,
        Psi0=lambda u: (1.0 + alpha * u) * np.log1p(alpha * u) / alpha - u)


def _legs_rel_dual_minus(h, alpha):
    c = alpha * (alpha + h)
    def psi(v):
        den = h + c * v
        _need((v > 0) & (den > 0), "log leg outside domain")
        return np.log(v) - np.log(den)
    def psi_inv(y):
        den = 1.0 - c * np.exp(y)
        _need(den > 0, "step equation has no real solution", NonInvertibleLeg)
        return h * np.exp(y) / den
    def Psi(v):
        den = h + c * v
        _need((v > 0) & (den > 0), "antiderivative domain exceeded")
        return v * np.log(v) - den * np.log(den) / c
    def phi(u):
        _need(1.0 + (h + alpha) * u > 0, "log leg outside domain")
        return np.log1p((h + alpha) * u)
    return Legs(
        psi=psi, dpsi=lambda v: 1.0 / v - c / (h + c * v), psi_inv=psi_inv, Psi=Psi,
        phi=phi, dphi=lambda u: (h + alpha) / (1.0 + (h + alpha) * u),
        Phi=lambda u: (1.0 + (h + alpha) * u) * np.log1p((h + alpha) * u) / (h + alpha) - u,
        psi0=lambda u: -np.log1p(alpha * u),
        Psi0=lambda u: -((1.0 + alpha * u) * np.log1p(alpha * u) / alpha - u),
        v_range=(0.2 * h, 4.0 * h), u_range=(-1.0, 1.0))


def _legs_rel_mod_plus(h, alpha):
    return replace(
        _legs_mod_exp(h),
        phi=lambda u: np.log1p(h * np.exp(u)) - np.log1p(alpha * np.exp(u)),
        dphi=lambda u: (h * np.exp(u) / (1.0 + h * np.exp(u))
                        - alpha * np.exp(u) / (1.0 + alpha * np.exp(u))),
        Phi=lambda u: -_li2(-h * np.exp(u)) + _li2(-alpha * np.exp(u)),
        psi0=lambda u: np.log1p(alpha * np.exp(u)),
        Psi0=lambda u: -_li2(-alpha * np.exp(u)))


def _legs_rel_mod_minus(h, alpha):
    c = h + alpha
    def psi(v):
        w = np.expm1(v)
        den = c - alpha * np.exp(v)
        _need((w * h > 0) & (den > 0), "log leg outside domain")
        return np.log(w) - np.log(den)
    def dpsi(v):
        return np.exp(v) / np.expm1(v) + alpha * np.exp(v) / (c - alpha * np.exp(v))
    def psi_inv(y):
        return np.log1p(h * np.exp(y) / (1.0 + alpha * np.exp(y)))
    def Psi(v):
        v = np.asarray(v)
        return (0.5 * v * v + _li2(np.exp(-v)) - v * np.log(c)
                + _li2((alpha / c) * np.exp(v)))
    return Legs(
        psi=psi, dpsi=dpsi, psi_inv=psi_inv, Psi=Psi,
        phi=lambda u: np.log1p(c * np.exp(u)),
        dphi=lambda u: c * np.exp(u) / (1.0 + c * np.exp(u)),
        Phi=lambda u: -_li2(-c * np.exp(u)),
        psi0=lambda u: -np.log1p(alpha * np.exp(u)),
        Psi0=lambda u: _li2(-alpha * np.exp(u)),
        v_range=(0.05, 0.25), u_range=(-1.5, 1.0))


def _legs_rel_exp_gen(h, alpha, eps):
    c1 = h * (eps - alpha)
    c2 = alpha * (eps - h)
    def phi(u):
        w = np.exp(u)
        _need((1.0 + c1 * w > 0) & (1.0 + c2 * w > 0), "leg pole")
        return (np.log1p(c1 * w) - np.log1p(c2 * w)) / eps
    return replace(
        _legs_mod_exp_eps(h, eps), phi=phi,
        dphi=lambda u: (c1 * np.exp(u) / (1.0 + c1 * np.exp(u))
                        - c2 * np.exp(u) / (1.0 + c2 * np.exp(u))) / eps,
        Phi=lambda u: (-_li2(-c1 * np.exp(u)) + _li2(-c2 * np.exp(u))) / eps,
        psi0=lambda u: np.log1p(eps * alpha * np.exp(u)) / eps,
        Psi0=lambda u: -_li2(-eps * alpha * np.exp(u)) / eps)


def _legs_rel_hyp_mult(h, alpha, beta):
    _need((1.0 - 4.0 * beta * h > 0) & (1.0 - 4.0 * beta * alpha > 0),
          "reparametrized step undefined")
    h0 = _reparametrized(beta, h)
    a0 = _reparametrized(beta, alpha)
    s_psi = beta * h0
    s_phi = beta * (h0 - a0)
    s_psi0 = beta * a0
    psi, dpsi, psi_inv, Psi = _psi_hyperbolic(beta, s_psi)

    def make_pair(shift):
        if shift >= 0:
            f, df, _, F = _psi_hyperbolic(beta, shift)
            return f, df, F
        g, dg, _, G = _psi_hyperbolic(beta, -shift)
        return (lambda u: -g(u)), (lambda u: -dg(u)), (lambda u: -G(u))

    phi, dphi, Phi = make_pair(s_phi)
    psi0, _, Psi0 = make_pair(s_psi0)
    lo = max(s_psi, abs(s_phi), s_psi0) + 0.15
    return Legs(psi=psi, dpsi=dpsi, psi_inv=psi_inv, Psi=Psi,
                phi=phi, dphi=dphi, Phi=Phi, psi0=psi0, Psi0=Psi0,
                v_range=(lo, lo + 0.8), u_range=(lo, lo + 0.8))


def _legs_rel_rat_mult(h, alpha):
    msg = "rational-log leg outside domain"
    phi, dphi, _, Phi = _psi_rational_log(h - alpha, msg)
    psi0, _, _, Psi0 = _psi_rational_log(alpha, msg)
    lo = max(h, abs(h - alpha), alpha) + 0.15
    return replace(_legs_rat_mult(h), phi=phi, dphi=dphi, Phi=Phi, psi0=psi0, Psi0=Psi0,
                   u_range=(lo, lo + 1.0))


def _legs_rel_rat_add(h, alpha):
    phi, dphi, Phi = _reciprocal_leg(h - alpha)
    psi0, _, Psi0 = _reciprocal_leg(alpha)
    return replace(_legs_rat_add(h), phi=phi, dphi=dphi, Phi=Phi, psi0=psi0, Psi0=Psi0,
                   u_range=(0.3, 1.3))


# ---------------------------------------------------------------------------
# phase-space charts
# ---------------------------------------------------------------------------

# Each chart body maps (x, p, boundary) arrays to the (a, b) arrays of the
# chart; flaschka_of wraps it for one state.

def _chart_exp(x, p, boundary):
    return _exp_next(x, boundary), p


def _chart_dual(x, p, boundary):
    gp, _ = _gaps(x, boundary)
    return np.exp(p), gp


def _chart_mod_exp(x, p, boundary):
    a = _exp_next(x, boundary) * np.exp(p)
    b = np.exp(p) + _exp_prev(x, boundary)
    return a, b


def _chart_hyp_mult(beta):
    def chart(x, p, boundary):
        gp, gn = _gaps(x, boundary)
        _need((np.abs(gp) > 1e-300) & (np.abs(gn) > 1e-300),
              "hyperbolic chart needs distinct neighbours")
        _need(np.abs(p) > 1e-300, "hyperbolic chart needs p != 0")
        a = beta ** 2 * (_coth(gp) + 1.0) * (_coth(gn) - 1.0) / np.sinh(beta * p) ** 2
        cp = _coth(beta * p)
        cp_prev = shifted(cp, -1, Boundary.PERIODIC)
        b = (-beta * (cp + 1.0) * (_coth(gp) + 1.0)
             - beta * (cp_prev - 1.0) * (_coth(gp) - 1.0))
        return a, b
    return chart


def _chart_rat(s, r):
    """The rational chart over (s, r) = (sinh, coth) (rat-mult) or (p, 1/p) (rat-add)."""
    def chart(x, p, boundary):
        gp, gn = _gaps(x, boundary)
        _need((np.abs(gp) > 1e-300) & (np.abs(gn) > 1e-300), "chart needs distinct neighbours")
        _need(np.abs(p) > 1e-300, "chart needs p != 0")
        rp = r(p)
        a = 1.0 / (gp * gn * s(p) ** 2)
        b = -(shifted(rp, -1, Boundary.PERIODIC) + rp) / gp
        return a, b
    return chart


def _reciprocal(p):
    _need(np.abs(p) > 1e-300, "chart needs p != 0")
    return 1.0 / p


def _chart_rel_exp_add(alpha):
    def chart(x, p, boundary):
        b = p - alpha * _exp_prev(x, boundary)
        return _exp_next(x, boundary), b
    return chart


def _chart_ruijsenaars(alpha):
    def chart(x, p, boundary):
        b = np.expm1(alpha * p) / alpha
        a = _exp_next(x, boundary) * np.exp(alpha * p)
        return a, b
    return chart


def _chart_rel_dual(alpha):
    def chart(x, p, boundary):
        gp, _ = _gaps(x, boundary)
        b = gp - alpha * np.exp(shifted(p, -1, Boundary.PERIODIC))
        return np.exp(p), b
    return chart


def _chart_rel_exp_gen(alpha, eps):
    """The eps-deformed chart; at alpha = 0 it is the chart of mod-exp-eps."""
    def chart(x, p, boundary):
        b = np.expm1(eps * p) / eps + (eps - alpha) * _exp_prev(x, boundary)
        a = _exp_next(x, boundary) * np.exp(eps * p)
        return a, b
    return chart


def _chart_rel_hyp_mult(alpha, beta):
    eps = 1.0 / (4.0 * beta)
    a0 = _reparametrized(beta, alpha)
    def chart(x, p, boundary):
        gp, gn = _gaps(x, boundary)
        _need(np.abs(gn - beta * a0) > 1e-300, "hyperbolic chart hits a coth pole")
        y = -2.0 * beta * (_coth(beta * p + beta * a0) + 1.0)
        z = 2.0 * beta * (_coth(gn - beta * a0) - 1.0)
        y_prev = shifted(y, -1, Boundary.PERIODIC)
        z_prev = shifted(z, -1, Boundary.PERIODIC)
        du = 1.0 - eps * alpha * y_prev * z_prev
        dv = 1.0 - eps * alpha * y * z
        _need((np.abs(du) > 1e-300) & (np.abs(dv) > 1e-300), "chart denominator vanishes")
        u = y * (1.0 + eps * z_prev) / du
        v = z * (1.0 + eps * y) / dv
        return u * v, u + shifted(v, -1, Boundary.PERIODIC)
    return chart


def _chart_rel_rat(alpha, s, r):
    """The relativistic rational chart over (s, r) as in ``_chart_rat``."""
    def chart(x, p, boundary):
        gp, gn = _gaps(x, boundary)
        rp = r(p)
        rp_prev = shifted(rp, -1, Boundary.PERIODIC)
        dp = gp + alpha * rp_prev
        dn = gn + alpha * rp
        _need((np.abs(dp) > 1e-300) & (np.abs(dn) > 1e-300), "chart denominator vanishes")
        a = 1.0 / (s(p) ** 2 * dp * dn)
        b = -(rp_prev + rp) / dp
        return a, b
    return chart


# ---------------------------------------------------------------------------
# Hamilton functions (spectral functions written in the chart)
# ---------------------------------------------------------------------------

def _ham_exp(c):
    return 0.5 * float(np.sum(c.p ** 2)) + float(np.sum(_exp_next(c.x, c.boundary)))


def _ham_rel_exp_add_plus(alpha):
    def ham(c):
        en = _exp_next(c.x, c.boundary)
        return float(0.5 * np.sum(c.p ** 2) + np.sum((1.0 + alpha * c.p) * en))
    return ham


def _ham_rel_exp_add_minus(alpha):
    def ham(c):
        ep = _exp_prev(c.x, c.boundary)
        arg = 1.0 + alpha * c.p - alpha * alpha * ep
        _need(arg > 0, "Hamilton function outside its log domain")
        return float(np.sum(c.p) / alpha - np.sum(np.log(arg)) / alpha ** 2)
    return ham


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

class _Params(NamedTuple):
    h: float
    alpha: float
    epsilon: float
    beta: float
    minus: bool          # the drtl_minus leg set


class _Row(NamedTuple):
    families: tuple         # the first is the default
    supports_open: bool
    ordered: bool
    build: Callable         # _Params -> (legs, chart, bracket, hamiltonian)
    dual_type: bool = False   # see Realization.psi0_on_image
    nonzero: tuple = ()       # the parameters its legs or chart divide by


_DTL, _PLUS, _PLUS_MINUS = ("dtl",), ("drtl_plus",), ("drtl_plus", "drtl_minus")

_CHARTS = {
    "exp": _Row(_DTL, True, False,
            lambda q: (_legs_exp(q.h), _chart_exp, Bracket("tl1"), _ham_exp)),
    "dual": _Row(_DTL, False, False,
             lambda q: (_legs_dual(q.h), _chart_dual, Bracket("tl1"), None)),
    "mod-exp": _Row(_DTL, True, False,
                lambda q: (_legs_mod_exp(q.h), _chart_mod_exp, Bracket("tl2"), None)),
    "mod-exp-eps": _Row(_DTL, True, False, lambda q: (
        _legs_mod_exp_eps(q.h, q.epsilon), _chart_rel_exp_gen(0.0, q.epsilon),
        combo((1.0, Bracket("tl1")), (q.epsilon, Bracket("tl2"))), None),
        nonzero=("epsilon",)),
    "hyp-mult": _Row(_DTL, False, True, lambda q: (
        _legs_hyp_mult(q.h, q.beta), _chart_hyp_mult(q.beta),
        combo((-1.0, Bracket("tl3")), (-4.0 * q.beta, Bracket("tl2"))), None),
        nonzero=("beta",)),
    "rat-mult": _Row(_DTL, False, True, lambda q: (
        _legs_rat_mult(q.h), _chart_rat(np.sinh, _coth), combo((-1.0, Bracket("tl3"))),
        None)),
    "rat-add": _Row(_DTL, False, True, lambda q: (
        _legs_rat_add(q.h), _chart_rat(np.asarray, _reciprocal),
        combo((-1.0, Bracket("tl3"))), None)),
    "rel-exp-add": _Row(_PLUS_MINUS, True, False, lambda q: (
        (_legs_rel_exp_add_minus if q.minus else _legs_rel_exp_add_plus)(q.h, q.alpha),
        _chart_rel_exp_add(q.alpha), Bracket("rtl1", q.alpha),
        (_ham_rel_exp_add_minus if q.minus else _ham_rel_exp_add_plus)(q.alpha))),
    "ruijsenaars": _Row(_PLUS, True, False, lambda q: (
        _legs_ruijsenaars(q.h, q.alpha), _chart_ruijsenaars(q.alpha),
        combo((1.0, Bracket("rtl1", q.alpha)), (q.alpha, Bracket("rtl2"))), None),
        nonzero=("alpha",)),
    "rel-dual": _Row(_PLUS_MINUS, False, False, lambda q: (
        (_legs_rel_dual_minus if q.minus else _legs_rel_dual_plus)(q.h, q.alpha),
        _chart_rel_dual(q.alpha), Bracket("rtl1", q.alpha), None), dual_type=True),
    "rel-mod": _Row(_PLUS_MINUS, True, False, lambda q: (
        (_legs_rel_mod_minus if q.minus else _legs_rel_mod_plus)(q.h, q.alpha),
        _chart_mod_exp, Bracket("rtl2"), None)),
    "rel-exp-gen": _Row(_PLUS, True, False, lambda q: (
        _legs_rel_exp_gen(q.h, q.alpha, q.epsilon), _chart_rel_exp_gen(q.alpha, q.epsilon),
        combo((1.0, Bracket("rtl1", q.alpha)), (q.epsilon, Bracket("rtl2"))), None),
        nonzero=("epsilon",)),
    "rel-hyp-mult": _Row(_PLUS, False, True, lambda q: (
        _legs_rel_hyp_mult(q.h, q.alpha, q.beta), _chart_rel_hyp_mult(q.alpha, q.beta),
        combo((-1.0, Bracket("rtl3", q.alpha)), (-4.0 * q.beta, Bracket("rtl2"))), None),
        nonzero=("beta",)),
    "rel-rat-mult": _Row(_PLUS, False, True, lambda q: (
        _legs_rel_rat_mult(q.h, q.alpha), _chart_rel_rat(q.alpha, np.sinh, _coth),
        combo((-1.0, Bracket("rtl3", q.alpha))), None)),
    "rel-rat-add": _Row(_PLUS, False, True, lambda q: (
        _legs_rel_rat_add(q.h, q.alpha), _chart_rel_rat(q.alpha, np.asarray, _reciprocal),
        combo((-1.0, Bracket("rtl3", q.alpha))), None)),
}


def _explicit(counterpart, own=lambda q: {}):
    """Row of an explicit chart: the drtl_plus chart `counterpart` at alpha = h,
    whose phi leg vanishes there, so it is dropped; `own(params)` gives the
    leg fields the explicit chart keeps of its own (a different kinetic leg,
    sampling window or domain message), computed first.  It binds alpha = h,
    so alpha = 0 is no error for it."""
    row = _CHARTS[counterpart]

    def build(q):
        kept = own(q)
        legs, chart, bracket, _ = row.build(q._replace(alpha=q.h, minus=False))
        return (replace(legs, phi=None, dphi=None, Phi=None, mobius=None, **kept),
                chart, bracket, None)
    return row._replace(families=("explicit",), build=build,
                        nonzero=tuple(p for p in row.nonzero if p != "alpha"))


def _linear_kinetic(q):
    # explicit-b's psi(v) = v/h; ruijsenaars' at alpha = h is log(e^v)/h, not bitwise v/h
    h = q.h
    return dict(psi=lambda v: np.asarray(v) / h,
                dpsi=lambda v: np.full_like(np.asarray(v, dtype=float), 1.0 / h),
                psi_inv=lambda y: h * np.asarray(y),
                Psi=lambda v: np.asarray(v) ** 2 / (2.0 * h), v_range=(-0.8, 0.8))


def _hyp_mult_windows(q):
    legs = _legs_hyp_mult(q.h, q.beta)
    return dict(v_range=legs.v_range, u_range=legs.u_range)


_CHARTS.update({
    "explicit-a": _explicit("rel-exp-add"),
    "explicit-b": _explicit("ruijsenaars", _linear_kinetic),
    "explicit-c": _explicit("rel-dual"),
    "explicit-d": _explicit("rel-mod"),
    "explicit-e": _explicit("rel-hyp-mult", _hyp_mult_windows),
    "explicit-f": _explicit("rel-rat-mult", lambda q: dict(
        psi0=_psi_rational_log(q.h)[0], u_range=(q.h + 0.1, q.h + 1.0))),
    "explicit-g": _explicit("rel-rat-add", lambda q: dict(u_range=(0.15, 1.0))),
})

CATALOG = tuple(_CHARTS)

# the map each family realizes, a row of systems.SYSTEMS
_FAMILY_SYSTEM = {"dtl": "dtl", "drtl_plus": "drtl+", "drtl_minus": "drtl-",
                  "explicit": "drtl+explicit"}


def realization(name: str, h: float, *, alpha: float = 0.3, epsilon: float = 0.2,
                beta: float = 0.1, family: str | None = None) -> Realization:
    """Build a catalog chart with all parameters bound.

    ``family`` defaults to "dtl" for the non-relativistic charts,
    "drtl_plus" for the relativistic ones and "explicit" for explicit-*;
    rel-exp-add, rel-dual and rel-mod also accept family="drtl_minus".
    """
    if name not in _CHARTS:
        raise ValueError(f"unknown realization {name!r}")
    row = _CHARTS[name]
    family = family or row.families[0]
    if family not in row.families:
        raise ValueError(f"{name} supports the families {'/'.join(row.families)}")
    params = _Params(h, alpha, epsilon, beta, family == "drtl_minus")
    for p in row.nonzero:
        if getattr(params, p) == 0.0:
            raise ValueError(f"{p} must be nonzero for the {name} chart")
    legs, chart, bracket, ham = row.build(params)
    lax_alpha = SYSTEMS[_FAMILY_SYSTEM[family]].lax_alpha(h, alpha)
    return Realization(name, family, h, 0.0 if lax_alpha is None else lax_alpha, legs,
                       bracket, row.supports_open, chart, ham, row.ordered,
                       psi0_on_image=params.minus != row.dual_type)


def chart_specs(h: float, *, alpha: float = 0.3, epsilon: float = 0.2,
                beta: float = 0.1) -> list:
    """The 25 chart specs: each catalog chart in its default family, the three
    charts with a drtl_minus leg set followed by that family."""
    return [realization(name, h, alpha=alpha, epsilon=epsilon, beta=beta, family=family)
            for name, row in _CHARTS.items() for family in row.families]


def chart_state(spec: Realization, n: int, seed: int, boundary=None) -> CanonicalState:
    """Seeded state inside the chart's domain, on an open chain unless the
    chart is periodic-only or ``boundary`` says otherwise."""
    if boundary is None:
        boundary = Boundary.OPEN if spec.supports_open else Boundary.PERIODIC
    if spec.ordered_domain:
        # p floor keeps the relativistic hyperbolic chart away from its
        # 1 - eps*alpha*y*z pole at the wrap site
        return random_canonical(n, boundary, seed, increasing=True,
                                gap_range=(0.8, 1.6), p_range=(0.8, 1.5))
    if spec.family == "drtl_minus" or spec.name in ("dual", "rel-dual", "explicit-c"):
        # difference charts put raw gaps into log legs, and the minus-family
        # kinetic leg has a finite range; keep configurations compact
        return random_canonical(n, boundary, seed, x_range=(-0.5, 0.5))
    return random_canonical(n, boundary, seed)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _check_boundary(spec, boundary):
    """The one guard of a periodic-only chart against an open chain."""
    if boundary is Boundary.OPEN and not spec.supports_open:
        raise DomainError(f"chart {spec.name} is periodic-only")


def flaschka_of(spec: Realization, c: CanonicalState) -> FlaschkaState:
    """The (a, b) state of the canonical state c."""
    return FlaschkaState(*_chart(spec, c.x, c.p, c.boundary), c.boundary)


def _chart(spec, x, p, boundary):
    _check_boundary(spec, boundary)
    return spec.chart(x, p, boundary)


def chart_stack(spec: Realization, x, p, boundary: Boundary):
    """(a, b) stacks of the chart on (..., n) stacks of positions and
    momenta; row i is bitwise ``flaschka_of`` of state i (see ``core.on_stack``)."""
    return on_stack(partial(_chart, spec), partial(flaschka_of, spec), CanonicalState, x, p,
                    boundary, open_out=boundary is Boundary.OPEN)


def _psi0_sums(spec, x, boundary):
    """psi0(x_k - x_{k-1}) - psi0(x_{k+1} - x_k) of a chart with a psi0 leg,
    each zero past an open end: psi0 of each gap once, shifted for the first."""
    nxt = _leg_at_mixed_next(spec.legs.psi0, x, x, boundary)
    return shifted(nxt, -1, boundary) - nxt


def _first_equation_rhs(spec, x, p, boundary):
    """p_k minus every term not involving x~; what psi + phi must equal."""
    if spec.legs.psi0 is not None and not spec.psi0_on_image:
        return p - _psi0_sums(spec, x, boundary)
    return p


def _step(spec, x, p, bc):
    """(x~, p~) of one step of the chart's map on (..., n) arrays.

    The first step equation psi(x~_k - x_k) + phi(x_k - x~_{k-1}) = rhs_k is
    a chain giving x~_k from x~_{k-1}: open chains run it forward from
    x~_1 = x_1 + psi_inv(rhs_1), rings solve it for one unknown, x~_n, by
    the closure Newton of ``maps._ring_chain`` (``_ring_step``).  Either way
    site k of every row is column k of the transposed arrays, stepped at
    once; a single ring is solved on floats.
    """
    _check_boundary(spec, bc)
    legs = spec.legs
    rhs = _first_equation_rhs(spec, x, p, bc)

    if legs.phi is None:   # the explicit family: a closed-form step
        xt = x + legs.psi_inv(rhs)
        pt = legs.psi(xt - x)
    elif bc is Boundary.OPEN:
        xs, rs = x.T, rhs.T
        xt = np.stack(_open_chain(_leg_sites(legs, xs, rs)[0], xs[0] + legs.psi_inv(rs[0]),
                                  len(xs)), axis=-1)
        pt = legs.psi(xt - x) + _leg_at_mixed_next(legs.phi, x, xt, bc)
    else:
        n = x.shape[-1]
        xs, rs = x.reshape(-1, n), rhs.reshape(-1, n)
        if len(xs) == 1:   # one ring: its float loop is faster than columns of one row
            xs, rs = xs[0], rs[0]
        xt, psi_v, phi_u = (part.reshape(x.shape) for part in _ring_step(spec, xs, rs))
        pt = psi_v + shifted(phi_u, 1, bc)   # phi(x_{k+1} - x~_k) is phi_u at k + 1
    if legs.psi0 is not None and spec.psi0_on_image:
        pt = pt - _psi0_sums(spec, xt, bc)
    return xt, pt


def canonical_step(spec: Realization, c: CanonicalState) -> CanonicalState:
    """One step of the chart's map (see ``_step``)."""
    return CanonicalState(*_step(spec, c.x, c.p, c.boundary), c.boundary)


def step_stack(spec: Realization, x, p, boundary: Boundary):
    """(x~, p~) stacks of one step of the chart's map on (..., n) stacks of
    positions and momenta; row i is bitwise ``canonical_step`` of state i
    (see ``core.on_stack``)."""
    return on_stack(partial(_step, spec), partial(canonical_step, spec), CanonicalState, x, p,
                    boundary)


def _open_chain(update, first, n: int) -> list:
    """Values of an open-chain recurrence v_k = update(k, v_{k-1}) from v_0 = first."""
    vals = [first]
    for k in range(1, n):
        vals.append(update(k, vals[-1]))
    return vals


def _leg_sites(legs, x, rhs):
    """Site update x~_k = x_k + psi_inv(rhs_k - phi(u_k)), u_k = x_k - x~_{k-1},
    and its slope dx~_k/dx~_{k-1} = dphi(u_k)/dpsi(v_k), v_k = x~_k - x_k;
    site k is x[k], a value or a column of values."""
    def update(k, prev):
        return x[k] + legs.psi_inv(rhs[k] - legs.phi(x[k] - prev))
    def site_slope(k, prev, val):
        return legs.dphi(x[k] - prev) / legs.dpsi(val - x[k])
    return update, site_slope


def _tolerance(rhs):
    """Inf-norm bound of a ring solve's residual, one for each row of a stack."""
    return 1e-12 * np.fmax(1.0, np.max(np.abs(rhs), axis=-1))


def _ring_step(spec, x, rhs):
    """(x~, psi(x~ - x), phi(x - x~_prev)) of a ring step by
    ``maps._ring_chain``, final once the step equation psi + phi = rhs holds
    to ``_tolerance(rhs)`` after a correction below it (relative to the
    closing value); the two legs are those of the accepted pass's residual.
    The chain runs in beta (``_mobius_sites``) for a Moebius leg pair, else
    in x~ (``_leg_sites``) seeded at x~_n of a pass with x~_{n-1} = x_{n-1};
    a seed, or a pass no halved correction keeps inside the leg domains,
    raises SolveFailed (the solver gave up: one pass does not show that no
    closing value exists); so does a last correction that closes the ring
    while the residual stays above it.  x and rhs may also be (rows, n)
    stacks of rings: each builder serves both, only the acceptance test has
    a form for each (``_accept_row``, ``_accept_rows``); a row that fails
    raises for the whole stack, whose rows ``step_stack`` then steps one at
    a time."""
    legs = spec.legs
    closes, accepted = (_accept_row if x.ndim == 1 else _accept_rows)(legs, x, rhs)
    try:
        if legs.mobius is None:
            update, site_slope = _leg_sites(legs, x.T, rhs.T)
            t = update(x.shape[-1] - 1, x.T[-2])
        else:
            update, site_slope, t = _mobius_sites(spec, x, rhs)
        _ring_chain(lambda v: _open_chain(update, update(0, v), len(x.T)), site_slope, closes, t)
        return tuple(accepted)
    except (DomainError, NonInvertibleLeg) as exc:
        raise SolveFailed(f"ring solver gave up: a pass leaves a leg domain ({exc})") from exc


def _accept_row(legs, x, rhs):
    """The ``closes`` test of a single ring's chain and the list it fills
    with the accepted (x~, psi, phi)."""
    tol = _tolerance(rhs)
    to_xt = np.array if legs.mobius is None else (lambda beta: x + np.log(beta))
    checks = count(1)
    accepted = []

    def closes(vals, step):
        last = next(checks) == _CLOSURE_STEPS      # _ring_chain gives up after it
        if abs(step) > tol * max(1.0, abs(vals[-1])):
            return False
        xt = to_xt(vals)
        psi_v = legs.psi(xt - x)
        phi_u = legs.phi(x - shifted(xt, -1, Boundary.PERIODIC))
        residual = float(np.max(np.abs(psi_v + phi_u - rhs)))
        if last and not residual < tol:
            raise SolveFailed(f"ring step residual {residual:.2g} stays above its tolerance "
                              f"{tol:.2g} although the ring closes")
        accepted[:] = xt, psi_v, phi_u
        return residual < tol
    return closes, accepted


def _accept_rows(legs, x, rhs):
    """``_accept_row`` of each row of a stack of rings solved as columns:
    a row is accepted, its (x~, psi, phi) recorded, at its first pass that
    meets the single ring's test, the legs evaluated on the rows that pass
    then; the chain closes once every row is accepted.  A row still open
    after the last correction leaves the stack unclosed."""
    tol = _tolerance(rhs)
    pending = np.ones(len(x), dtype=bool)
    accepted = [np.empty(x.shape) for _ in range(3)]

    def closes(vals, step):
        rows = pending & ~(np.abs(step) > tol * np.fmax(1.0, np.abs(vals[-1])))
        if rows.any():
            xr, xt = x[rows], np.stack(vals, axis=-1)[rows]
            if legs.mobius is not None:
                xt = xr + np.log(xt)
            psi_v = legs.psi(xt - xr)
            phi_u = legs.phi(xr - shifted(xt, -1, Boundary.PERIODIC))
            ok = np.max(np.abs(psi_v + phi_u - rhs[rows]), axis=-1) < tol[rows]
            done = np.flatnonzero(rows)[ok]
            for out, part in zip(accepted, (xt, psi_v, phi_u)):
                out[done] = part[ok]
            pending[done] = False
        return not pending.any()
    return closes, accepted


def _mobius_sites(spec, x, rhs):
    """Site update, slope and seed of the ring chain in beta_k = e^{x~_k - x_k}:
    with g_k = e^{x_k - x_{k-1}}, c_k = 1 + h rhs_k and the legs' (q, s),
    beta_k = c_k - q g_k / (beta_{k-1} - s g_k), the site matrix
    [[c_k, -(q + s c_k) g_k], [1, -s g_k]]; the seed is the attracting fixed
    point of their product (``maps._ring_fixed_point``).  One builder for a
    single ring, on Python floats, and for a (rows, n) stack, whose site k
    is a column, seeded by one column product.  A beta that is not
    positive, or a leg pole, raises NoRealBranch, naming its site on a
    single ring."""
    q, s = spec.legs.mobius
    with np.errstate(over="ignore"):   # a gap that overflows fails the ring product
        g = np.exp(x - shifted(x, -1, Boundary.PERIODIC))

    def site(r, gk):   # the site matrix at c_k = 1 + h rhs_k
        c = 1.0 + spec.h * r
        return c, -(q + s * c) * gk, 1.0, -s * gk

    if x.ndim == 1:   # one ring, on Python floats
        g, holds = g.tolist(), bool
        sites = list(map(site, rhs.tolist(), g))
        t = _ring_fixed_point(sites)
    else:             # a stack: site k is the column of the rows' entries k
        # s g of an infinite gap at s = 0 is NaN; a row whose product is not
        # finite fails the column seed
        with np.errstate(all="ignore"):
            m11, m12, _, m22 = site(rhs, g)
            sites = list(zip(m11.T, m12.T, repeat(1.0), m22.T))
            t = _ring_fixed_point(sites)
        g, holds = g.T, np.ndarray.all

    def no_branch(k, beta=None):
        if x.ndim > 1:
            return NoRealBranch("ring step has no real solution in a row of the stack")
        what = f"leg pole at site {k}" if beta is None else f"beta at site {k} is {beta:.3g}"
        return NoRealBranch(f"ring step has no real solution: {what}", site=k)

    if not holds(t > 0.0):
        raise no_branch(x.shape[-1] - 1, t)

    def update(k, prev):
        den = prev - s * g[k]
        if not holds(den > 0.0):
            raise no_branch(k)
        beta = sites[k][0] - q * g[k] / den
        if not holds(beta > 0.0):
            raise no_branch(k, beta)
        return beta

    return update, _moebius_slope(sites), t


def lagrangian_value(spec: Realization, x, xt, boundary: Boundary):
    """Discrete action of one time slice for the chart's family: a float, or
    of each row of (B, n) stacks x, xt, summed row by row, a (B,) array."""
    x, xt = np.asarray(x, dtype=float), np.asarray(xt, dtype=float)
    legs = spec.legs
    total = np.sum(legs.Psi(xt - x), axis=-1)
    if legs.Phi is not None:
        total = total - np.sum(_leg_at_mixed_next(legs.Phi, x, xt, boundary), axis=-1)
    if legs.Psi0 is not None:
        base = xt if spec.psi0_on_image else x
        total = total - np.sum(_leg_at_mixed_next(legs.Psi0, base, base, boundary), axis=-1)
    return total if np.ndim(total) else float(total)


def newtonian_residual(spec: Realization, x_prev, x, x_next, boundary: Boundary) -> np.ndarray:
    """Per-site defect of the three-level equation of motion."""
    x_prev, x, x_next = (np.asarray(v, dtype=float) for v in (x_prev, x, x_next))
    legs = spec.legs
    res = legs.psi(x_next - x) - legs.psi(x - x_prev)
    if legs.phi is not None:
        res = res - _leg_at_mixed_next(legs.phi, x_prev, x, boundary)   # phi(prev_{k+1} - x_k)
        res = res + _leg_at_mixed_prev(legs.phi, x, x_next, boundary)   # phi(x_k - next_{k-1})
    if legs.psi0 is not None:
        res = res + _psi0_sums(spec, x, boundary)
    return res


def pullback_consistency(spec: Realization, c: CanonicalState) -> float:
    """Inf-norm gap between chart-then-step and step-then-chart."""
    s = flaschka_of(spec, c)
    ct = canonical_step(spec, c)
    via_chart = flaschka_of(spec, ct)
    direct = spec.system.stepper(spec.h, spec.alpha)(s)
    return float(max(np.max(np.abs(via_chart.a - direct.a)),
                     np.max(np.abs(via_chart.b - direct.b))))


def symplectic_defect(spec: Realization, c: CanonicalState) -> float:
    """|| J^T Omega J - Omega ||_inf for the FD Jacobian of the step map."""
    n = c.n

    def step(w):   # the stencil's (x, p) rows stepped as one stack
        return np.concatenate(step_stack(spec, w[:, :n], w[:, n:], c.boundary), axis=-1)

    J = _central_differences(step, np.concatenate([c.x, c.p]), range(2 * n))
    omega = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    return float(np.max(np.abs(J.T @ omega @ J - omega)))
