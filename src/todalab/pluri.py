"""Quad equations, 3D consistency, and the closure machinery of commuting steps.

Three multi-affine quad polynomials in the vertex values (X, Y, U, V):

    I:    h(XY + UV) + YV + h^2 XU - (1 - h*lam) XV
    II:   alpha(XY + UV) + XV + alpha^2 YU - (1 - alpha*lam) XU
    III:  (h - alpha)(XY + UV) + (1 - alpha*lam) YU - (1 - h*lam) YV
            + h^2 (1 - alpha*lam) XV - alpha^2 (1 - h*lam) XU

They tile the faces of a cube so that I sits on (e2,e3)-faces, II on
(e1,e2)-faces and III on (e1,e3)-faces, with the corner roles

    I:   X = w(z), U = w(z+e2), V = w(z+e3), Y = w(z+e2+e3)
    II:  X = w(z), U = w(z+e1), V = w(z+e2), Y = w(z+e1+e2)
    III: V = w(z), X = w(z+e1), Y = w(z+e3), U = w(z+e1+e3)

and this six-tuple is 3D consistent.  Rearranged as three-leg forms around a
lattice site and combined with weights (+1, -1, -h, +h, -h, +h), the
spectral-parameter legs cancel identically and the long legs assemble the
seven-point equation of motion of the relativistic step.

The second half implements the corner-equation apparatus for commuting
one-parameter step families: corner residuals, superposition solves, closure
defects and the spectrality/conservation quantities, for the exponential
chain (1-form case) and its relativistic extension (three-point 2-form).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Boundary, CanonicalState
from .errors import BranchMismatch, DegenerateFace, DomainError
from .realizations import canonical_step, realization

_COEF_GUARD = 1e-13


# ---------------------------------------------------------------------------
# quad equations
# ---------------------------------------------------------------------------

def quad_value(face_type, h, alpha, lam, X, Y, U, V) -> float:
    if face_type == "I":
        return h * (X * Y + U * V) + Y * V + h * h * X * U - (1.0 - h * lam) * X * V
    if face_type == "II":
        return alpha * (X * Y + U * V) + X * V + alpha * alpha * Y * U - (1.0 - alpha * lam) * X * U
    if face_type == "III":
        return ((h - alpha) * (X * Y + U * V) + (1.0 - alpha * lam) * Y * U
                - (1.0 - h * lam) * Y * V + h * h * (1.0 - alpha * lam) * X * V
                - alpha * alpha * (1.0 - h * lam) * X * U)
    raise ValueError(f"unknown face type {face_type!r}")


def quad_solve(face_type, h, alpha, lam, **known) -> float:
    """Solve the face polynomial for the single missing vertex of X, Y, U, V."""
    missing = [r for r in ("X", "Y", "U", "V") if r not in known or known[r] is None]
    if len(missing) != 1:
        raise ValueError("exactly one of X, Y, U, V must be left unknown")
    role = missing[0]
    vals0 = {r: known.get(r) for r in ("X", "Y", "U", "V")}
    vals0[role] = 0.0
    c0 = quad_value(face_type, h, alpha, lam, **vals0)
    vals0[role] = 1.0
    c1 = quad_value(face_type, h, alpha, lam, **vals0) - c0
    if abs(c1) < _COEF_GUARD:
        raise DegenerateFace(f"face {face_type} is not solvable for {role}")
    return -c0 / c1


def cube_consistency(h, alpha, lam, w000, w100, w010, w001) -> float:
    """Max pairwise spread of the three top-corner values on one cube."""
    w110 = quad_solve("II", h, alpha, lam, X=w000, U=w100, V=w010)
    w011 = quad_solve("I", h, alpha, lam, X=w000, U=w010, V=w001)
    w101 = quad_solve("III", h, alpha, lam, V=w000, X=w100, Y=w001)
    top_a = quad_solve("II", h, alpha, lam, X=w001, U=w101, V=w011)
    top_b = quad_solve("I", h, alpha, lam, X=w100, U=w110, V=w101)
    top_c = quad_solve("III", h, alpha, lam, V=w010, X=w110, Y=w011)
    vals = (top_a, top_b, top_c)
    return float(max(vals) - min(vals))


def check_3d_consistency(h, alpha, lam, n_samples=100, seed=0,
                         value_range=(0.3, 2.0)) -> float:
    """Monte-Carlo sweep of cube_consistency over random positive corners."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        w = rng.uniform(value_range[0], value_range[1], 4)
        worst = max(worst, cube_consistency(h, alpha, lam, *w))
    return worst


# ---------------------------------------------------------------------------
# three-leg forms around one site of the triangular lattice
# ---------------------------------------------------------------------------

def _leg_n(f, h, lam):
    return f["Y"] / f["X"] + h * f["U"] / f["X"] - (1.0 - h * lam) * f["V"] / (f["V"] + h * f["X"])


def _leg_s(f, h, lam):
    return f["Y"] / f["X"] + h * f["Y"] / f["V"] - (1.0 - h * lam) * f["Y"] / (f["Y"] + h * f["U"])


def _leg_e(f, alpha, lam):
    return (alpha * f["Y"] / f["X"] + f["V"] / f["X"]
            - (1.0 - alpha * lam) * f["U"] / (f["X"] + alpha * f["U"]))


def _leg_w(f, alpha, lam):
    return (alpha * f["Y"] / f["X"] + f["Y"] / f["U"]
            - (1.0 - alpha * lam) * f["Y"] / (f["V"] + alpha * f["Y"]))


def _leg_nw(f, h, alpha, lam):
    r = f["X"] / f["Y"]
    return ((alpha - h) * r / (1.0 - h * alpha * r)
            - (1.0 - alpha * lam) * f["X"] / (f["V"] + alpha * f["X"])
            + (1.0 - h * lam) * f["X"] / (f["U"] + h * f["X"]))


def _leg_se(f, h, alpha, lam):
    r = f["X"] / f["Y"]
    return ((alpha - h) * r / (1.0 - h * alpha * r)
            - (1.0 - alpha * lam) * f["U"] / (f["Y"] + alpha * f["U"])
            + (1.0 - h * lam) * f["V"] / (f["Y"] + h * f["V"]))


def laplace_from_legs(faces: dict, h: float, alpha: float,
                      lambdas=(0.35, 1.15)) -> float:
    """Assemble the six three-leg forms around one site into the long-leg
    seven-point residual.

    ``faces`` maps the positions "N","S","E","W","NW","SE" to dicts with the
    vertex roles X, Y, U, V of that quadrilateral.  When the shared vertices
    of neighbouring faces carry equal values, the spectral legs cancel for
    every lam; the value is checked to be lam-independent and returned.
    """
    def assemble(lam):
        return (_leg_n(faces["N"], h, lam) - _leg_s(faces["S"], h, lam)
                - h * _leg_e(faces["E"], alpha, lam) + h * _leg_w(faces["W"], alpha, lam)
                - h * _leg_nw(faces["NW"], h, alpha, lam)
                + h * _leg_se(faces["SE"], h, alpha, lam))

    v0 = assemble(lambdas[0])
    v1 = assemble(lambdas[1])
    if abs(v0 - v1) > 1e-10 * max(1.0, abs(v0)):
        raise DomainError("short legs failed to cancel: inconsistent face data")
    return v0


def site_faces(k, x_prev, x, x_next, white) -> dict:
    """Face dictionaries around site k from three chain levels and white data.

    ``white`` provides the wave-function values as arrays U, V (lower level)
    and Ut, Vt (upper level); any consistent assignment works since the
    assembled combination is identical in them.
    """
    ex = np.exp
    return {
        "N": {"X": ex(x[k]), "Y": ex(x_next[k]), "U": white["Ut"][k + 1], "V": white["Vt"][k]},
        "S": {"X": ex(x_prev[k]), "Y": ex(x[k]), "U": white["U"][k + 1], "V": white["V"][k]},
        "E": {"X": ex(x[k]), "Y": ex(x[k + 1]), "U": white["V"][k + 1], "V": white["Ut"][k + 1]},
        "W": {"X": ex(x[k - 1]), "Y": ex(x[k]), "U": white["V"][k], "V": white["Ut"][k]},
        "NW": {"X": ex(x[k]), "Y": ex(x_next[k - 1]), "U": white["Vt"][k], "V": white["Ut"][k]},
        "SE": {"X": ex(x_prev[k + 1]), "Y": ex(x[k]), "U": white["V"][k + 1], "V": white["U"][k + 1]},
    }


# ---------------------------------------------------------------------------
# commuting exponential-chain steps: corner equations on a parameter square
# ---------------------------------------------------------------------------

def _exp_mixed_prev(x, xt, boundary):
    """e^{x_k - xt_{k-1}} with the open-end zero at k = 1."""
    if boundary is Boundary.PERIODIC:
        return np.exp(x - np.roll(xt, 1))
    out = np.zeros(len(x))
    out[1:] = np.exp(x[1:] - xt[:-1])
    return out


def _exp_mixed_next(x, xt, boundary):
    """e^{x_{k+1} - xt_k} with the open-end zero at k = n."""
    if boundary is Boundary.PERIODIC:
        return np.exp(np.roll(x, -1) - xt)
    out = np.zeros(len(x))
    out[:-1] = np.exp(x[1:] - xt[:-1])
    return out


@lru_cache(maxsize=64)
def _chain_spec(lam: float, alpha: float | None):
    if alpha is None:
        return realization("exp", lam)
    return realization("rel-exp-add", lam, alpha=alpha)


def chain_step(c: CanonicalState, lam: float, alpha: float | None = None) -> CanonicalState:
    """One commuting-family step: exponential chain (alpha None) or its
    relativistic extension, with step/family parameter lam."""
    return canonical_step(_chain_spec(float(lam), alpha), c)


@dataclass(frozen=True)
class CornerSystem1D:
    """Legs and slice action of the exponential-chain step family."""

    def psi(self, xi, lam):
        return np.expm1(xi) / lam

    def phi(self, xi, lam):
        return lam * np.exp(xi)

    def lagrangian(self, x, xt, lam, boundary) -> float:
        x = np.asarray(x, dtype=float)
        xt = np.asarray(xt, dtype=float)
        val = float(np.sum(np.expm1(xt - x) - (xt - x)) / lam)
        return val - lam * float(np.sum(_exp_mixed_next(x, xt, boundary)))

    def dlambda(self, x, xt, lam, boundary) -> float:
        x = np.asarray(x, dtype=float)
        xt = np.asarray(xt, dtype=float)
        val = -float(np.sum(np.expm1(xt - x) - (xt - x))) / lam ** 2
        return val - float(np.sum(_exp_mixed_next(x, xt, boundary)))


def corner_system_1d() -> CornerSystem1D:
    return CornerSystem1D()


def corner_residuals_1d(system, x, xt, xh, xth, lam, mu, boundary):
    """Residual vectors of the four corner equations on a parameter square."""
    x, xt, xh, xth = (np.asarray(v, dtype=float) for v in (x, xt, xh, xth))

    def one_sided(base, img, par):
        return system.psi(img - base, par) + par * _exp_mixed_prev(base, img, boundary)

    def upshift(base, img, par):
        return system.psi(img - base, par) + par * _exp_mixed_next(base, img, boundary)

    e = one_sided(x, xt, lam) - one_sided(x, xh, mu)
    ei = upshift(x, xt, lam) - one_sided(xt, xth, mu)
    ej = upshift(x, xh, mu) - one_sided(xh, xth, lam)
    eij = upshift(xh, xth, lam) - upshift(xt, xth, mu)
    return e, ei, ej, eij


def superposition_1d(x, xt, xh, lam, mu, boundary):
    """Closed-form fourth corner of the parameter square.

    The first superposition relation is affine in e^{xth_k}; the second is
    evaluated as a consistency check and must agree to 1e-8 (it differs from
    the first exactly by the base corner equation).
    """
    x, xt, xh = (np.asarray(v, dtype=float) for v in (x, xt, xh))
    # coefficient of e^{xth_k} and the constant term of relation S1
    coef = np.exp(-xh) / lam - np.exp(-xt) / mu
    const = (1.0 / lam - 1.0 / mu
             - lam * _exp_mixed_next(x, xt, boundary)
             + mu * _exp_mixed_next(x, xh, boundary))
    if np.min(np.abs(coef)) < _COEF_GUARD:
        raise DegenerateFace("superposition relation degenerates")
    val = const / coef
    if np.any(val <= 0.0):
        raise BranchMismatch("superposition produced a non-positive field")
    xth = np.log(val)

    # second relation, shifted form: psi-differences against long legs at level k+1
    s2 = (np.expm1(_next(xt, boundary) - _next(x, boundary)) / lam
          - np.expm1(_next(xh, boundary) - _next(x, boundary)) / mu
          + lam * _exp_mixed_next(xh, xth, boundary)
          - mu * _exp_mixed_next(xt, xth, boundary))
    if boundary is Boundary.OPEN:
        s2 = s2[:-1]
    if np.max(np.abs(s2)) > 1e-8:
        raise BranchMismatch("the two superposition relations disagree")
    return xth


def _next(v, boundary):
    if boundary is Boundary.PERIODIC:
        return np.roll(v, -1)
    return np.concatenate([v[1:], [v[-1]]])   # last entry unused on open chains


def closure_value_1d(system, x, xt, xh, xth, lam, mu, boundary) -> float:
    """Action defect around the parameter square (zero iff the 1-form closes)."""
    return (system.lagrangian(x, xt, lam, boundary)
            + system.lagrangian(xt, xth, mu, boundary)
            - system.lagrangian(x, xh, mu, boundary)
            - system.lagrangian(xh, xth, lam, boundary))


def spectrality_residual(system, pair_a, pair_b, lam, boundary) -> float:
    """Drift of the parameter-derivative of the slice action between two
    step pairs related by an independent family member."""
    da = system.dlambda(pair_a[0], pair_a[1], lam, boundary)
    db = system.dlambda(pair_b[0], pair_b[1], lam, boundary)
    return abs(da - db)


# ---------------------------------------------------------------------------
# relativistic extension: three-point 2-form corner system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThreePointForm2D:
    alpha: float

    # legs -------------------------------------------------------------
    def psi(self, xi, lam):
        return np.expm1(xi) / lam

    def psi0(self, xi):
        return self.alpha * np.exp(xi)

    def phi0(self, xi, lam):
        w = np.exp(xi)
        den = 1.0 - lam * self.alpha * w
        _require(den > 0, "leg pole: 1 - lam*alpha*e^xi <= 0")
        return (lam - self.alpha) * w / den

    def phi(self, xi, lam, mu):
        w = np.exp(xi)
        den = lam * w - mu
        _require(np.abs(den) > 1e-300, "leg pole: lam e^xi = mu")
        return (w - 1.0) / den

    # antiderivatives ----------------------------------------------------
    def Psi(self, xi, lam):
        return (np.expm1(xi) - xi) / lam

    def Psi0(self, xi):
        return self.alpha * np.exp(xi)

    def Phi0(self, xi, lam):
        arg = 1.0 - lam * self.alpha * np.exp(xi)
        _require(arg > 0, "leg pole: 1 - lam*alpha*e^xi <= 0")
        return -((lam - self.alpha) / (lam * self.alpha)) * np.log(arg)

    def Phi(self, xi, lam, mu):
        arg = np.abs(lam * np.exp(xi) - mu)
        _require(arg > 1e-300, "leg pole: lam e^xi = mu")
        return xi / mu + (mu - lam) / (lam * mu) * np.log(arg)

    # parameter derivatives ------------------------------------------------
    def dlambda_Psi(self, xi, lam):
        return -(np.expm1(xi) - xi) / lam ** 2

    def dlambda_Phi0(self, xi, lam):
        w = np.exp(xi)
        arg = 1.0 - lam * self.alpha * w
        _require(arg > 0, "leg pole")
        return ((lam - self.alpha) * w / (lam * arg)
                - np.log(arg) / lam ** 2)

    def dlambda_Phi(self, xi, lam, mu):
        w = np.exp(xi)
        den = lam * w - mu
        return (-1.0 / (lam * mu) + (w - 1.0) / (lam * den)
                - np.log(np.abs(den)) / lam ** 2)


def _require(cond, msg):
    if not np.all(cond):
        raise DomainError(msg)


def bt_rtl_form(alpha: float) -> ThreePointForm2D:
    return ThreePointForm2D(alpha)


def corner_residuals_2d(form, x, xt, xh, xth, lam, mu, boundary):
    """The six corner equations of one elementary cube plus the octahedron
    relation, sitewise; keys E (shifted one site up), E12, S1a, S1b, S2a,
    S2b, oct."""
    x, xt, xh, xth = (np.asarray(v, dtype=float) for v in (x, xt, xh, xth))
    al = form.alpha

    def base_leg(base, img, par):
        return form.psi(img - base, par) + _phi0_mixed_prev(form, base, img, par, boundary)

    e_site = (base_leg(x, xt, lam) - base_leg(x, xh, mu))
    e_up = _up(e_site, boundary)

    e12 = (form.psi(xth - xh, lam) + _phi0_mixed_next(form, xh, xth, lam, boundary)
           - form.psi(xth - xt, mu) - _phi0_mixed_next(form, xt, xth, mu, boundary))

    s1a = (form.psi(xth - xt, mu) + form.phi(xh - xt, lam, mu)
           - _psi0_next(form, xt, boundary) - _phi0_mixed_next(form, x, xt, lam, boundary))
    s1b = (form.psi(xth - xh, lam) + form.phi(xt - xh, mu, lam)
           - _psi0_next(form, xh, boundary) - _phi0_mixed_next(form, x, xh, mu, boundary))
    s2a = (_up(form.psi(xt - x, lam), boundary) + form.phi(_up(xt, boundary) - _up(xh, boundary), mu, lam)
           - _psi0_next(form, xt, boundary) - _phi0_up_mixed(form, xt, xth, mu, boundary))
    s2b = (_up(form.psi(xh - x, mu), boundary) + form.phi(_up(xh, boundary) - _up(xt, boundary), lam, mu)
           - _psi0_next(form, xh, boundary) - _phi0_up_mixed(form, xh, xth, lam, boundary))

    oct_res = (_up(np.exp(xt - x), boundary) / lam - _up(np.exp(xh - x), boundary) / mu
               - np.exp(xth - xh) / lam + np.exp(xth - xt) / mu
               + al * np.exp(_up(xh, boundary) - xh) - al * np.exp(_up(xt, boundary) - xt))
    if boundary is Boundary.OPEN:
        sl = slice(0, len(x) - 1)
        return {"E_up": e_up[sl], "E12": e12[sl], "S1a": s1a[sl], "S1b": s1b[sl],
                "S2a": s2a[sl], "S2b": s2b[sl], "oct": oct_res[sl]}
    return {"E_up": e_up, "E12": e12, "S1a": s1a, "S1b": s1b,
            "S2a": s2a, "S2b": s2b, "oct": oct_res}


def _up(v, boundary):
    if boundary is Boundary.PERIODIC:
        return np.roll(v, -1)
    return np.concatenate([v[1:], [v[-1]]])


def _psi0_next(form, x, boundary):
    if boundary is Boundary.PERIODIC:
        return form.psi0(np.roll(x, -1) - x)
    out = np.zeros(len(x))
    out[:-1] = form.psi0(x[1:] - x[:-1])
    return out


def _phi0_mixed_prev(form, base, img, par, boundary):
    if boundary is Boundary.PERIODIC:
        return form.phi0(base - np.roll(img, 1), par)
    out = np.zeros(len(base))
    out[1:] = form.phi0(base[1:] - img[:-1], par)
    return out


def _phi0_mixed_next(form, base, img, par, boundary):
    if boundary is Boundary.PERIODIC:
        return form.phi0(np.roll(base, -1) - img, par)
    out = np.zeros(len(base))
    out[:-1] = form.phi0(base[1:] - img[:-1], par)
    return out


def _phi0_up_mixed(form, level, img, par, boundary):
    """phi0(level_{k+1} - img_k; par)."""
    if boundary is Boundary.PERIODIC:
        return form.phi0(np.roll(level, -1) - img, par)
    out = np.zeros(len(level))
    out[:-1] = form.phi0(level[1:] - img[:-1], par)
    return out


def superposition_2d(form, x, xt, xh, lam, mu, boundary):
    """Solve relation S1a for the top corner (affine in e^{xth_k})."""
    x, xt, xh = (np.asarray(v, dtype=float) for v in (x, xt, xh))
    rhs = (_psi0_next(form, xt, boundary)
           + _phi0_mixed_next(form, x, xt, lam, boundary)
           - form.phi(xh - xt, lam, mu))
    arg = 1.0 + mu * rhs
    if np.any(arg <= 0.0):
        raise BranchMismatch("superposition produced a non-positive field")
    xth = xt + np.log(arg)
    res = corner_residuals_2d(form, x, xt, xh, xth, lam, mu, boundary)
    if max(np.max(np.abs(res["S1b"])), np.max(np.abs(res["oct"]))) > 1e-8:
        raise BranchMismatch("superposition relations disagree")
    return xth


def closure_values_2d(form, x, xt, xh, xth, lam, mu, boundary) -> np.ndarray:
    """Signed dL per elementary cube (zero iff the 2-form closes)."""
    x, xt, xh, xth = (np.asarray(v, dtype=float) for v in (x, xt, xh, xth))
    xu, xtu, xhu = _up(x, boundary), _up(xt, boundary), _up(xh, boundary)
    val = (form.Psi(xtu - xu, lam) - form.Psi(xhu - xu, mu)
           - form.Psi(xth - xh, lam) + form.Psi(xth - xt, mu)
           - form.Psi0(xtu - xt) + form.Psi0(xhu - xh)
           - form.Phi(xhu - xtu, lam, mu) + form.Phi(xh - xt, lam, mu)
           + form.Phi0(xhu - xth, lam) - form.Phi0(xtu - xth, mu)
           - form.Phi0(xu - xt, lam) + form.Phi0(xu - xh, mu))
    if boundary is Boundary.OPEN:
        val = val[:-1]
    return val


def closure_value_2d(form, x, xt, xh, xth, lam, mu, boundary) -> float:
    return float(np.max(np.abs(closure_values_2d(form, x, xt, xh, xth, lam, mu, boundary))))


def conservation_residual_2d(form, x, xt, xh, xth, lam, mu, boundary) -> float:
    """Sitewise defect of the lattice conservation law tying the parameter
    derivative across the two directions of the cube."""
    x, xt, xh, xth = (np.asarray(v, dtype=float) for v in (x, xt, xh, xth))
    al = form.alpha

    def R_i0(base, img):
        egap = _exp_mixed_next(base, img, boundary)
        return np.expm1(img - base) / lam + (lam - al) * egap / (1.0 - lam * al * egap)

    def S_i0(base, img):
        egap = _exp_mixed_next(base, img, boundary)
        arg = 1.0 - lam * al * egap
        _require(arg > 0, "leg pole in the conserved density")
        return (img - base) + np.log(arg)

    def R_ij(base, tilde, hat):
        den = lam * np.exp(hat) - mu * np.exp(tilde)
        _require(np.abs(den) > 1e-300, "conserved density pole")
        return np.expm1(tilde - base) / lam + (np.exp(hat) - np.exp(tilde)) / den

    def S_ij(base, tilde, hat):
        den = lam * np.exp(hat) - mu * np.exp(tilde)
        return -base + np.log(np.abs(den))

    f_i0 = R_i0(x, xt) - S_i0(x, xt) / lam
    f_i0_hat = R_i0(xh, xth) - S_i0(xh, xth) / lam
    f_ij = R_ij(x, xt, xh) - S_ij(x, xt, xh) / lam
    res = (f_i0_hat - f_i0) - (_up(f_ij, boundary) - f_ij)
    if boundary is Boundary.OPEN:
        res = res[1:-1]
    return float(np.max(np.abs(res)))
