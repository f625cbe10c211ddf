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
Every leg of one parameter is a leg of the step's chart, ``exp`` or
``rel-exp-add`` (``chain_spec``); only the two-parameter cross leg of the
2-form and its antiderivative are defined here.  The corner residuals take
one state's vectors or (B, n) stacks of them, one state per row, each row
bitwise that state alone; a stack raises the first error it meets, and a
caller that must raise the first failing row's passes its rows through
``core.by_rows``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import Boundary, CanonicalState, shifted, worst
from .errors import BranchMismatch, DegenerateFace, DomainError
from .realizations import (_leg_at_mixed_next, _leg_at_mixed_prev, _need, canonical_step,
                           lagrangian_value, realization)

_COEF_GUARD = 1e-13
_CORNER_RANGE = (0.3, 2.0)   # the corner values check_3d_consistency draws from


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
    return float(np.ptp((top_a, top_b, top_c)))   # NaN if a top value is


def check_3d_consistency(h, alpha, lam, n_samples=100, seed=0) -> float:
    """Monte-Carlo sweep of cube_consistency over random positive corners."""
    rng = np.random.default_rng(seed)
    return worst(cube_consistency(h, alpha, lam, *rng.uniform(*_CORNER_RANGE, 4))
                 for _ in range(n_samples))


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

@lru_cache(maxsize=64)
def chain_spec(lam: float, alpha: float | None):
    """Chart of the lam step, ``exp`` (alpha None) or ``rel-exp-add``: its legs
    are the one-parameter legs of every corner equation below."""
    if alpha is None:
        return realization("exp", lam)
    return realization("rel-exp-add", lam, alpha=alpha)


def chain_step(c: CanonicalState, lam: float, alpha: float | None = None) -> CanonicalState:
    """One commuting-family step: exponential chain (alpha None) or its
    relativistic extension, with step/family parameter lam."""
    return canonical_step(chain_spec(float(lam), alpha), c)


def _per_row(values):
    """Values of a residual's rows: an array for a stack, a float for one
    state."""
    return values if np.ndim(values) else float(values)


def _momenta(legs, base, img, boundary):
    """psi(img_k - base_k) + phi(base_k - img_{k-1}), and the same with
    phi(base_{k+1} - img_k): the momenta before and after a step, less psi0."""
    kin = legs.psi(img - base)
    return (kin + _leg_at_mixed_prev(legs.phi, base, img, boundary),
            kin + _leg_at_mixed_next(legs.phi, base, img, boundary))


def corner_residuals_1d(x, xt, xh, xth, lam, mu, boundary):
    """Residual vectors of the four corner equations on a parameter square:
    the steps leaving and reaching a corner agree on its momentum."""
    x, xt, xh, xth = (np.asarray(v, dtype=float) for v in (x, xt, xh, xth))
    legs_l, legs_m = chain_spec(lam, None).legs, chain_spec(mu, None).legs
    p_t, pt_t = _momenta(legs_l, x, xt, boundary)
    p_h, pt_h = _momenta(legs_m, x, xh, boundary)
    p_th, pt_th = _momenta(legs_m, xt, xth, boundary)
    p_ht, pt_ht = _momenta(legs_l, xh, xth, boundary)
    return p_t - p_h, pt_t - p_th, pt_h - p_ht, pt_ht - pt_th


def superposition_1d(x, xt, xh, lam, mu, boundary):
    """Closed-form fourth corner of the parameter square.

    The first superposition relation is affine in e^{xth_k}; the second is
    evaluated as a consistency check and must agree to 1e-8 (it differs from
    the first exactly by the base corner equation).
    """
    x, xt, xh = (np.asarray(v, dtype=float) for v in (x, xt, xh))
    legs_l, legs_m = chain_spec(lam, None).legs, chain_spec(mu, None).legs
    # coefficient of e^{xth_k} and the constant term of relation S1
    coef = np.exp(-xh) / lam - np.exp(-xt) / mu
    const = (1.0 / lam - 1.0 / mu
             - _leg_at_mixed_next(legs_l.phi, x, xt, boundary)
             + _leg_at_mixed_next(legs_m.phi, x, xh, boundary))
    if np.min(np.abs(coef)) < _COEF_GUARD:
        raise DegenerateFace("superposition relation degenerates")
    val = const / coef
    if np.any(val <= 0.0):
        raise BranchMismatch("superposition produced a non-positive field")
    xth = np.log(val)

    # second relation, shifted form: psi-differences against long legs at level k+1
    s2 = (legs_l.psi(_up(xt, boundary) - _up(x, boundary))
          - legs_m.psi(_up(xh, boundary) - _up(x, boundary))
          + _leg_at_mixed_next(legs_l.phi, xh, xth, boundary)
          - _leg_at_mixed_next(legs_m.phi, xt, xth, boundary))
    if boundary is Boundary.OPEN:
        s2 = s2[:-1]
    if np.max(np.abs(s2)) > 1e-8:
        raise BranchMismatch("the two superposition relations disagree")
    return xth


def closure_value_1d(x, xt, xh, xth, lam, mu, boundary):
    """Action defect around the parameter square (zero iff the 1-form
    closes), of each row of (B, n) stacks of the corners."""
    spec_l, spec_m = chain_spec(lam, None), chain_spec(mu, None)
    return (lagrangian_value(spec_l, x, xt, boundary)
            + lagrangian_value(spec_m, xt, xth, boundary)
            - lagrangian_value(spec_m, x, xh, boundary)
            - lagrangian_value(spec_l, xh, xth, boundary))


def action_derivative(x, xt, lam, boundary):
    """d/dlam of the exponential chain's slice action sum Psi - sum Phi: Psi
    scales as 1/lam and Phi as lam, so it is -(sum Psi + sum Phi)/lam; of
    each row of (B, n) stacks, the sums taken row by row."""
    x, xt = np.asarray(x, dtype=float), np.asarray(xt, dtype=float)
    legs = chain_spec(lam, None).legs
    return _per_row(-(np.sum(legs.Psi(xt - x), axis=-1)
                      + np.sum(_leg_at_mixed_next(legs.Phi, x, xt, boundary), axis=-1)) / lam)


def spectrality_residual(pair_a, pair_b, lam, boundary):
    """Drift of the parameter-derivative of the slice action between two
    step pairs related by an independent family member, of each row."""
    return abs(action_derivative(*pair_a, lam, boundary)
               - action_derivative(*pair_b, lam, boundary))


# ---------------------------------------------------------------------------
# relativistic extension: three-point 2-form corner system
# ---------------------------------------------------------------------------

def cross_phi(xi, lam, mu):
    """The two-parameter leg (e^xi - 1)/(lam e^xi - mu) tying a lam step to a
    mu step of the relativistic chain."""
    w = np.exp(xi)
    den = lam * w - mu
    _need(np.abs(den) > 1e-300, "leg pole: lam e^xi = mu")
    return (w - 1.0) / den


def cross_Phi(xi, lam, mu):
    """Antiderivative of cross_phi in xi."""
    arg = np.abs(lam * np.exp(xi) - mu)
    _need(arg > 1e-300, "leg pole: lam e^xi = mu")
    return xi / mu + (mu - lam) / (lam * mu) * np.log(arg)


def corner_residuals_2d(alpha, x, xt, xh, xth, lam, mu, boundary):
    """The six corner equations of one elementary cube plus the octahedron
    relation, sitewise along the last axis; keys E (shifted one site up),
    E12, S1a, S1b, S2a, S2b, oct."""
    x, xt, xh, xth = (np.asarray(v, dtype=float) for v in (x, xt, xh, xth))
    legs_l, legs_m = chain_spec(lam, alpha).legs, chain_spec(mu, alpha).legs

    def phi_next(legs, base, img):
        return _leg_at_mixed_next(legs.phi, base, img, boundary)

    e_up = _up(_momenta(legs_l, x, xt, boundary)[0] - _momenta(legs_m, x, xh, boundary)[0],
               boundary)
    e12 = (legs_l.psi(xth - xh) + phi_next(legs_l, xh, xth)
           - legs_m.psi(xth - xt) - phi_next(legs_m, xt, xth))

    psi0_t = _leg_at_mixed_next(legs_l.psi0, xt, xt, boundary)
    psi0_h = _leg_at_mixed_next(legs_l.psi0, xh, xh, boundary)
    xt_up, xh_up = _up(xt, boundary), _up(xh, boundary)
    s1a = (legs_m.psi(xth - xt) + cross_phi(xh - xt, lam, mu)
           - psi0_t - phi_next(legs_l, x, xt))
    s1b = (legs_l.psi(xth - xh) + cross_phi(xt - xh, mu, lam)
           - psi0_h - phi_next(legs_m, x, xh))
    s2a = (_up(legs_l.psi(xt - x), boundary) + cross_phi(xt_up - xh_up, mu, lam)
           - psi0_t - phi_next(legs_m, xt, xth))
    s2b = (_up(legs_m.psi(xh - x), boundary) + cross_phi(xh_up - xt_up, lam, mu)
           - psi0_h - phi_next(legs_l, xh, xth))

    oct_res = (_up(np.exp(xt - x), boundary) / lam - _up(np.exp(xh - x), boundary) / mu
               - np.exp(xth - xh) / lam + np.exp(xth - xt) / mu
               + alpha * np.exp(xh_up - xh) - alpha * np.exp(xt_up - xt))
    res = {"E_up": e_up, "E12": e12, "S1a": s1a, "S1b": s1b,
           "S2a": s2a, "S2b": s2b, "oct": oct_res}
    if boundary is Boundary.OPEN:
        return {key: val[..., :-1] for key, val in res.items()}
    return res


def _up(v, boundary):
    """v_{k+1}; on open chains the last entry of each row repeats its v_n and
    is never used."""
    return shifted(v, 1, boundary, fill=v[..., -1:])



def superposition_2d(alpha, x, xt, xh, lam, mu, boundary):
    """Solve relation S1a for the top corner (affine in e^{xth_k})."""
    x, xt, xh = (np.asarray(v, dtype=float) for v in (x, xt, xh))
    legs_l = chain_spec(lam, alpha).legs
    rhs = (_leg_at_mixed_next(legs_l.psi0, xt, xt, boundary)
           + _leg_at_mixed_next(legs_l.phi, x, xt, boundary)
           - cross_phi(xh - xt, lam, mu))
    arg = 1.0 + mu * rhs
    if np.any(arg <= 0.0):
        raise BranchMismatch("superposition produced a non-positive field")
    xth = xt + np.log(arg)
    res = corner_residuals_2d(alpha, x, xt, xh, xth, lam, mu, boundary)
    if max(np.max(np.abs(res["S1b"])), np.max(np.abs(res["oct"]))) > 1e-8:
        raise BranchMismatch("superposition relations disagree")
    return xth


def closure_values_2d(alpha, x, xt, xh, xth, lam, mu, boundary) -> np.ndarray:
    """Signed dL per elementary cube (zero iff the 2-form closes), along the
    last axis."""
    x, xt, xh, xth = (np.asarray(v, dtype=float) for v in (x, xt, xh, xth))
    legs_l, legs_m = chain_spec(lam, alpha).legs, chain_spec(mu, alpha).legs
    xu, xtu, xhu = _up(x, boundary), _up(xt, boundary), _up(xh, boundary)
    val = (legs_l.Psi(xtu - xu) - legs_m.Psi(xhu - xu)
           - legs_l.Psi(xth - xh) + legs_m.Psi(xth - xt)
           - legs_l.Psi0(xtu - xt) + legs_l.Psi0(xhu - xh)
           - cross_Phi(xhu - xtu, lam, mu) + cross_Phi(xh - xt, lam, mu)
           + legs_l.Phi(xhu - xth) - legs_m.Phi(xtu - xth)
           - legs_l.Phi(xu - xt) + legs_m.Phi(xu - xh))
    if boundary is Boundary.OPEN:
        val = val[..., :-1]
    return val


def closure_value_2d(alpha, x, xt, xh, xth, lam, mu, boundary):
    """Largest |dL| over the cubes of each row."""
    return _per_row(np.max(np.abs(closure_values_2d(alpha, x, xt, xh, xth, lam, mu, boundary)),
                           axis=-1))


def conservation_residual_2d(alpha, x, xt, xh, xth, lam, mu, boundary):
    """Largest sitewise defect of the lattice conservation law tying the
    parameter derivative across the two directions of the cube, of each
    row."""
    x, xt, xh, xth = (np.asarray(v, dtype=float) for v in (x, xt, xh, xth))
    legs_l = chain_spec(lam, alpha).legs

    def R_i0(base, img):
        return legs_l.psi(img - base) + _leg_at_mixed_next(legs_l.phi, base, img, boundary)

    def S_i0(base, img):
        egap = _leg_at_mixed_next(np.exp, base, img, boundary)
        arg = 1.0 - lam * alpha * egap
        _need(arg > 0, "leg pole in the conserved density")
        return (img - base) + np.log(arg)

    def R_ij(base, tilde, hat):
        den = lam * np.exp(hat) - mu * np.exp(tilde)
        _need(np.abs(den) > 1e-300, "conserved density pole")
        return np.expm1(tilde - base) / lam + (np.exp(hat) - np.exp(tilde)) / den

    def S_ij(base, tilde, hat):
        den = lam * np.exp(hat) - mu * np.exp(tilde)
        return -base + np.log(np.abs(den))

    f_i0 = R_i0(x, xt) - S_i0(x, xt) / lam
    f_i0_hat = R_i0(xh, xth) - S_i0(xh, xth) / lam
    f_ij = R_ij(x, xt, xh) - S_ij(x, xt, xh) / lam
    res = (f_i0_hat - f_i0) - (_up(f_ij, boundary) - f_ij)
    if boundary is Boundary.OPEN:
        res = res[..., 1:-1]
    return _per_row(np.max(np.abs(res), axis=-1))
