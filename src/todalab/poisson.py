"""Compatible Poisson brackets on (b, a) and finite-difference verification.

Coordinates are ordered z = (b_1..b_n, a_1..a_n).  Six elementary bracket
families are provided; nonzero entries per site k (all others follow by
skew-symmetry, indices truncate on open chains and wrap on rings):

  tl1:   {b_k,a_k} = -a_k                {a_k,b_{k+1}} = -a_k
  tl2:   {b_k,a_k} = -b_k a_k            {a_k,b_{k+1}} = -a_k b_{k+1}
         {b_k,b_{k+1}} = -a_k            {a_k,a_{k+1}} = -a_k a_{k+1}
  tl3:   {b_k,a_k} = -a_k(b_k^2+a_k)     {a_k,b_{k+1}} = -a_k(b_{k+1}^2+a_k)
         {b_k,b_{k+1}} = -a_k(b_k+b_{k+1})
         {a_k,a_{k+1}} = -2 a_k a_{k+1} b_{k+1}
         {b_k,a_{k+1}} = -a_k a_{k+1}    {a_k,b_{k+2}} = -a_k a_{k+1}
  rtl1:  tl1 plus {b_k,b_{k+1}} = alpha a_k
  rtl2:  identical to tl2
  rtl3:  tl3 plus alpha-proportional corrections and {a_k,a_{k+2}} = -alpha a_k a_{k+1} a_{k+2}

Verification is finite-difference based throughout: a map Phi is a Poisson
map for Pi when J Pi(z) J^T = Pi(Phi(z)) with J the FD Jacobian.  Every FD
quotient in the package (here and in ``realizations.symplectic_defect``) is
formed by the one central-difference primitive ``_central_differences``, with
the fixed step h_i = _EPS3 max(1, |z_i|); there is no step option.  It
evaluates its whole stencil as one stack of points: the chart and chart-step
residuals chart or step that stack at once, the map and bracket residuals
take it one point at a time (``_each_row``).  The map and
involution residuals take a sequence of brackets and form their Jacobian or
gradients once per state.  On open chains the structural coordinate a_n is
frozen, so all FD sweeps run on the reduced chart (b_1..b_n, a_1..a_{n-1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Boundary, FlaschkaState, worst

_EPS3 = float(2.0 ** -52) ** (1.0 / 3.0)   # central-difference step factor


@dataclass(frozen=True)
class Bracket:
    kind: str            # "tl1","tl2","tl3","rtl1","rtl2","rtl3"
    alpha: float = 0.0


def combo(*terms):
    """Linear combination [(coef, Bracket), ...] usable wherever a Bracket is."""
    return tuple((float(c), br) for c, br in terms)


def bracket_matrix(kind, s: FlaschkaState) -> np.ndarray:
    """Poisson tensor Pi(z) in coordinates z = (b, a); exactly skew by fill.

    Each entry of ``_SITE_ENTRIES`` at each site k adds its value at (i, j)
    and subtracts it at (j, i), site after site and entry after entry: one
    np.bincount sums them from zero in that order, so entries that meet on
    rings of two or three sites add up as they come.
    """
    if isinstance(kind, tuple):
        out = np.zeros((2 * s.n, 2 * s.n))
        for coef, br in kind:
            out += coef * bracket_matrix(br, s)
        return out

    if kind.kind not in _SITE_ENTRIES:
        raise ValueError(f"unknown bracket kind {kind.kind!r}")
    n = s.n
    pairs, values = _SITE_ENTRIES[kind.kind]
    flat, order = _scatter(pairs, n, s.boundary is Boundary.PERIODIC)
    vals = np.array([values(kind.alpha, *site) for site in _sites(s)]).ravel()
    weights = np.concatenate((vals, -vals))[order]
    return np.bincount(flat, weights, minlength=4 * n * n).reshape(2 * n, 2 * n)


def _sites(s: FlaschkaState):
    """(a_k, b_k, a_{k+1}, b_{k+1}, a_{k+2}, b_{k+2}) of each site k as Python
    floats, neighbours taken round the ring (the table drops entries past an
    open end)."""
    a, b = s.a.tolist(), s.b.tolist()
    a1, b1 = a[1:] + a[:1], b[1:] + b[:1]
    return zip(a, b, a1, b1, a1[1:] + a1[:1], b1[1:] + b1[:1])


# z index of b_{k+d} (block 0) or a_{k+d} (block 1) at site k, as (block, d)
_B, _A, _B1, _A1, _B2, _A2 = (0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)

# Each elementary bracket as the (i, j) of its entries {z_i, z_j} at site k,
# in the order of the table above, and their values at site k from alpha and
# the site's ``_sites`` floats; a square is ``x ** 2`` of a float, libm's pow.
_SITE_ENTRIES = {
    "tl1": (((_B, _A), (_A, _B1)),
            lambda al, a, b, a1, b1, a2, b2: (-a, -a)),
    "tl2": (((_B, _A), (_A, _B1), (_B, _B1), (_A, _A1)),
            lambda al, a, b, a1, b1, a2, b2: (-b * a, -a * b1, -a, -a * a1)),
    "tl3": (((_B, _A), (_A, _B1), (_B, _B1), (_A, _A1), (_B, _A1), (_A, _B2)),
            lambda al, a, b, a1, b1, a2, b2: (
                -a * (b ** 2 + a), -a * (b1 ** 2 + a), -a * (b + b1), -2.0 * a * a1 * b1,
                -a * a1, -a * a1)),
    "rtl1": (((_B, _A), (_A, _B1), (_B, _B1)),
             lambda al, a, b, a1, b1, a2, b2: (-a, -a, al * a)),
    "rtl3": (((_B, _A), (_A, _B1), (_B, _B1), (_A, _A1), (_B, _A1), (_A, _B2), (_A, _A2)),
             lambda al, a, b, a1, b1, a2, b2: (
                 -a * (b ** 2 + a) - al * b * a ** 2,
                 -a * (b1 ** 2 + a) - al * a ** 2 * b1,
                 -a * (b + b1) - al * b * a * b1,
                 -2.0 * a * b1 * a1 - al * a * a1 * (a + a1),
                 -a * a1 - al * b * a * a1,
                 -a * a1 - al * a * a1 * b2,
                 -al * a * a1 * a2)),
}
_SITE_ENTRIES["rtl2"] = _SITE_ENTRIES["tl2"]


@lru_cache(maxsize=None)
def _scatter(pairs, n: int, wrap: bool):
    """Where the site entries at ``pairs`` land in the flattened 2n x 2n
    tensor: for each kept (site, entry), site-major, the flat index of
    (i, j) and then of (j, i); and, in the same order, the position of its
    value in the site-major list of values followed by their negatives.
    On an open chain an entry reaching site k + d is kept for k + d < n."""
    (bi, di), (bj, dj) = (np.array(side).T for side in zip(*pairs))
    k = np.arange(n)[:, None]
    i, j = bi * n + (k + di) % n, bj * n + (k + dj) % n
    keep = wrap | (k + np.maximum(di, dj) < n)
    at = (k * len(pairs) + np.arange(len(pairs)))[keep]
    flat = np.stack([i * 2 * n + j, j * 2 * n + i], axis=-1)[keep].ravel()
    order = np.stack([at, at + len(pairs) * n], axis=-1).ravel()
    for shared in (flat, order):   # every later call gets these same arrays
        shared.flags.writeable = False
    return flat, order


# ---------------------------------------------------------------------------
# finite-difference machinery on the reduced chart
# ---------------------------------------------------------------------------

def _active(s: FlaschkaState):
    """z-indices that are genuine coordinates (a_n frozen on open chains)."""
    idx = list(range(2 * s.n))
    if s.boundary is Boundary.OPEN:
        idx.remove(2 * s.n - 1)
    return np.asarray(idx)


def _pack(s: FlaschkaState) -> np.ndarray:
    return np.concatenate([s.b, s.a])


def _unpack(z: np.ndarray, template: FlaschkaState) -> FlaschkaState:
    n = template.n
    return FlaschkaState(z[n:], z[:n], template.boundary)


def _central_differences(fn, w0: np.ndarray, indices) -> np.ndarray:
    """(f(w0 + h_i e_i) - f(w0 - h_i e_i)) / 2h_i for each index i, with the
    step h_i = _EPS3 max(1, |w0_i|).

    fn evaluates f on the whole stencil at once: it takes the (2m, d) stack
    of the points w0 + h_i e_i and w0 - h_i e_i, in this order for each of
    the m indices in turn, and returns their values along its first axis
    (``_each_row`` makes such an fn of a function of one point).  f may
    return a scalar, a vector or a matrix: the quotients are stacked as a
    vector, as the columns of a Jacobian, or along a new first axis.
    """
    hvec = _EPS3 * np.maximum(1.0, np.abs(w0))
    idx = np.asarray(indices)
    steps = hvec[idx]
    rows = np.arange(len(idx))
    stencil = np.repeat(w0[None, :], 2 * len(idx), axis=0)
    stencil[2 * rows, idx] += steps
    stencil[2 * rows + 1, idx] -= steps
    vals = np.asarray(fn(stencil))
    across = (-1,) + (1,) * (vals.ndim - 1)   # one step per quotient, across its values
    quotients = (vals[0::2] - vals[1::2]) / (2.0 * hvec[idx]).reshape(across)
    return np.ascontiguousarray(quotients.T) if vals.ndim == 2 else quotients


def _each_row(fn):
    """The stencil form of fn, a function of one point: fn of each row."""
    return lambda points: np.array([fn(w) for w in points])


def fd_jacobian(map_fn, s: FlaschkaState):
    """Central FD Jacobian of a state map on the reduced chart."""
    act = _active(s)
    return _central_differences(_each_row(lambda z: _pack(map_fn(_unpack(z, s)))[act]),
                                _pack(s), act)


def fd_gradient(fn, s: FlaschkaState) -> np.ndarray:
    return _central_differences(_each_row(lambda z: fn(_unpack(z, s))), _pack(s), _active(s))


def poisson_map_residual(map_fn, kinds, s: FlaschkaState) -> float:
    """Worst || J Pi J^T - Pi(map(s)) ||_inf over the brackets `kinds`, on
    the reduced chart; the FD Jacobian J is formed once."""
    act = _active(s)
    sub = np.ix_(act, act)
    J = fd_jacobian(map_fn, s)
    image = map_fn(s)
    return worst(float(np.max(np.abs(J @ bracket_matrix(kind, s)[sub] @ J.T
                                     - bracket_matrix(kind, image)[sub])))
                 for kind in kinds)


def involution_residual(kinds, s: FlaschkaState, f, g) -> float:
    """Worst |grad f . Pi . grad g| over the brackets `kinds`, scale-free;
    the FD gradients are formed once."""
    act = _active(s)
    sub = np.ix_(act, act)
    gf = fd_gradient(f, s)
    gg = fd_gradient(g, s)

    def residual(kind):
        P = bracket_matrix(kind, s)[sub]
        scale = max(1.0, float(np.linalg.norm(gf) * np.linalg.norm(P, np.inf) * np.linalg.norm(gg)))
        return float(abs(gf @ P @ gg)) / scale

    return worst(residual(kind) for kind in kinds)


def jacobi_residual(kind, s: FlaschkaState) -> float:
    """Max cyclic-sum defect of the Jacobi identity, FD derivatives of Pi."""
    act = _active(s)
    sub = np.ix_(act, act)
    P = bracket_matrix(kind, s)[sub]
    # dP[m, i, j] = d Pi_ij / d z_m
    dP = _central_differences(_each_row(lambda z: bracket_matrix(kind, _unpack(z, s))[sub]),
                              _pack(s), act)
    # sum_m (dPi_ij/dz_m Pi_mk + dPi_jk/dz_m Pi_mi + dPi_ki/dz_m Pi_mj)
    t1 = np.einsum("mij,mk->ijk", dP, P)
    jac = t1 + np.transpose(t1, (1, 2, 0)) + np.transpose(t1, (2, 0, 1))
    scale = max(1.0, float(np.max(np.abs(P))) ** 2)
    return float(np.max(np.abs(jac))) / scale


def realization_residual(spec, c) -> float:
    """Push-forward defect of a canonical chart against its target bracket.

    Dphi J_can Dphi^T is compared with Pi(phi(c)), Dphi the FD Jacobian of
    the chart (x,p) -> (b,a) and J_can the canonical tensor on (x,p).
    """
    # local: realizations imports Bracket/combo from here
    from .realizations import chart_stack, flaschka_of

    n = c.n

    def chart(w):   # the stencil's (x, p) rows charted as one stack, packed as (b, a)
        a, b = chart_stack(spec, w[:, :n], w[:, n:], c.boundary)
        return np.concatenate([b, a], axis=-1)

    D = _central_differences(chart, np.concatenate([c.x, c.p]), range(2 * n))
    # canonical tensor oriented so that flows read f' = {H, f}: {p_k, x_k} = +1
    Jcan = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    target = bracket_matrix(spec.bracket, flaschka_of(spec, c))
    return float(np.max(np.abs(D @ Jcan @ D.T - target)))
