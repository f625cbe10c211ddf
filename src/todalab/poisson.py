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
evaluates its whole stencil as one stack of points, for one base point or a
batch of them: the chart-step residual steps that stack at once, the chart
residuals chart the stencils of a batch of states as one stack
(``realization_residuals``), and the map residuals step them with one
``maps.step_stack`` call per map (``poisson_map_residuals``), each row
bitwise the public function of that point; the batch gradients
(``fd_gradients``, ``involution_residuals``) evaluate a function of the
(a, b) stacks of the states once on all their stencils.  The map and chart
residuals have only these batch forms: one state's residual is that of the
batch [s].  A function of one state, as ``fd_gradient``,
``involution_residual`` and the Jacobi residual take it, is called on each
point in turn.  The map and involution
residuals take a sequence of brackets and form their Jacobian or gradients
once per state, and each bracket's tensors at a batch of states with one
``bracket_stack``.  On open chains the structural coordinate a_n is frozen,
so all FD sweeps run on the reduced chart (b_1..b_n, a_1..a_{n-1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import maps
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
    """Poisson tensor Pi(z) in coordinates z = (b, a); exactly skew by fill
    (``bracket_stack`` of the one state)."""
    return bracket_stack(kind, s.a[None], s.b[None], s.boundary)[0]


def bracket_stack(kind, a: np.ndarray, b: np.ndarray, boundary: Boundary) -> np.ndarray:
    """Pi(z) of each row of (S, n) stacks a, b, as an (S, 2n, 2n) stack.

    Each entry of ``_SITE_ENTRIES`` at each site k adds its value at (i, j)
    and subtracts it at (j, i), site after site and entry after entry: one
    np.bincount sums them from zero in that order, each row in bins of its
    own, so entries that meet on rings of two or three sites add up as they
    come and row i is bitwise the site loop of state i.
    """
    rows, n = a.shape
    if isinstance(kind, tuple):
        out = np.zeros((rows, 2 * n, 2 * n))
        for coef, br in kind:
            out += coef * bracket_stack(br, a, b, boundary)
        return out

    if kind.kind not in _SITE_ENTRIES:
        raise ValueError(f"unknown bracket kind {kind.kind!r}")
    pairs, values = _SITE_ENTRIES[kind.kind]
    flat, order = _scatter(pairs, n, boundary is Boundary.PERIODIC, rows)
    vals = np.array([values(kind.alpha, *site) for ar, br in zip(a.tolist(), b.tolist())
                     for site in _sites(ar, br)]).reshape(rows, -1)
    weights = np.concatenate((vals, -vals), axis=1).ravel()[order]
    return np.bincount(flat, weights, minlength=rows * 4 * n * n).reshape(rows, 2 * n, 2 * n)


def _sites(a: list, b: list):
    """(a_k, b_k, a_{k+1}, b_{k+1}, a_{k+2}, b_{k+2}) of each site k of the
    Python floats a, b of a state, neighbours taken round the ring (the
    table drops entries past an open end)."""
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
def _scatter(pairs, n: int, wrap: bool, rows: int):
    """Where the site entries at ``pairs`` land in the flattened 2n x 2n
    tensor: for each kept (site, entry), site-major, the flat index of
    (i, j) and then of (j, i); and, in the same order, the position of its
    value in the site-major list of values followed by their negatives.
    On an open chain an entry reaching site k + d is kept for k + d < n.
    For a stack of `rows` tensors these come row after row, each row's
    indices offset by the size of a tensor and of its list of values."""
    (bi, di), (bj, dj) = (np.array(side).T for side in zip(*pairs))
    k = np.arange(n)[:, None]
    i, j = bi * n + (k + di) % n, bj * n + (k + dj) % n
    keep = wrap | (k + np.maximum(di, dj) < n)
    at = (k * len(pairs) + np.arange(len(pairs)))[keep]
    row = np.arange(rows)[:, None]
    flat = (np.stack([i * 2 * n + j, j * 2 * n + i], axis=-1)[keep].ravel()
            + 4 * n * n * row).ravel()
    order = (np.stack([at, at + len(pairs) * n], axis=-1).ravel()
             + 2 * len(pairs) * n * row).ravel()
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
    step h_i = _EPS3 max(1, |w0_i|); w0 is a base point, or an (S, d) batch
    of them, each with its own quotients along a new first axis.

    fn evaluates f on the whole stencil at once: it takes the (2m S, d)
    stack of the points w0 + h_i e_i and w0 - h_i e_i, in this order for
    each of the m indices in turn, base point after base point, and returns
    their values along its first axis (``_each_row`` makes such an fn of a
    function of one point).  f may return a scalar, a vector or a matrix:
    the quotients are stacked as a vector, as the columns of a Jacobian, or
    along a new first axis.
    """
    base = np.atleast_2d(w0)
    hvec = _EPS3 * np.maximum(1.0, np.abs(base))
    idx = np.asarray(indices)
    steps = hvec[:, idx]
    rows = np.arange(len(idx))
    stencil = np.repeat(base[:, None, :], 2 * len(idx), axis=1)
    stencil[:, 2 * rows, idx] += steps
    stencil[:, 2 * rows + 1, idx] -= steps
    vals = np.asarray(fn(stencil.reshape(-1, base.shape[1])))
    vals = vals.reshape(stencil.shape[:2] + vals.shape[1:])
    across = steps.shape + (1,) * (vals.ndim - 2)   # one step per quotient, across its values
    quotients = (vals[:, 0::2] - vals[:, 1::2]) / (2.0 * hvec[:, idx]).reshape(across)
    if vals.ndim == 3:
        quotients = np.ascontiguousarray(quotients.transpose(0, 2, 1))
    return quotients if w0.ndim > 1 else quotients[0]


def _each_row(fn):
    """The stencil form of fn, a function of one point: fn of each row."""
    return lambda points: np.array([fn(w) for w in points])


def _map_rows(map_fn, s: FlaschkaState):
    """The stencil form of a state map on packed points of s's size and
    boundary: one ``maps.step_stack`` of all the rows, packed and reduced."""
    n, act = s.n, _active(s)

    def stepped(z):
        a, b = maps.step_stack(map_fn, z[:, n:], z[:, :n], s.boundary)
        return np.concatenate([b, a], axis=-1)[:, act]
    return stepped


def fd_jacobian(map_fn, states) -> np.ndarray:
    """Central FD Jacobians of a state map on the reduced chart at each of
    `states` (of one size and boundary), as an (S, m, m) stack: the
    stencils of all the states are mapped by one ``maps.step_stack``."""
    return _central_differences(_map_rows(map_fn, states[0]),
                                np.array([_pack(s) for s in states]), _active(states[0]))


def fd_gradients(fn, states) -> np.ndarray:
    """Central FD gradients on the reduced chart of fn at each of `states`
    (of one size and boundary), as an (S, m) stack.  fn takes the (a, b)
    stacks of a batch of states and returns one value per row: it is called
    once, on the stencils of all the states."""
    n = states[0].n
    return _central_differences(lambda z: fn(z[:, n:], z[:, :n]),
                                np.array([_pack(s) for s in states]), _active(states[0]))


def fd_gradient(fn, s: FlaschkaState) -> np.ndarray:
    """``fd_gradients`` at s of fn, a function of one state, called on each
    stencil point as a state."""
    return fd_gradients(_of_states(fn, s.boundary), [s])[0]


def _of_states(fn, boundary: Boundary):
    """The stack form of fn, a function of one state: fn of each row's state."""
    return lambda a, b: np.array([fn(FlaschkaState(u, v, boundary)) for u, v in zip(a, b)])


def _tensors(kind, a, b, boundary: Boundary, act) -> np.ndarray:
    """The (S, m, m) stack of Pi on the reduced chart `act` of each row of
    the (S, n) stacks a, b, each tensor C-contiguous."""
    return np.ascontiguousarray(bracket_stack(kind, a, b, boundary)[:, act[:, None], act])


def poisson_map_residuals(map_fn, kinds, states) -> list:
    """Worst || J Pi J^T - Pi(map(s)) ||_inf over the brackets `kinds`, on
    the reduced chart, of each of `states` (of one size and boundary): the
    FD Jacobians come from one ``fd_jacobian`` call, the images from one
    ``maps.step_stack``.  A map that fails raises the error of its first
    failing stencil point, state after state, or else of its first failing
    image; for one state, that of the loop over its points and its image."""
    return poisson_map_table(((map_fn, kinds),), states)[0]


def poisson_map_table(cases, states) -> list:
    """``poisson_map_residuals`` of each (map_fn, kinds) of `cases` in turn,
    at the same states.  The tensors of each bracket at the states are
    formed once, by one ``bracket_stack``, for all the maps that share it;
    those at a map's images by one more; the products J Pi J^T of all the
    states are one stacked matmul per bracket."""
    boundary, act = states[0].boundary, _active(states[0])
    a, b = np.array([s.a for s in states]), np.array([s.b for s in states])
    at_states = {}

    def residuals(map_fn, kinds):
        jacobians = fd_jacobian(map_fn, states)
        images = maps.step_stack(map_fn, a, b, boundary)
        top = np.zeros(len(states))   # worst's initial value; np.maximum keeps a NaN
        for kind in kinds:
            if kind not in at_states:
                at_states[kind] = _tensors(kind, a, b, boundary, act)
            moved = jacobians @ at_states[kind] @ jacobians.transpose(0, 2, 1)
            top = np.maximum(top, np.max(np.abs(moved - _tensors(kind, *images, boundary, act)),
                                         axis=(1, 2)))
        return top.tolist()

    return [residuals(map_fn, kinds) for map_fn, kinds in cases]


def involution_residuals(kinds, states, fs, g) -> list:
    """Worst |grad f . Pi . grad g| over the brackets `kinds`, scale-free, of
    each of `states` (of one size and boundary) for each f of `fs` in turn,
    state after state.  f and g take the (a, b) stacks of a batch of states
    and return one value per row; the FD gradients of each are formed by one
    ``fd_gradients`` call at all the states, and each bracket's tensors by
    one ``bracket_stack``."""
    boundary, act = states[0].boundary, _active(states[0])
    a, b = np.array([s.a for s in states]), np.array([s.b for s in states])
    grads = [fd_gradients(f, states) for f in fs]
    gg = fd_gradients(g, states)
    tensors = [_tensors(kind, a, b, boundary, act) for kind in kinds]

    def residual(gf, P, gg):
        scale = max(1.0, float(np.linalg.norm(gf) * np.linalg.norm(P, np.inf) * np.linalg.norm(gg)))
        return float(abs(gf @ P @ gg)) / scale

    return [worst(residual(gf[i], P[i], gg[i]) for P in tensors)
            for i in range(len(states)) for gf in grads]


def involution_residual(kinds, s: FlaschkaState, f, g) -> float:
    """``involution_residuals`` of the one state s, for f and g functions of
    one state."""
    return involution_residuals(kinds, [s], [_of_states(f, s.boundary)],
                                _of_states(g, s.boundary))[0]


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


def realization_residuals(spec, states) -> list:
    """Push-forward defect of a canonical chart against its target bracket,
    of each of `states` (of one size and boundary).

    Dphi J_can Dphi^T is compared with Pi(phi(c)), Dphi the FD Jacobian of
    the chart (x,p) -> (b,a) and J_can the canonical tensor on (x,p).  The
    stencils of all the states are charted as one stack, then their targets;
    a failing chart raises the error of its first failing stencil point,
    state after state, or else of its first failing target.
    """
    # local: realizations imports Bracket/combo from here
    from .realizations import chart_stack, flaschka_of

    n, boundary = states[0].n, states[0].boundary

    def chart(w):   # the stencils' (x, p) rows charted as one stack, packed as (b, a)
        a, b = chart_stack(spec, w[:, :n], w[:, n:], boundary)
        return np.concatenate([b, a], axis=-1)

    D = _central_differences(chart, np.array([np.concatenate([c.x, c.p]) for c in states]),
                             range(2 * n))
    # canonical tensor oriented so that flows read f' = {H, f}: {p_k, x_k} = +1
    Jcan = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    targets = [bracket_matrix(spec.bracket, flaschka_of(spec, c)) for c in states]
    return [float(np.max(np.abs(Dc @ Jcan @ Dc.T - target))) for Dc, target in zip(D, targets)]
