"""Lax matrices, spectral invariants, unpivoted LU, and monodromy quantities.

The tridiagonal Lax matrix (a, b; lambda):

    T = lambda^{-1} sum a_k E_{k,k+1} + sum b_k E_{kk} + lambda sum E_{k+1,k}

with wrap-around corners on rings.  Open chains drop the corners and fix
lambda = 1.  The bidiagonal pair for the relativistic hierarchy:

    L = sum (1 + alpha b_k) E_{kk} + alpha lambda sum E_{k+1,k}
    U = I - alpha lambda^{-1} sum a_k E_{k,k+1}

and T1 = L U^{-1} (``rtl_t1``), similar to T2 = U^{-1} L.

The spectral invariants of a state are f_j = log det(I - w_j M), M = T or
T1, at n Chebyshev nodes w_j per lambda sample, scaled to the spectral
radius of a trajectory's first state so that det(I - w_j M) > 0 on the
whole isospectral set.  Each value is O(n): a three-term continuant on
open chains, the trace of a 2x2 transfer product on rings, rescaled by
powers of two so that nothing overflows at any n.  The scale, a power of
two, takes no matrix on an open chain with positive couplings: the leading
minors of T - x, and of L - x U, form a Sturm sequence, whose sign changes
count the eigenvalues below x.

``crout_lu`` factors M = P+ P- with P+ lower triangular (free diagonal) and
P- unit upper triangular, without pivoting: pivoting would leave the
triangular subgroups the whole construction lives in.  ``exact_solution``
uses it to evaluate n discrete steps in closed form by factoring
(I + h T0)^n and conjugating T0.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Boundary, CanonicalState, FlaschkaState, worst
from .errors import (DomainError, FactorizationOutsideDomain, NumericalError,
                     ShapeViolation, SingularMatrix)
from .realizations import _exp_prev, _leg_at_mixed_next

_PIVOT = 1e-13


def build_T(s: FlaschkaState, lam: float = 1.0) -> np.ndarray:
    return build_T_stack(s.a, s.b, s.boundary, lam)


def build_T_stack(a: np.ndarray, b: np.ndarray, boundary: Boundary,
                  lam: float = 1.0) -> np.ndarray:
    """T of each row of (..., n) stacks a, b, as a (..., n, n) stack."""
    lam = _ring_lambda(boundary, lam)
    n = b.shape[-1]
    T = np.zeros(b.shape + (n,))
    diagonal, upper, lower = _bands(T)
    diagonal[...] = b
    upper[...] = a[..., :-1] / lam
    lower[...] = lam
    if boundary is Boundary.PERIODIC:    # after the band: a ring of two adds to it
        T[..., n - 1, 0] += a[..., n - 1] / lam
        T[..., 0, n - 1] += lam
    return T


def build_LU_rtl(s: FlaschkaState, alpha: float, lam: float = 1.0):
    lam = _ring_lambda(s.boundary, lam)
    n = s.n
    L, U = np.diag(1.0 + alpha * s.b), np.eye(n)
    _bands(L)[2][...] = alpha * lam
    _bands(U)[1][...] = -alpha * s.a[:-1] / lam
    if s.boundary is Boundary.PERIODIC:    # after the band: a ring of two adds to it
        L[0, n - 1] += alpha * lam
        U[n - 1, 0] += -alpha * s.a[n - 1] / lam
    return L, U


def _bands(M: np.ndarray):
    """Views of the diagonal, superdiagonal and subdiagonal of each matrix of
    a C-contiguous (..., n, n) stack."""
    n = M.shape[-1]
    flat = M.reshape(M.shape[:-2] + (n * n,))
    return flat[..., ::n + 1], flat[..., 1::n + 1], flat[..., n::n + 1]


def _ring_lambda(boundary: Boundary, lam: float) -> float:
    """The spectral parameter of a Lax matrix: 1 on open chains, nonzero on
    rings."""
    if boundary is Boundary.OPEN:
        return 1.0
    if lam == 0.0:
        raise DomainError("spectral parameter must be nonzero on a ring")
    return lam


def rtl_t1(s: FlaschkaState, alpha: float, lam: float = 1.0) -> np.ndarray:
    """T1 = L U^{-1}; det U is 1 on open chains, 1 - prod(alpha a_k/lambda) on rings."""
    L, U = build_LU_rtl(s, alpha, lam)
    try:
        return np.linalg.solve(U.T, L.T).T
    except np.linalg.LinAlgError as exc:
        if s.boundary is Boundary.PERIODIC and 1.0 - np.prod(alpha * s.a / lam) == 0.0:
            raise SingularMatrix("U is not invertible") from exc
        raise NumericalError("T1 = L U^{-1} overflows: U is invertible") from exc


DEFAULT_LAMBDAS = (1.0, 2.0, 0.5, -1.0)
_LN2 = math.log(2.0)
_RENORM = 8      # sites between two frexp renormalisations of the continuants
_TOP = 1023      # R = 2^p needs 2R = 2^(p + 1) to be a float: p < _TOP
_BOTTOM = -1074  # 2^-1074, the least float


def _lambdas(boundary: Boundary) -> tuple:
    return (1.0,) if boundary is Boundary.OPEN else DEFAULT_LAMBDAS


def _sturm_count(d: list, c: list, x: float, t: float = 1.0):
    """(m, q) of the continuant with diagonal d_k - x and off-diagonal
    products t c_k > 0: q is the last of the ratios
    q_k = d_k - x - t c_{k-1} / q_{k-1} of its leading minors and m how many
    of them are negative, the number of its zeros below x (the minors are a
    Sturm sequence).  A minor before the last that is 0 lies between two of
    opposite signs: it counts once, as -0.  q = 0 when x is a zero."""
    m, q, coupling = 0, 1.0, 0.0
    for dk, ck in zip(d, c):
        try:
            q = dk - x - coupling / q
        except ZeroDivisionError:        # q_{k-1} = -0: q_k = +inf (NaN if coupling = 0)
            m, q = m + 1, dk - x + coupling * math.inf
        m += q < 0.0
        coupling = t * ck
    return m, q


def _sturm_exponent(s: FlaschkaState, alpha: float | None):
    """p of R = 2^p for an open chain, from Sturm counts, or None outside
    their domain or if no count up to 4 times a norm bound reaches n.

    T (alpha None) is similar to the symmetric Jacobi matrix of diagonal b_k
    and off-diagonal sqrt(a_k) when every a_k > 0: rho <= X exactly when no
    eigenvalue is below -X and all n are at most X.  det(L - z U), and so the
    characteristic polynomial of T1, is the continuant of diagonal
    1 + alpha b_k - z and products z alpha^2 a_k, positive at z > 0.  When
    also every 1 + alpha b_k > 0, its leading minors are positive at z = 0
    and interlace, so its n zeros are positive and a count at X > 0 numbers
    those in (0, X): rho <= X exactly when all n are at most X.  The walk
    starts at a Gershgorin bound of the symmetric form, at most 3 (T) or 10
    (T1) times rho, and takes two to five counts."""
    a, b = s.a, s.b                  # a_{n-1} = 0 on an open chain
    if not (a[:-1] > 0.0).all():
        return None
    root = np.sqrt(np.concatenate(([0.0], a)))
    g = root[:-1] + root[1:]         # off-diagonal row sums of the symmetric form
    if alpha is None:
        d, c = b, a
        top = float(np.max(np.abs(b) + g))
    else:
        d, c = 1.0 + alpha * b, (alpha * alpha) * a
        if not ((d > 0.0).all() and (c[:-1] > 0.0).all()):
            return None
        g *= abs(alpha)              # rows of diag(d - z) + sqrt(z) g dominate past top
        top = float(np.max(0.25 * (g + np.sqrt(g * g + 4.0 * d)) ** 2))
    if not top < math.inf:
        return None
    d, c, n = d.tolist(), c.tolist(), s.n

    def fits(p):                     # rho <= 2^p
        x = math.ldexp(1.0, p)
        m, q = _sturm_count(d, c, x, 1.0 if alpha is None else x)
        if m + (q == 0.0) < n:
            return False
        if alpha is not None:
            return True
        m, q = _sturm_count(d, c, -x)
        return m == 0 and q == q

    mant, e = math.frexp(top)
    p = min(e - (mant == 0.5), _TOP)
    if fits(p):
        while p > _BOTTOM and fits(p - 1):
            p -= 1
        return p
    return next((up for up in range(p + 1, min(p + 3, _TOP + 1)) if fits(up)), None)


def spectral_nodes(s: FlaschkaState, alpha: float | None = None) -> np.ndarray:
    """Sample points of ``spectral_invariants``, one row of n nodes per lambda.

    w_j = cos((2j - 1) pi / 2m) / (2R), j = 1..m, m = n; odd n takes m = n + 1
    less the negative node nearest zero (no node is the uninformative
    cos(pi/2) ~ 0).  R = 2^ceil(log2 rho), rho the spectral radius of the
    state's Lax matrix M at that lambda (R = 1 when rho = 0).  Every state
    with the spectrum of s has |w_j z| <= 1/2 at each eigenvalue z, so
    det(I - w_j M) > 0.

    On an open chain whose couplings a_k are positive (all but the open
    end's a_{n-1} = 0), and for T1 also every 1 + alpha b_k > 0, the power of
    two is decided by Sturm counts of the continuant's ratios
    (``_sturm_exponent``): O(n) float operations, no matrix.  Rings, open
    chains outside that domain and counts that never reach n take one
    ``eigvals`` call per lambda.  Raises DomainError if 2R is not a float
    (rho > 2^1022).
    """
    size = s.n + s.n % 2
    cheb = np.cos(np.pi * (2 * np.arange(1, size + 1) - 1) / (2 * size))
    if size > s.n:
        cheb = np.delete(cheb, size // 2)
    rows = []
    for lam in _lambdas(s.boundary):
        p = _sturm_exponent(s, alpha) if s.boundary is Boundary.OPEN else None
        if p is None:
            M = build_T(s, lam) if alpha is None else rtl_t1(s, alpha, lam)
            try:
                rho = float(np.max(np.abs(np.linalg.eigvals(M))))
            except np.linalg.LinAlgError as exc:
                raise NumericalError("eigenvalues of the Lax matrix did not converge") from exc
            m, e = math.frexp(rho)                 # rho = m 2^e, m in [0.5, 1)
            p = e - (m == 0.5) if rho < math.inf else _TOP
        if p >= _TOP:
            raise DomainError("the spectral radius exceeds 2^1022: the node scale 2R "
                              "overflows")
        rows.append(cheb / math.ldexp(2.0, p))     # 2R, exactly
    return np.array(rows)


def spectral_invariants(s: FlaschkaState, alpha: float | None = None,
                        nodes=None) -> np.ndarray:
    """log det(I - w_j M) at the nodes, one block of n values per lambda.

    M is the Lax matrix T (alpha None) or T1 = L U^{-1} of the relativistic
    pair.  Open chains evaluate at lambda = 1; rings at the four fixed
    spectral-parameter values ``DEFAULT_LAMBDAS``.  ``nodes`` defaults to
    ``spectral_nodes(s, alpha)``; pass the nodes of a
    trajectory's first state to compare states.  Each value is the
    generating function -sum_k tr(M^k) w^k / k of the power traces.
    """
    if nodes is None:
        nodes = spectral_nodes(s, alpha)
    return spectral_invariants_stacked(s.a[None], s.b[None], s.boundary, nodes, alpha)[0]


def spectral_invariants_stacked(a: np.ndarray, b: np.ndarray, boundary: Boundary,
                                nodes, alpha: float | None = None) -> np.ndarray:
    """``spectral_invariants`` of B states at the same nodes, one state per row
    of (B, n) a, b.

    det(I - w T) is the continuant of the tridiagonal I - w T (diagonal
    1 - w b_k, off-diagonal products w^2 a_k); det(I - w T1) is that of
    U - w L (1 - w - w alpha b_k and w alpha^2 a_k) over det U, which is 1
    on open chains.  On rings the continuant pair is the 2x2 transfer
    product, whose trace less the two corner products Prod(w a_k / lambda)
    and Prod(w lambda) (alpha / lambda and w alpha lambda for U - w L) is
    the determinant.  The loop runs over sites on (B, S) arrays and rescales
    by powers of two every few sites, so no value overflows at any n; every
    operation is elementwise, so row i is bitwise the value of state i alone.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    count, n = b.shape
    ring = boundary is Boundary.PERIODIC
    lam = np.repeat(_lambdas(boundary), n)
    w = np.asarray(nodes, dtype=float).reshape(-1)
    if w.shape != lam.shape:
        raise ValueError(f"expected {lam.size} nodes, got {w.size}")
    if alpha is None:       # diagonal c0 - c1 b_k, products c2 a_k, corners q a_k and r
        c0, c1, c2, q, r = 1.0, w, w * w, w / lam, w * lam
    else:
        c0, c1, c2 = 1.0 - w, w * alpha, w * (alpha * alpha)
        q, r = alpha / lam, w * (alpha * lam)
    # cur/prev: the continuant (D_k, D_{k-1}) started from (1, 0), and on
    # rings the second column of the transfer product, started from (0, 1)
    cur = np.zeros((2 if ring else 1, count, w.size))
    prev = np.zeros_like(cur)
    cur[0] = 1.0
    prev[1:] = 1.0
    corner = np.ones((2, count, w.size)) if ring else None    # a ring's corner products
    exp2 = np.zeros((count, w.size), dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            # a[:, -1] couples site 1 to site n on rings; it is 0 on open chains
            cur, prev = (c0 - c1 * b[:, k, None]) * cur - (c2 * a[:, k - 1, None]) * prev, cur
            if ring:
                corner[0] *= q * a[:, k, None]
                corner[1] *= r
            if k % _RENORM == _RENORM - 1 or k == n - 1:
                parts = (cur, prev, corner) if ring else (cur, prev)
                e = np.frexp(np.max([np.abs(v).max(axis=0) for v in parts], axis=0))[1]
                scale = np.ldexp(1.0, -e)
                for v in parts:
                    v *= scale
                exp2 += e
        det = cur[0] + prev[1] - corner[0] - corner[1] if ring else cur[0]
        log_den = 0.0
        if ring and alpha is not None:     # det U = 1 - Prod(alpha a_k / lambda)
            top = np.maximum(exp2, 0)
            den = np.ldexp(1.0, -top) - np.ldexp(corner[0], exp2 - top)
            if np.any(den == 0.0):
                raise SingularMatrix("U is not invertible")
            det = det * np.sign(den)
            log_den = np.log(np.abs(den)) + top * _LN2
        if not np.all((det > 0.0) & (det < np.inf)):
            raise DomainError("det(I - w M) <= 0 at a node: the spectrum left the "
                              "disc the nodes were scaled to")
        return np.log(det) + exp2 * _LN2 - log_den


def drift(inv: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """|inv - ref|: for log det(I - w_j M) the relative change of each determinant."""
    return np.abs(np.asarray(inv) - ref)


_CHUNK_BYTES = 1 << 19      # working set of a stacked evaluation: about eight (B, S) arrays


def states_per_chunk(nodes: int) -> int:
    """States B per stacked evaluation at S = ``nodes`` nodes (n per lambda
    sample), so the working set stays flat in n and in the samples: the
    most rows of a block of ``verify.trajectory_blocks``."""
    return max(1, _CHUNK_BYTES // (64 * nodes))


def crout_lu(m: np.ndarray):
    """Unpivoted factorization m = lower * unit_upper (Crout ordering)."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("square matrix required")
    low = np.zeros_like(m)
    up = np.eye(n)
    scale = max(1.0, float(np.max(np.abs(m))))
    for k in range(n):
        low[k:, k] = m[k:, k] - low[k:, :k] @ up[:k, k]
        if abs(low[k, k]) < _PIVOT * scale:
            raise FactorizationOutsideDomain(f"pivot {k + 1} vanished")
        if k + 1 < n:
            up[k, k + 1:] = (m[k, k + 1:] - low[k, :k] @ up[:k, k + 1:]) / low[k, k]
    return low, up


def exact_solution(s0: FlaschkaState, h: float, nsteps: int) -> FlaschkaState:
    """State after nsteps of dtl(h), via LU factorization of (I + h T0)^n."""
    if s0.boundary is not Boundary.OPEN:
        raise DomainError("closed-form evaluation is implemented for open chains")
    if nsteps < 0:
        raise ValueError("nsteps must be >= 0")
    T0 = build_T(s0)
    n = s0.n
    M = np.eye(n)
    F = np.eye(n) + h * T0
    for _ in range(nsteps):
        M = M @ F
    low, _ = crout_lu(M)
    Tn = np.linalg.solve(low, T0 @ low)

    scale = max(1.0, float(np.max(np.abs(Tn))))
    band = np.zeros_like(Tn)
    idx = np.arange(n)
    band[idx, idx] = Tn[idx, idx]
    band[idx[:-1], idx[:-1] + 1] = Tn[idx[:-1], idx[:-1] + 1]
    band[idx[:-1] + 1, idx[:-1]] = Tn[idx[:-1] + 1, idx[:-1]]
    if np.max(np.abs(Tn - band)) > 1e-9 * scale:
        raise ShapeViolation("conjugated matrix left the tridiagonal band")
    if np.max(np.abs(np.diag(Tn, -1) - 1.0)) > 1e-9 * scale:
        raise ShapeViolation("subdiagonal of the conjugated matrix drifted from 1")

    a = np.concatenate([np.diag(Tn, 1), [0.0]])
    return FlaschkaState(a, np.diag(Tn).copy(), Boundary.OPEN)


# ---------------------------------------------------------------------------
# monodromy of Baecklund steps in canonical variables
# ---------------------------------------------------------------------------

def rtl_local_matrix(p_k, exp_gap, alpha: float, lam: float) -> np.ndarray:
    """2x2 local matrix of a site, or (..., 2, 2) of arrays p_k and exp_gap."""
    entries = np.broadcast_arrays(1.0 + lam * p_k - lam * alpha * exp_gap,
                                  -lam * (lam - alpha) * exp_gap, 1.0, 0.0)
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))


def monodromy_rtl(c, xt, alpha: float, lam: float, boundary: Boundary | None = None):
    """Monodromy 2x2 matrix and conserved product for a Baecklund pair.

    xt must be the image configuration of (x, p) under the step with
    parameter lam; the conserved quantity is P = prod gamma_k with
    gamma_k = e^{xt_k - x_k}(1 - lam*alpha*e^{x_{k+1} - xt_k}).  At alpha = 0
    this is the Toda pair, P = prod e^{xt_k - x_k}.  Raises unless P is tr T
    (open chains) or an eigenvalue of T (rings).  c may also be an (x, p) pair
    of (B, n) stacks on ``boundary``, xt (B, n): T and P are then each row's.
    """
    one = isinstance(c, CanonicalState)
    x, p, boundary = (c.x[None], c.p[None], c.boundary) if one else (*c, boundary)
    xt = np.asarray(xt).reshape(x.shape)
    T = np.eye(2)
    for local in np.moveaxis(rtl_local_matrix(p, _exp_prev(x, boundary), alpha, lam), 1, 0):
        T = local @ T
    # e^{x_{k+1} - xt_k} is 0 at k = n on open chains, so that factor is 1
    gam = np.exp(xt - x) * (1.0 - lam * alpha * _leg_at_mixed_next(np.exp, x, xt, boundary))
    P = np.prod(gam, axis=-1)
    scale = np.fmax(1.0, np.max(np.abs(T), axis=(-2, -1)))    # max(1.0, x) of each float x
    if boundary is Boundary.OPEN:
        if (np.abs(T[:, 0, 0] + T[:, 1, 1] - P) > 1e-11 * np.fmax(scale, np.abs(P))).any():
            raise NumericalError("product of step ratios does not match tr T_N")
    elif (np.abs((T[:, 0, 0] - P) * (T[:, 1, 1] - P) - T[:, 0, 1] * T[:, 1, 0])
          > 1e-9 * scale * scale).any():
        raise NumericalError("product of step ratios is not an eigenvalue of T_N")
    return (T[0], float(P[0])) if one else (T, P)


# ---------------------------------------------------------------------------
# zero-curvature residual for the relativistic step, additive exponential chart
# ---------------------------------------------------------------------------

def drtl_transition_L(x_k: float, p_k: float, alpha: float, lam: float) -> np.ndarray:
    """Site-to-site transition matrix; local in (x_k, p_k), no step size enters."""
    return np.array([[p_k + lam, np.exp(x_k)],
                     [-(1.0 + alpha * p_k) * np.exp(-x_k), -alpha]])


def drtl_transition_M(x_k: float, xt_prev: float, pt_prev: float,
                      alpha: float, h: float, lam: float) -> np.ndarray:
    """Time-step transition matrix between two layers of the lattice."""
    w = np.exp(x_k - xt_prev)
    return np.array([[1.0 - h * lam - h * h * (1.0 + alpha * pt_prev) * w,
                      -h * np.exp(x_k)],
                     [h * (1.0 + alpha * pt_prev) * np.exp(-xt_prev), 1.0]])


def zcr_residual_drtl(c: CanonicalState, ct: CanonicalState,
                      alpha: float, h: float, lam: float) -> float:
    """max_k || L~_k M_k - M_{k+1} L_k || for a drtl+ step in the exp-additive chart."""
    x, p = c.x, c.p
    xt, pt = ct.x, ct.p
    n = c.n
    if c.boundary is Boundary.PERIODIC:
        ks = range(n)
    else:
        ks = range(1, n - 1)   # M_k needs layer data at k-1, M_{k+1} at k+1

    def defect(k):
        km = (k - 1) % n
        kp = (k + 1) % n
        Lk = drtl_transition_L(x[k], p[k], alpha, lam)
        Ltk = drtl_transition_L(xt[k], pt[k], alpha, lam)
        Mk = drtl_transition_M(x[k], xt[km], pt[km], alpha, h, lam)
        Mkp = drtl_transition_M(x[kp], xt[k], pt[k], alpha, h, lam)
        return float(np.max(np.abs(Ltk @ Mk - Mkp @ Lk)))
    return worst(defect(k) for k in ks)
