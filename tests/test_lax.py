import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from todalab import lax, maps, pluri, verify
from todalab.core import Boundary, FlaschkaState, random_canonical, random_state
from todalab.errors import DomainError, FactorizationOutsideDomain
from todalab.realizations import canonical_step, realization
from todalab.systems import SYSTEMS
from todalab.verify import trajectory

S2 = FlaschkaState([3.0, 0.0], [1.0, 2.0], Boundary.OPEN)


def test_build_T_hand_value():
    np.testing.assert_array_equal(lax.build_T(S2), [[1.0, 3.0], [1.0, 2.0]])


def test_trace_is_sum_of_b():
    s = random_state(6, Boundary.PERIODIC, 5)
    assert abs(np.trace(lax.build_T(s, 1.3)) - s.b.sum()) < 1e-14


def test_periodic_corner_entries():
    s = random_state(3, Boundary.PERIODIC, 2)
    lam = 2.0
    T = lax.build_T(s, lam)
    assert T[0, 2] == lam                 # wrap of the subdiagonal
    assert T[2, 0] == s.a[2] / lam        # wrap of the superdiagonal


def test_two_site_ring_corners_add_to_the_band():
    s = FlaschkaState([3.0, 5.0], [1.0, 2.0], Boundary.PERIODIC)
    lam = 2.0
    np.testing.assert_array_equal(lax.build_T(s, lam),
                                  [[1.0, 3.0 / lam + lam], [lam + 5.0 / lam, 2.0]])
    L, U = lax.build_LU_rtl(s, 0.5, lam)
    np.testing.assert_array_equal(L, [[1.5, 0.5 * lam], [0.5 * lam, 2.0]])
    np.testing.assert_array_equal(U, [[1.0, -0.5 * 3.0 / lam], [-0.5 * 5.0 / lam, 1.0]])


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("n", [2, 3, 5])
def test_build_T_stack_is_build_T_of_each_row_bitwise(n, boundary):
    states = [random_state(n, boundary, seed) for seed in range(4)]
    a, b = np.array([s.a for s in states]), np.array([s.b for s in states])
    for lam in (1.0, -0.7):
        got = lax.build_T_stack(a, b, boundary, lam)
        assert got.tobytes() == np.array([lax.build_T(s, lam) for s in states]).tobytes()


def test_build_T_stack_rejects_a_zero_ring_lambda():
    s = random_state(3, Boundary.PERIODIC, 0)
    with pytest.raises(DomainError):
        lax.build_T_stack(s.a[None], s.b[None], s.boundary, 0.0)


def rtl_t2(s, alpha, lam=1.0):
    """U^{-1} L, the second matrix of the relativistic pair, similar to
    ``lax.rtl_t1`` = L U^{-1}."""
    L, U = lax.build_LU_rtl(s, alpha, lam)
    return np.linalg.solve(U, L)


def test_rtl_pair_small_alpha_expansion():
    s = random_state(4, Boundary.PERIODIC, 7)
    alpha, lam = 1e-6, 1.5
    T = lax.build_T(s, lam)
    for M in (lax.rtl_t1(s, alpha, lam), rtl_t2(s, alpha, lam)):
        assert np.max(np.abs(M - np.eye(4) - alpha * T)) < 1e-10


def test_rtl_pair_decouples_without_couplings():
    s = FlaschkaState([0.0, 0.0, 0.0], [0.5, -0.2, 0.9], Boundary.PERIODIC)
    L, U = lax.build_LU_rtl(s, 0.4, 1.0)
    assert np.array_equal(U, np.eye(3))
    assert np.array_equal(lax.rtl_t1(s, 0.4, 1.0), L)


def test_rtl_pair_is_isospectral_pair():
    s = random_state(3, Boundary.PERIODIC, 9)
    e1 = np.sort_complex(np.linalg.eigvals(lax.rtl_t1(s, 0.3, 1.2)))
    e2 = np.sort_complex(np.linalg.eigvals(rtl_t2(s, 0.3, 1.2)))
    assert np.max(np.abs(e1 - e2)) < 1e-10


def _power_traces(s, alpha):
    # tr(T^k), k = 1..n, per lambda sample: the oracle for small n
    lams = (1.0,) if s.boundary is Boundary.OPEN else lax.DEFAULT_LAMBDAS
    out = []
    for lam in lams:
        T = lax.build_T(s, lam) if alpha is None else lax.rtl_t1(s, alpha, lam)
        P = np.eye(s.n)
        for _ in range(s.n):
            P = P @ T
            out.append(np.trace(P))
    return np.asarray(out)


def _trajectory(name, n, boundary, seed, steps):
    s = random_state(n, boundary, seed)
    traj = [s, *trajectory(SYSTEMS[name].stepper(0.05, 0.3), s, steps)]
    return traj, SYSTEMS[name].lax_alpha(0.05, 0.3)


def _stacked(traj, alpha):
    """``spectral_invariants_stacked`` of the states of traj at the nodes of the first."""
    return lax.spectral_invariants_stacked([s.a for s in traj], [s.b for s in traj],
                                           traj[0].boundary,
                                           lax.spectral_nodes(traj[0], alpha=alpha), alpha)


_LAX_PAIRS = ["dtl", "drtl+", "drtl-", "drtl+explicit", "drtl-explicit"]   # alpha None, 0.3, +-h


@pytest.mark.parametrize("n", [3, 8, 33])
@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("name", _LAX_PAIRS)
def test_invariants_match_slogdet(name, boundary, n):
    traj, alpha = _trajectory(name, n, boundary, 11, 5)
    nodes = lax.spectral_nodes(traj[0], alpha=alpha)
    lams = (1.0,) if boundary is Boundary.OPEN else lax.DEFAULT_LAMBDAS
    assert nodes.shape == (len(lams), n)
    for s in (traj[0], traj[-1]):
        want = []
        for lam, row in zip(lams, nodes):
            M = lax.build_T(s, lam) if alpha is None else lax.rtl_t1(s, alpha, lam)
            for w in row:
                sign, logdet = np.linalg.slogdet(np.eye(n) - w * M)
                assert sign == 1.0
                want.append(logdet)
        got = lax.spectral_invariants(s, alpha=alpha, nodes=nodes)
        assert np.max(np.abs(got - want)) < 1e-12


def _log_det_from_traces(traces, w):
    # Newton's identities turn power sums into the elementary symmetric e_k;
    # det(I - w M) = sum_k (-w)^k e_k, the finite form of exp(-sum tr(M^k) w^k / k)
    e = [1.0]
    for k in range(1, len(traces) + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * traces[i - 1] for i in range(1, k + 1)) / k)
    return np.log(sum((-w) ** k * ek for k, ek in enumerate(e)))


@pytest.mark.parametrize("n", [3, 8, 10])
@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("name", ["dtl", "drtl+", "drtl-explicit"])
def test_invariants_match_power_trace_series(name, boundary, n):
    traj, alpha = _trajectory(name, n, boundary, 13, 3)
    s = traj[-1]
    nodes = lax.spectral_nodes(s, alpha=alpha)
    traces = _power_traces(s, alpha).reshape(len(nodes), n)
    want = [_log_det_from_traces(tr, w) for tr, row in zip(traces, nodes) for w in row]
    assert np.max(np.abs(lax.spectral_invariants(s, alpha=alpha, nodes=nodes) - want)) < 1e-12


@pytest.mark.parametrize("n", [3, 8, 33])
@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("name", ["dtl", "drtl+", "drtl-"])
def test_stacked_invariants_bitwise_equal_per_state(name, boundary, n):
    traj, alpha = _trajectory(name, n, boundary, 11, 20)
    nodes = lax.spectral_nodes(traj[0], alpha=alpha)
    a = np.array([s.a for s in traj])
    b = np.array([s.b for s in traj])
    stacked = lax.spectral_invariants_stacked(a, b, boundary, nodes, alpha=alpha)
    lams = 1 if boundary is Boundary.OPEN else len(lax.DEFAULT_LAMBDAS)
    assert stacked.shape == (len(traj), lams * n)
    for s, row in zip(traj, stacked):
        assert np.array_equal(lax.spectral_invariants(s, alpha=alpha, nodes=nodes), row)
    assert np.array_equal(lax.spectral_invariants(traj[0], alpha=alpha), stacked[0])


# the drift sees a relative change of 1e-9 in the largest coupling: to first
# order it moves log det(I - w T) by w^2 a_k 1e-9, about 3e-11 at R = 4
@pytest.mark.parametrize("n", [8, 128])
@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("name", ["dtl", "drtl+", "drtl-"])
def test_drift_detects_a_perturbed_coupling(name, boundary, n):
    traj, alpha = _trajectory(name, n, boundary, 5, 3)
    nodes = lax.spectral_nodes(traj[0], alpha=alpha)
    s = traj[-1]
    a = s.a.copy()
    a[np.argmax(a)] *= 1.0 + 1e-9
    ref = lax.spectral_invariants(s, alpha=alpha, nodes=nodes)
    bumped = lax.spectral_invariants(s.replace(a=a), alpha=alpha, nodes=nodes)
    assert lax.drift(bumped, ref).max() >= 1e-11


# b scaled by 16 moves eigenvalues past the poles 1/w_j of the nodes, where
# det(I - w_j M) changes sign; the kernel raises before taking a logarithm
@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("name", ["dtl", "drtl+", "drtl-"])
def test_spectrum_leaving_the_node_disc_is_a_domain_error(name, boundary):
    traj, alpha = _trajectory(name, 8, boundary, 3, 4)
    bad = traj[2].replace(b=16.0 * traj[2].b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="left the disc"):
            _stacked(traj[:2] + [bad] + traj[3:], alpha)


# tr(T^k) overflows near n = 600; the rescaled continuant does not
@pytest.mark.parametrize("name", ["dtl", "drtl+"])
def test_invariants_at_n_1024(name):
    traj, alpha = _trajectory(name, 1024, Boundary.OPEN, 0, 10)
    inv = _stacked(traj, alpha)
    assert inv.shape == (11, 1024) and np.all(np.isfinite(inv))
    assert lax.drift(inv, inv[0]).max() < 1e-8


# ---------------------------------------------------------------------------
# unpivoted LU
# ---------------------------------------------------------------------------

def test_crout_identity():
    low, up = lax.crout_lu(np.eye(4))
    assert np.array_equal(low, np.eye(4))
    assert np.array_equal(up, np.eye(4))


def test_crout_diag_matches_step_factors():
    h = 0.1
    low, up = lax.crout_lu(np.eye(2) + h * lax.build_T(S2))
    np.testing.assert_allclose(np.diag(low), maps.dtl_factor_diag(S2, h), atol=1e-15)
    assert abs(low[1, 0] - h) < 1e-15       # subdiagonal of the lower factor
    del up


def test_crout_reconstruction():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(5, 5)) + 6.0 * np.eye(5)
    low, up = lax.crout_lu(m)
    assert np.max(np.abs(low @ up - m)) < 1e-13 * np.max(np.abs(m))
    assert np.array_equal(np.diag(up), np.ones(5))
    assert np.max(np.abs(np.triu(low, 1))) == 0.0
    assert np.max(np.abs(np.tril(up, -1))) == 0.0


def test_crout_rejects_vanishing_pivot():
    with pytest.raises(FactorizationOutsideDomain):
        lax.crout_lu(np.array([[0.0, 1.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# closed-form evolution
# ---------------------------------------------------------------------------

def test_exact_solution_zero_steps():
    s = random_state(5, Boundary.OPEN, 3)
    out = lax.exact_solution(s, 0.05, 0)
    assert np.array_equal(out.a, s.a) and np.array_equal(out.b, s.b)


def test_exact_solution_single_step():
    s = random_state(5, Boundary.OPEN, 3)
    one = maps.dtl_step(s, 0.05)
    closed = lax.exact_solution(s, 0.05, 1)
    assert np.max(np.abs(closed.a - one.a)) < 1e-11
    assert np.max(np.abs(closed.b - one.b)) < 1e-11


def test_exact_solution_fifteen_steps():
    s = random_state(5, Boundary.OPEN, 8)
    cur = s
    for _ in range(15):
        cur = maps.dtl_step(cur, 0.05)
    closed = lax.exact_solution(s, 0.05, 15)
    assert np.max(np.abs(closed.a - cur.a)) < 1e-8
    assert np.max(np.abs(closed.b - cur.b)) < 1e-8


def test_exact_solution_rejects_rings():
    s = random_state(4, Boundary.PERIODIC, 1)
    with pytest.raises(DomainError):
        lax.exact_solution(s, 0.05, 3)


# ---------------------------------------------------------------------------
# monodromy
# ---------------------------------------------------------------------------

def test_single_site_local_matrix():
    lam, p1 = 0.3, 0.7
    L = lax.rtl_local_matrix(p1, 0.0, 0.0, lam)  # boundary zero e^{x_1 - x_0}, Toda alpha
    np.testing.assert_array_equal(L, [[1.0 + lam * p1, 0.0], [1.0, 0.0]])
    assert np.trace(L) == 1.0 + lam * p1


def test_monodromy_toda_open_trace_and_invariance():
    lam, mu = 0.15, 0.23
    c = random_canonical(6, Boundary.OPEN, 4)
    ct = pluri.chain_step(c, lam)
    ch = pluri.chain_step(c, mu)
    cth = pluri.chain_step(ct, mu)
    T, P0 = lax.monodromy_rtl(c, ct.x, 0.0, lam)  # trace identity asserted inside
    assert abs(np.trace(T) - P0) < 1e-11 * max(1.0, abs(P0))
    _, P1 = lax.monodromy_rtl(ch, cth.x, 0.0, lam)
    assert abs(P1 - P0) < 1e-10 * max(1.0, abs(P0))


def test_monodromy_toda_periodic_eigenvalue_and_det():
    lam = 0.12
    c = random_canonical(5, Boundary.PERIODIC, 6)
    ct = pluri.chain_step(c, lam)
    T, P = lax.monodromy_rtl(c, ct.x, 0.0, lam)  # eigenvalue membership asserted
    gaps = c.x - np.roll(c.x, 1)
    assert abs(np.linalg.det(T) - np.prod(lam * lam * np.exp(gaps))) < 1e-10
    del P


def test_monodromy_rtl_reduces_to_toda():
    lam = 0.2
    c = random_canonical(4, Boundary.PERIODIC, 3)
    for k in range(4):
        gap = np.exp(c.x[k] - c.x[k - 1])
        np.testing.assert_array_equal(lax.rtl_local_matrix(c.p[k], gap, 0.0, lam),
                                      [[1.0 + lam * c.p[k], -lam * lam * gap], [1.0, 0.0]])


def test_monodromy_rtl_open_trace_and_invariance():
    lam, mu, alpha = 0.15, 0.23, 0.3
    c = random_canonical(6, Boundary.OPEN, 4)
    ct = pluri.chain_step(c, lam, alpha)
    ch = pluri.chain_step(c, mu, alpha)
    cth = pluri.chain_step(ct, mu, alpha)
    T, P0 = lax.monodromy_rtl(c, ct.x, alpha, lam)
    assert abs(np.trace(T) - P0) < 1e-11 * max(1.0, abs(P0))
    _, P1 = lax.monodromy_rtl(ch, cth.x, alpha, lam)
    assert abs(P1 - P0) < 1e-10 * max(1.0, abs(P0))


# ---------------------------------------------------------------------------
# zero curvature
# ---------------------------------------------------------------------------

def _drtl_step_pair(seed=5, n=4, h=0.08, alpha=0.3):
    spec = realization("rel-exp-add", h, alpha=alpha)
    c = random_canonical(n, Boundary.PERIODIC, seed)
    return c, canonical_step(spec, c)


def test_zcr_residual_on_valid_step():
    c, ct = _drtl_step_pair()
    for lam in (0.3, 0.8, 1.4):
        assert lax.zcr_residual_drtl(c, ct, 0.3, 0.08, lam) < 1e-10


def test_zcr_residual_on_open_chains_reads_interior_sites_only():
    spec = realization("rel-exp-add", 0.08, alpha=0.3)
    for seed in range(5):
        c = random_canonical(6, Boundary.OPEN, seed)
        ct = canonical_step(spec, c)
        for lam in (0.3, 0.8, 1.4):
            assert lax.zcr_residual_drtl(c, ct, 0.3, 0.08, lam) < 1e-10
    # the last site's p~ enters no interior defect; an interior one does
    for k, moved in ((5, False), (2, True)):
        pt = ct.p.copy()
        pt[k] += 1e-3
        bad = type(ct)(ct.x, pt, ct.boundary)
        assert (lax.zcr_residual_drtl(c, bad, 0.3, 0.08, 0.8) > 1e-4) == moved


def test_zcr_residual_detects_perturbation():
    c, ct = _drtl_step_pair()
    pt = ct.p.copy()
    pt[1] += 1e-3
    bad = type(ct)(ct.x, pt, ct.boundary)
    assert lax.zcr_residual_drtl(c, bad, 0.3, 0.08, 0.8) > 1e-4


def test_site_transition_never_reads_step_size():
    c, _ = _drtl_step_pair()
    base = lax.drtl_transition_L(c.x[0], c.p[0], 0.3, 0.8)
    again = lax.drtl_transition_L(c.x[0], c.p[0], 0.3, 0.8)
    assert np.array_equal(base, again)
    # steps of different size share the same site matrices bitwise
    import inspect
    assert "h" not in inspect.signature(lax.drtl_transition_L).parameters


def test_spectral_invariants_hand_values():
    # T = [[1, 3], [1, 2]]: rho = (3 + sqrt 13) / 2 in (2, 4], so R = 4 and
    # w = +-cos(pi / 4) / 8; det(I - w T) = 1 - w tr T + w^2 det T = 1 - 3w - w^2
    nodes = lax.spectral_nodes(S2)
    w = np.sqrt(0.5) / 8.0
    np.testing.assert_allclose(nodes, [[w, -w]], rtol=1e-15)
    inv = lax.spectral_invariants(S2)
    assert abs(inv[0] - np.log(1.0 - 3.0 * w - w * w)) < 1e-14
    assert abs(inv[1] - np.log(1.0 + 3.0 * w - w * w)) < 1e-14


def _open_jacobi_with_spectrum(z):
    """Open state whose Lax matrix has the real spectrum z (Lanczos on diag(z))."""
    n = len(z)
    q, q_prev, off = np.ones(n) / np.sqrt(n), np.zeros(n), 0.0
    b, a = [], []
    for k in range(n):
        w = z * q - off * q_prev
        b.append(q @ w)
        w = w - b[-1] * q
        if k < n - 1:
            off = np.linalg.norm(w)
            a.append(off * off)
            q_prev, q = q, w / off
    return FlaschkaState(a + [0.0], b, Boundary.OPEN)


def test_odd_n_nodes_see_the_direction_the_middle_node_missed():
    """For odd n the old middle node cos(pi/2)/(2R) ~ 1e-17 carried no
    information: det(I - wM) + c w prod_{j != mid}(w - w_j) keeps det = 1 at
    w = 0 and every other old node, yet moves the spectrum."""
    n = 5
    z = np.array([-1.7, -0.9, 0.6, 1.2, 1.9])
    s = _open_jacobi_with_spectrum(z)
    two_r = 4.0                                               # R = 2 >= rho = 1.9
    old = np.cos(np.pi * (2 * np.arange(1, n + 1) - 1) / (2 * n)) / two_r
    det = np.poly1d(np.poly(1.0 / z)) * np.prod(-z)        # det(I - wT) = prod(1 - w z_i)
    free = np.poly1d([1.0, 0.0]) * np.poly1d(np.poly(np.delete(old, n // 2)))
    moved = det + 1e-4 * two_r ** n * free
    roots = moved.roots
    assert np.isrealobj(roots) and abs(moved(0.0) - 1.0) < 1e-14
    t = _open_jacobi_with_spectrum(np.sort(1.0 / roots))
    at_old = lax.spectral_invariants(t, nodes=old[None]) - lax.spectral_invariants(
        s, nodes=old[None])
    assert np.max(np.abs(at_old)) < 1e-12                  # invisible to the old nodes
    nodes = lax.spectral_nodes(s)
    drift = lax.drift(lax.spectral_invariants(t, nodes=nodes),
                      lax.spectral_invariants(s, nodes=nodes))
    assert np.max(drift) > 1e-8
    # n + 1 = 6 Chebyshev nodes less -cos(5 pi / 12), all scaled by the same 2R
    want = np.delete(np.cos(np.pi * (2 * np.arange(1, n + 2) - 1) / (2 * n + 2)), 3) / two_r
    np.testing.assert_array_equal(nodes, [want])


# ---------------------------------------------------------------------------
# the node scale R = 2^p: Sturm counts on open chains, eigvals elsewhere
# ---------------------------------------------------------------------------

def _exponent(nodes) -> int:
    """p of the nodes' R = 2^p: the first node is cos(pi / 2m) / 2^(p + 1),
    with cos(pi / 2m) in [1/2, 1)."""
    return -math.frexp(float(nodes[0][0]))[1] - 1


def _eigvals_exponent(s, alpha=None):
    """(p, rho, largest |Im|) of the eigvals spectrum of T or T1 at lambda = 1."""
    z = np.linalg.eigvals(lax.build_T(s) if alpha is None else lax.rtl_t1(s, alpha))
    rho = float(np.max(np.abs(z)))
    m, e = math.frexp(rho)
    return e - (m == 0.5), rho, float(np.max(np.abs(z.imag)))


def _scaled(s, j):
    """(4^-j a, 2^-j b): T / 2^j up to a diagonal similarity."""
    return s.replace(a=s.a * 4.0 ** -j, b=s.b * 2.0 ** -j)


def _counting(monkeypatch, name):
    """Route np.linalg.<name> through a wrapper; returns its list of calls."""
    calls, real = [], getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _forbid(monkeypatch, *names):
    def forbidden(*args, **kwargs):
        raise AssertionError("a dense eigenvalue call or solve")

    for name in names:
        monkeypatch.setattr(np.linalg, name, forbidden)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(n=st.integers(2, 128), seed=st.integers(0, 2 ** 32 - 1),
       width=st.sampled_from([0.25, 1.0, 3.0]), alpha=st.sampled_from([None, 0.3, "h", "-h"]),
       h=st.floats(0.01, 0.2))
def test_node_scale_is_the_eigvals_scale_wherever_eigvals_is_accurate(n, seed, width,
                                                                     alpha, h):
    s = random_state(n, Boundary.OPEN, seed, b_range=(-width, width))
    alpha = {"h": h, "-h": -h}.get(alpha, alpha)
    p, rho, imag = _eigvals_exponent(s, alpha)
    assume(imag <= 1e-9 * rho)
    assume(abs(rho / 2.0 ** round(math.log2(rho)) - 1.0) > 1e-9)
    assert _exponent(lax.spectral_nodes(s, alpha)) == p


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 128), seed=st.integers(0, 2 ** 32 - 1), j=st.integers(-20, 20))
def test_scaling_the_chain_by_2_to_the_j_lowers_the_exponent_by_j(n, seed, j):
    s = random_state(n, Boundary.OPEN, seed)
    assert (_exponent(lax.spectral_nodes(_scaled(s, j)))
            == _exponent(lax.spectral_nodes(s)) - j)


# eigvals of these badly scaled T returns complex pairs for a real spectrum
# and places R a binade too high
@pytest.mark.parametrize("n,j,eigvals_p", [(32, 5, -2), (64, 4, -1)])
def test_scaled_chains_where_eigvals_misplaces_the_binade(n, j, eigvals_p):
    s = random_state(n, Boundary.OPEN, 0)
    assert _eigvals_exponent(_scaled(s, j))[0] == eigvals_p
    assert _exponent(lax.spectral_nodes(_scaled(s, j))) == _exponent(
        lax.spectral_nodes(s)) - j == eigvals_p - 1


@pytest.mark.parametrize("seed,j", [(0, 4), (1, 0), (2, 7)])
def test_node_scale_matches_a_50_digit_spectrum(seed, j):
    mp = pytest.importorskip("mpmath")
    s = _scaled(random_state(64, Boundary.OPEN, seed), j)
    with mp.workdps(50):
        J = mp.matrix(64, 64)       # the symmetric Jacobi matrix similar to T
        for k in range(64):
            J[k, k] = mp.mpf(float(s.b[k]))
        for k in range(63):
            J[k, k + 1] = J[k + 1, k] = mp.sqrt(mp.mpf(float(s.a[k])))
        rho = max(abs(z) for z in mp.eigsy(J, eigvals_only=True))
        p = _exponent(lax.spectral_nodes(s))
        assert 2 ** (p - 1) < rho <= 2 ** p


@pytest.mark.parametrize("a,b,p", [
    ([1.0, 0.0], [0.0, 0.0], 0),       # T = [[0, 1], [1, 0]]: rho = 1 exactly
    ([1.0, 0.0], [1.0, 1.0], 1),       # spectrum {0, 2}: a tie at +R
    ([1.0, 0.0], [-1.0, -1.0], 1),     # spectrum {-2, 0}: a tie at -R
    ([1.0, 0.0], [1.0, 0.0], 1),       # T - 1 has a zero leading minor; rho = 1.618
])
def test_exact_ties_and_zero_minors_keep_the_eigvals_scale(monkeypatch, a, b, p):
    s = FlaschkaState(a, b, Boundary.OPEN)
    assert _eigvals_exponent(s)[0] == p
    _forbid(monkeypatch, "eigvals", "solve")
    assert _exponent(lax.spectral_nodes(s)) == p


def test_a_zero_chain_has_scale_one():
    # a zero coupling leaves the Sturm domain; eigvals finds rho = 0, and R = 1
    s = FlaschkaState([0.0, 0.0], [0.0, 0.0], Boundary.OPEN)
    assert _exponent(lax.spectral_nodes(s)) == 0


def test_a_tie_that_eigvals_rounds_up_is_a_binade_lower():
    # T = [[0, 4], [1, 0]] has spectrum {-2, 2}; eigvals returns 2 + 4e-16
    s = FlaschkaState([4.0, 0.0], [0.0, 0.0], Boundary.OPEN)
    assert _eigvals_exponent(s)[0] == 2
    assert _exponent(lax.spectral_nodes(s)) == 1


@pytest.mark.parametrize("name", ["dtl", "drtl+", "drtl-"])
def test_isospectral_check_at_n_128_makes_no_dense_call(monkeypatch, name):
    _forbid(monkeypatch, "eigvals", "solve")
    assert verify.check_isospectral(seed=0, system=name, n=128, steps=20)["pass"]


@pytest.mark.parametrize("alpha", [None, 0.3])
def test_a_ring_makes_one_eigvals_call_per_lambda(monkeypatch, alpha):
    calls = _counting(monkeypatch, "eigvals")
    lax.spectral_nodes(random_state(8, Boundary.PERIODIC, 0), alpha)
    assert len(calls) == len(lax.DEFAULT_LAMBDAS)


@pytest.mark.parametrize("alpha,site,entry", [
    (None, 2, ("a", -0.5)), (None, 0, ("a", 0.0)),
    (0.3, 3, ("b", -1.0 / 0.3)), (0.3, 1, ("b", -5.0)), (0.3, 2, ("a", -0.1))])
def test_an_open_chain_outside_the_sturm_domain_takes_eigvals(monkeypatch, alpha, site,
                                                              entry):
    s = random_state(8, Boundary.OPEN, 4)
    key, value = entry
    v = getattr(s, key).copy()
    v[site] = value
    s = s.replace(**{key: v})
    p = _eigvals_exponent(s, alpha)[0]
    calls = _counting(monkeypatch, "eigvals")
    assert _exponent(lax.spectral_nodes(s, alpha)) == p
    assert len(calls) == 1


def test_a_radius_past_2_to_the_1022_is_a_domain_error_on_the_count_path(monkeypatch):
    # spectrum 5e307 +- 1: R = 2^1023, and 2R is not a float
    s = FlaschkaState([1.0, 0.0], [5e307, 5e307], Boundary.OPEN)
    _forbid(monkeypatch, "eigvals", "solve")
    with pytest.raises(DomainError, match="exceeds 2\\^1022"):
        lax.spectral_nodes(s)


def test_a_radius_past_2_to_the_1023_is_a_domain_error_on_the_eigvals_path(monkeypatch):
    # spectrum about +-1.7e308 > 2^1023: no count reaches n, eigvals finds rho
    s = FlaschkaState([1.7e308, 0.0], [1.7e308, -1.7e308], Boundary.OPEN)
    calls = _counting(monkeypatch, "eigvals")
    with pytest.raises(DomainError, match="exceeds 2\\^1022"):
        lax.spectral_nodes(s)
    assert len(calls) == 1
