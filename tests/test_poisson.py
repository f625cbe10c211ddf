import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from todalab import maps, poisson
from todalab.core import Boundary, CanonicalState, FlaschkaState, random_state
from todalab.realizations import chart_specs, chart_stack, chart_state, flaschka_of
from todalab.systems import SYSTEMS

TL1, TL2, TL3 = (poisson.Bracket(k) for k in ("tl1", "tl2", "tl3"))


def test_linear_bracket_hand_entries():
    s = FlaschkaState([3.0, 0.0], [1.0, 2.0], Boundary.OPEN)
    P = poisson.bracket_matrix(TL1, s)
    # z-order (b1, b2, a1, a2): {b1,a1} = -3, {a1,b2} = -3
    expect = np.zeros((4, 4))
    expect[0, 2], expect[2, 0] = -3.0, 3.0
    expect[2, 1], expect[1, 2] = -3.0, 3.0
    np.testing.assert_array_equal(P, expect)


@pytest.mark.parametrize("kind", [TL1, TL2, TL3,
                                  poisson.Bracket("rtl1", 0.3),
                                  poisson.Bracket("rtl3", 0.3)])
@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
def test_exact_skewness(kind, boundary):
    s = random_state(5, boundary, 8)
    P = poisson.bracket_matrix(kind, s)
    assert np.max(np.abs(P + P.T)) == 0.0


def test_quadratic_brackets_coincide():
    s = random_state(5, Boundary.PERIODIC, 2)
    np.testing.assert_array_equal(poisson.bracket_matrix(TL2, s),
                                  poisson.bracket_matrix(poisson.Bracket("rtl2"), s))


@pytest.mark.parametrize("kind", [TL1, TL2, TL3,
                                  poisson.Bracket("rtl1", 0.3),
                                  poisson.Bracket("rtl2"),
                                  poisson.Bracket("rtl3", 0.3)])
def test_jacobi_identity_fd(kind):
    s = random_state(4, Boundary.PERIODIC, 3)
    assert poisson.jacobi_residual(kind, s) < 1e-8


def test_linear_combinations_stay_poisson():
    s = random_state(4, Boundary.OPEN, 6)
    rng = np.random.default_rng(0)
    c1, c2 = rng.uniform(-2, 2, 2)
    assert poisson.jacobi_residual(poisson.combo((c1, TL1), (c2, TL2)), s) < 1e-8


def test_central_differences_are_exact_on_quadratics():
    # the central quotient of a quadratic has no truncation error, so what is
    # left is rounding: about eps |f| / h = 2e-11 |f| for h = eps^(1/3)
    rng = np.random.default_rng(5)
    A, B = rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, (3, 4))
    w = rng.uniform(-2, 2, 4)
    idx = [0, 2, 3]
    def cd(f, w0, indices):   # f of one point, through the stencil's per-row form
        return poisson._central_differences(poisson._each_row(f), w0, indices)
    grad = cd(lambda v: float(v @ A @ v), w, idx)
    np.testing.assert_allclose(grad, ((A + A.T) @ w)[idx], rtol=0, atol=1e-9)
    jac = cd(lambda v: B @ v + v[0] * v[:3], w, idx)
    exact = B + w[0] * np.eye(3, 4) + np.outer(w[:3], np.eye(4)[0])
    assert jac.shape == (3, 3)
    np.testing.assert_allclose(jac, exact[:, idx], rtol=0, atol=1e-9)
    dM = cd(lambda v: np.outer(v, v), w, idx)
    eye = np.eye(4)
    exact = np.array([np.outer(eye[i], w) + np.outer(w, eye[i]) for i in idx])
    assert dM.shape == (3, 4, 4)
    np.testing.assert_allclose(dM, exact, rtol=0, atol=1e-9)


def test_identity_map_residual_is_fd_noise():
    s = random_state(4, Boundary.OPEN, 1)
    assert poisson.poisson_map_residual(lambda st: st, (TL1,), s) < 1e-9


@pytest.mark.parametrize("kind", [TL1, TL2, TL3])
def test_dtl_is_poisson_for_all_three_brackets(kind):
    for seed in range(5):
        s = random_state(4, Boundary.OPEN, seed)
        res = poisson.poisson_map_residual(lambda st: maps.dtl_step(st, 0.08), (kind,), s)
        assert res < 1e-6


@pytest.mark.parametrize("kind", [poisson.Bracket("rtl1", 0.3),
                                  poisson.Bracket("rtl2"),
                                  poisson.Bracket("rtl3", 0.3)])
@pytest.mark.parametrize("stepper", [maps.drtl_plus_step, maps.drtl_minus_step])
def test_drtl_is_poisson_for_all_three_brackets(kind, stepper):
    for seed in range(3):
        s = random_state(4, Boundary.OPEN, seed)
        res = poisson.poisson_map_residual(lambda st: stepper(st, 0.3, 0.08), (kind,), s)
        assert res < 1e-6


def test_explicit_maps_are_poisson_at_their_bracket():
    h = 0.08
    for seed in range(3):
        s = random_state(4, Boundary.PERIODIC, seed)
        res = poisson.poisson_map_residual(
            lambda st: maps.drtl_plus_explicit_step(st, h), (poisson.Bracket("rtl1", h),), s)
        assert res < 1e-6
        res = poisson.poisson_map_residual(
            lambda st: maps.drtl_minus_explicit_step(st, h), (poisson.Bracket("rtl1", -h),), s)
        assert res < 1e-6


# ---------------------------------------------------------------------------
# involution of spectral functions
# ---------------------------------------------------------------------------

def _h1(s):
    return float(np.sum(s.b))


def _h2(s):
    return float(0.5 * np.sum(s.b ** 2) + np.sum(s.a))


def _h0(s):
    from todalab.lax import build_T
    return float(np.log(np.linalg.det(build_T(s))))


def test_h1_h2_in_involution():
    for seed in range(5):
        s = random_state(5, Boundary.OPEN, seed, b_range=(1.5, 2.5), a_range=(0.1, 0.4))
        for kind in (TL1, TL2, TL3):
            assert poisson.involution_residual((kind,), s, _h1, _h2) < 1e-7


def test_h0_h2_in_involution():
    s = random_state(5, Boundary.OPEN, 7, b_range=(1.5, 2.5), a_range=(0.1, 0.4))
    assert poisson.involution_residual((TL2,), s, _h0, _h2) < 1e-7


def test_self_involution_is_exactly_zero():
    s = random_state(5, Boundary.OPEN, 7)
    assert poisson.involution_residual((TL1,), s, _h2, _h2) < 1e-14


def _loop_differences(f, w0, indices):
    """The central differences of f, a function of one point, one index at a
    time: the reference for the stencil of _central_differences."""
    hvec = poisson._EPS3 * np.maximum(1.0, np.abs(w0))
    out = []
    for i in indices:
        wp, wm = w0.copy(), w0.copy()
        wp[i] += hvec[i]
        wm[i] -= hvec[i]
        out.append((f(wp) - f(wm)) / (2.0 * hvec[i]))
    return np.column_stack(out) if np.ndim(out[0]) == 1 else np.array(out)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(1, 9), kind=st.sampled_from(["scalar", "vector", "matrix"]),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_stacked_central_differences_are_the_loop_over_the_indices_bitwise(d, kind, seed, data):
    rng = np.random.default_rng(seed)
    w0 = rng.uniform(-3.0, 3.0, d)
    A = rng.uniform(-1.0, 1.0, (d, d))
    indices = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
    f = {"scalar": lambda w: float(np.sin(w) @ A @ np.exp(w)),
         "vector": lambda w: A @ np.sin(w) * np.exp(w),
         "matrix": lambda w: np.outer(np.sin(w), np.cosh(w)) @ A}[kind]
    got = poisson._central_differences(poisson._each_row(f), w0, indices)
    want = _loop_differences(f, w0, indices)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert got.flags.c_contiguous


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(1, 7), batch=st.integers(1, 5), kind=st.sampled_from(["scalar", "vector"]),
       seed=st.integers(0, 2 ** 16))
def test_central_differences_of_a_batch_are_each_base_point_bitwise(d, batch, kind, seed):
    """A batch of base points gives, along its first axis, the quotients of
    each base point alone, from one call of fn on all their stencils."""
    rng = np.random.default_rng(seed)
    w0 = rng.uniform(-3.0, 3.0, (batch, d))
    A = rng.uniform(-1.0, 1.0, (d, d))
    f = {"scalar": lambda w: float(np.sin(w) @ A @ np.exp(w)),
         "vector": lambda w: A @ np.sin(w) * np.exp(w)}[kind]
    calls = []

    def stencil(points):
        calls.append(len(points))
        return poisson._each_row(f)(points)

    got = poisson._central_differences(stencil, w0, range(d))
    assert calls == [2 * d * batch] and got.flags.c_contiguous
    want = np.array([_loop_differences(f, w, range(d)) for w in w0])
    assert got.shape == want.shape and np.array_equal(got, want)


def _pointwise_map_residual(step, kinds, s):
    """The map residual with each stencil point and the image stepped as a
    state of its own, one at a time: the reference for the stacked form."""
    act = poisson._active(s)
    sub = np.ix_(act, act)
    J = _loop_differences(lambda z: poisson._pack(step(poisson._unpack(z, s)))[act],
                          poisson._pack(s), act)
    image = step(s)
    return max(float(np.max(np.abs(J @ poisson.bracket_matrix(kind, s)[sub] @ J.T
                                   - poisson.bracket_matrix(kind, image)[sub])))
               for kind in kinds)


@pytest.mark.parametrize("name", ["dtl", "drtl+", "drtl-", "drtl+explicit", "drtl-explicit"])
def test_map_residuals_of_a_batch_are_the_pointwise_ones_bitwise(name):
    """The Jacobians of a batch of states, their stencils stepped as one
    stack, give bitwise the residuals of stepping each point as a state."""
    row = SYSTEMS[name]
    step = row.stepper(0.08, 0.3)
    lax_alpha = row.lax_alpha(0.08, 0.3)
    kinds = ((TL1, TL2, TL3) if lax_alpha is None else
             (poisson.Bracket("rtl1", lax_alpha), poisson.Bracket("rtl2"),
              poisson.Bracket("rtl3", lax_alpha)))
    for boundary in Boundary:
        states = [random_state(4, boundary, seed) for seed in range(6)]
        got = poisson.poisson_map_residuals(step, kinds, states)
        assert got == [_pointwise_map_residual(step, kinds, s) for s in states]


@pytest.mark.parametrize("index", range(0, 25, 4))
def test_realization_residuals_of_a_batch_are_each_state_alone_bitwise(index):
    """Charting the stencils of several states as one stack gives each
    state's residual bitwise."""
    spec = chart_specs(0.1)[index]
    states = [chart_state(spec, 5, seed) for seed in range(4)]
    assert poisson.realization_residuals(spec, states) == [
        poisson.realization_residual(spec, c) for c in states]


@pytest.mark.parametrize("index", range(0, 25, 3))
def test_stacked_chart_jacobian_is_the_loop_over_the_points_bitwise(index):
    """The chart stack of realization_residual gives the Jacobian of charting
    each stencil point as a state."""
    spec = chart_specs(0.1)[index]
    c = chart_state(spec, 5, 4)
    n = c.n

    def stacked(w):
        a, b = chart_stack(spec, w[:, :n], w[:, n:], c.boundary)
        return np.concatenate([b, a], axis=-1)

    def one(w):
        return poisson._pack(flaschka_of(spec, CanonicalState(w[:n], w[n:], c.boundary)))

    w0 = np.concatenate([c.x, c.p])
    got = poisson._central_differences(stacked, w0, range(2 * n))
    assert np.array_equal(got, _loop_differences(one, w0, range(2 * n)))


def test_a_nan_bracket_residual_is_not_dropped(monkeypatch):
    """The NaN residual of the second bracket survives the fold over them."""
    s = random_state(4, Boundary.OPEN, 1)
    bracket_matrix = poisson.bracket_matrix
    monkeypatch.setattr(poisson, "bracket_matrix", lambda kind, st: bracket_matrix(kind, st)
                        * (math.nan if kind is TL2 else 1.0))
    assert math.isnan(poisson.poisson_map_residual(lambda st: st, (TL1, TL2), s))
    assert math.isnan(poisson.involution_residual((TL1, TL2), s, lambda st: float(np.sum(st.b)),
                                                  lambda st: float(np.sum(st.a))))


# ---------------------------------------------------------------------------
# bracket_matrix against the site loop it replaced
# ---------------------------------------------------------------------------

def _loop_bracket(kind, s):
    """The Poisson tensor by the site loop: for each site k in turn each
    entry adds its value at (i, j) and subtracts it at (j, i), value by value
    in the order of the table in poisson.py (``x ** 2`` of a float)."""
    if isinstance(kind, tuple):
        out = np.zeros((2 * s.n, 2 * s.n))
        for coef, br in kind:
            out += coef * _loop_bracket(br, s)
        return out
    a, b, n = s.a, s.b, s.n
    wrap = s.boundary is Boundary.PERIODIC
    al = kind.alpha
    P = np.zeros((2 * n, 2 * n))

    def put(i, j, val):
        P[i, j] += val
        P[j, i] -= val

    for k in range(n):
        k1, k2 = (k + 1) % n, (k + 2) % n
        has1, has2 = wrap or k + 1 < n, wrap or k + 2 < n
        B, A = k, n + k
        if kind.kind == "tl1":
            put(B, A, -a[k])
            if has1:
                put(A, k1, -a[k])
        elif kind.kind in ("tl2", "rtl2"):
            put(B, A, -b[k] * a[k])
            if has1:
                put(A, k1, -a[k] * b[k1])
                put(B, k1, -a[k])
                put(A, n + k1, -a[k] * a[k1])
        elif kind.kind == "tl3":
            put(B, A, -a[k] * (b[k] ** 2 + a[k]))
            if has1:
                put(A, k1, -a[k] * (b[k1] ** 2 + a[k]))
                put(B, k1, -a[k] * (b[k] + b[k1]))
                put(A, n + k1, -2.0 * a[k] * a[k1] * b[k1])
                put(B, n + k1, -a[k] * a[k1])
            if has2:
                put(A, k2, -a[k] * a[k1])
        elif kind.kind == "rtl1":
            put(B, A, -a[k])
            if has1:
                put(A, k1, -a[k])
                put(B, k1, al * a[k])
        elif kind.kind == "rtl3":
            put(B, A, -a[k] * (b[k] ** 2 + a[k]) - al * b[k] * a[k] ** 2)
            if has1:
                put(A, k1, -a[k] * (b[k1] ** 2 + a[k]) - al * a[k] ** 2 * b[k1])
                put(B, k1, -a[k] * (b[k] + b[k1]) - al * b[k] * a[k] * b[k1])
                put(A, n + k1, -2.0 * a[k] * b[k1] * a[k1] - al * a[k] * a[k1] * (a[k] + a[k1]))
                put(B, n + k1, -a[k] * a[k1] - al * b[k] * a[k] * a[k1])
            if has2:
                put(A, k2, -a[k] * a[k1] - al * a[k] * a[k1] * b[k2])
                put(A, n + k2, -al * a[k] * a[k1] * a[k2])
    return P


_KINDS = ("tl1", "tl2", "tl3", "rtl1", "rtl2", "rtl3")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(2, 9), boundary=st.sampled_from(list(Boundary)),
       seed=st.integers(0, 2 ** 16), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       alpha=st.floats(-2.0, 2.0), coefs=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
def test_bracket_matrix_is_the_site_loop_bitwise(n, boundary, seed, scale, alpha, coefs):
    """Every kind and a pencil of two, on chains and rings of 2-9 sites; on
    rings of two and three sites entries meet and must add up in the loop's
    order."""
    rng = np.random.default_rng(seed)
    a = scale * rng.uniform(0.1, 3.0, n)
    if boundary is Boundary.OPEN:
        a[-1] = 0.0
    s = FlaschkaState(a, scale * rng.standard_normal(n), boundary)
    kinds = [poisson.Bracket(kind, alpha) for kind in _KINDS]
    pencil = poisson.combo((coefs[0], kinds[2]), (coefs[1], kinds[5]))
    for kind in kinds + [pencil]:
        assert poisson.bracket_matrix(kind, s).tobytes() == _loop_bracket(kind, s).tobytes(), kind


@pytest.mark.parametrize("boundary", list(Boundary))
def test_bracket_squares_are_those_of_the_site_loop(boundary):
    """On a state whose every entry squares differently under x ** 2
    (libm's pow, the loop's square) and x * x, the cubic brackets are still
    the loop's bitwise."""
    v = np.random.default_rng(1).uniform(0.1, 3.0, 100_000)
    v = v[[x ** 2 != x * x for x in v.tolist()]]
    a = v[:9].copy()
    if boundary is Boundary.OPEN:
        a[-1] = 0.0
    s = FlaschkaState(a, -v[9:18], boundary)
    for kind in (poisson.Bracket("tl3"), poisson.Bracket("rtl3", 0.3)):
        assert poisson.bracket_matrix(kind, s).tobytes() == _loop_bracket(kind, s).tobytes()


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("kind", _KINDS)
def test_bracket_entries_are_at_most_quadratic_in_each_coordinate(kind, boundary):
    """The third difference of every entry of every bracket along every
    coordinate (a_n is frozen on open chains), with a unit step, vanishes
    to rounding: no entry is of degree three in any one coordinate, so a
    unit-step central difference of the tensor is exact up to rounding."""
    br = poisson.Bracket(kind, 0.3)
    s = random_state(6, boundary, 11)
    z0 = poisson._pack(s)

    def pi(z):
        return poisson.bracket_matrix(br, poisson._unpack(z, s))

    for m in poisson._active(s):
        e = np.eye(len(z0))[m]
        vals = [pi(z0 + t * e) for t in (-1.5, -0.5, 0.5, 1.5)]
        third = vals[3] - 3.0 * vals[2] + 3.0 * vals[1] - vals[0]
        scale = max(1.0, max(float(np.max(np.abs(v))) for v in vals))
        assert np.max(np.abs(third)) < 1e-13 * scale, (kind, m)
