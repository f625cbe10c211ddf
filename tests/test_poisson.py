import numpy as np
import pytest

from todalab import maps, poisson
from todalab.core import Boundary, FlaschkaState, random_state

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
    cd = poisson._central_differences
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
