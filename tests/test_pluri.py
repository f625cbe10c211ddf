import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from todalab import pluri, verify
from todalab.core import Boundary, by_rows, random_canonical
from todalab.errors import (BranchMismatch, DegenerateFace, DomainError, NonInvertibleLeg,
                            NoRealBranch, NumericalError)

H, ALPHA, LAM = 0.1, 0.3, 0.7


# ---------------------------------------------------------------------------
# quad equations
# ---------------------------------------------------------------------------

def test_type_one_hand_solution():
    y = pluri.quad_solve("I", 1.0, 0.0, 0.0, X=1.0, U=1.0, V=1.0)
    assert abs(y + 0.5) < 1e-15
    assert pluri.quad_value("I", 1.0, 0.0, 0.0, 1.0, y, 1.0, 1.0) == 0.0


def test_type_two_collapses_at_alpha_zero():
    rng = np.random.default_rng(0)
    X, Y, U, V = rng.uniform(0.4, 1.8, 4)
    val = pluri.quad_value("II", H, 0.0, LAM, X, Y, U, V)
    assert abs(val - X * (V - U)) < 1e-15


@pytest.mark.parametrize("face_type", ["I", "II", "III"])
@pytest.mark.parametrize("role", ["X", "Y", "U", "V"])
def test_multi_affinity_exact_second_difference(face_type, role):
    rng = np.random.default_rng(1)
    vals = dict(zip("XYUV", rng.uniform(0.4, 1.8, 4)))

    def at(t):
        vv = dict(vals)
        vv[role] = t
        return pluri.quad_value(face_type, H, ALPHA, LAM, **vv)

    # algebraically exact; float evaluation leaves only rounding residue
    assert abs(at(1.0) - 2.0 * at(2.0) + at(3.0)) < 1e-12


@pytest.mark.parametrize("face_type", ["I", "II", "III"])
@pytest.mark.parametrize("role", ["X", "Y", "U", "V"])
def test_solve_then_eval_roundtrip(face_type, role):
    rng = np.random.default_rng(2)
    for _ in range(5):
        vals = dict(zip("XYUV", rng.uniform(0.4, 1.8, 4)))
        vals[role] = None
        sol = pluri.quad_solve(face_type, H, ALPHA, LAM, **vals)
        vals[role] = sol
        assert abs(pluri.quad_value(face_type, H, ALPHA, LAM, **vals)) < 1e-12


def test_degenerate_face_raises():
    # type II with alpha = 0 has no U V coupling left: coefficient of Y vanishes
    with pytest.raises(DegenerateFace):
        pluri.quad_solve("II", H, 0.0, LAM, X=0.0, U=1.0, V=1.0)


def test_three_leg_equals_quad_rearrangement():
    rng = np.random.default_rng(3)
    for _ in range(5):
        X, U, V = rng.uniform(0.4, 1.8, 3)
        y_quad = pluri.quad_solve("I", H, ALPHA, LAM, X=X, U=U, V=V)
        y_legs = -H * U + (1.0 - H * LAM) * X * V / (V + H * X)
        assert abs(y_quad - y_legs) < 1e-12


def test_3d_consistency_sweep():
    assert pluri.check_3d_consistency(H, ALPHA, LAM, n_samples=100, seed=4) < 1e-9


def test_3d_consistency_at_parameter_coincidence():
    assert pluri.check_3d_consistency(H, H, LAM, n_samples=50, seed=5) < 1e-9


# ---------------------------------------------------------------------------
# Laplace assembly around a site
# ---------------------------------------------------------------------------

def _genuine_levels(seed=4, n=6):
    c0 = random_canonical(n, Boundary.OPEN, seed)
    c1 = pluri.chain_step(c0, H, ALPHA)
    c2 = pluri.chain_step(c1, H, ALPHA)
    return c0.x, c1.x, c2.x


def _white(seed, n):
    rng = np.random.default_rng(seed)
    return {k: rng.uniform(0.5, 1.5, n + 1) for k in ("U", "V", "Ut", "Vt")}


def test_laplace_residual_vanishes_on_step_data():
    x_prev, x, x_next = _genuine_levels()
    white = _white(9, 6)
    for k in (1, 2, 3):
        faces = pluri.site_faces(k, x_prev, x, x_next, white)
        assert abs(pluri.laplace_from_legs(faces, H, ALPHA)) < 1e-10


def test_laplace_lambda_independence_is_checked():
    x_prev, x, x_next = _genuine_levels()
    faces = pluri.site_faces(2, x_prev, x, x_next, _white(9, 6))
    v1 = pluri.laplace_from_legs(faces, H, ALPHA, lambdas=(0.3, 1.1))
    v2 = pluri.laplace_from_legs(faces, H, ALPHA, lambdas=(0.55, 2.0))
    assert abs(v1 - v2) < 1e-12


def test_laplace_detects_inconsistent_white_copies():
    x_prev, x, x_next = _genuine_levels()
    faces = pluri.site_faces(2, x_prev, x, x_next, _white(9, 6))
    faces["N"]["V"] *= 1.01
    with pytest.raises(DomainError):
        pluri.laplace_from_legs(faces, H, ALPHA)


# ---------------------------------------------------------------------------
# corner equations, exponential chain
# ---------------------------------------------------------------------------

LAMMU = (0.12, 0.21)


def _square(seed=5, n=6, boundary=Boundary.OPEN, alpha=None):
    lam, mu = LAMMU
    c = random_canonical(n, boundary, seed)
    ct = pluri.chain_step(c, lam, alpha)
    ch = pluri.chain_step(c, mu, alpha)
    cth = pluri.chain_step(ct, mu, alpha)
    return c, ct, ch, cth


def test_corner_residuals_on_valid_square():
    c, ct, ch, cth = _square()
    for r in pluri.corner_residuals_1d(c.x, ct.x, ch.x, cth.x, *LAMMU, Boundary.OPEN):
        assert np.max(np.abs(r)) < 1e-11


def test_corner_base_equation_symmetric_data():
    c = random_canonical(5, Boundary.OPEN, 6)
    ct = pluri.chain_step(c, 0.17)
    e, *_ = pluri.corner_residuals_1d(c.x, ct.x, ct.x, ct.x, 0.17, 0.17, Boundary.OPEN)
    assert np.max(np.abs(e)) == 0.0


def test_corner_residuals_negative_control():
    rng = np.random.default_rng(7)
    vecs = [rng.uniform(-1, 1, 5) for _ in range(4)]
    res = pluri.corner_residuals_1d(*vecs, *LAMMU, Boundary.OPEN)
    assert max(np.max(np.abs(r)) for r in res) > 0.1


def test_superposition_matches_composition():
    c, ct, ch, cth = _square()
    xth = pluri.superposition_1d(c.x, ct.x, ch.x, *LAMMU, Boundary.OPEN)
    assert np.max(np.abs(xth - cth.x)) < 1e-11


def test_superposition_equal_parameters_degenerate():
    """As the two parameters merge, the superposed corner approaches the
    twice-applied step at first order."""
    lam = 0.15
    c = random_canonical(5, Boundary.OPEN, 8)
    ct = pluri.chain_step(c, lam)
    twice = pluri.chain_step(ct, lam)

    def gap(d):
        ch = pluri.chain_step(c, lam + d)
        xth = pluri.superposition_1d(c.x, ct.x, ch.x, lam, lam + d, Boundary.OPEN)
        return np.max(np.abs(xth - twice.x))

    g1, g2 = gap(1e-3), gap(5e-4)
    assert g2 < 2e-3
    assert 1.7 < g1 / g2 < 2.3


def test_superposition_rejects_off_solution_data():
    c, ct, ch, _ = _square()
    bad = ch.x.copy()
    bad[2] += 0.05
    with pytest.raises(BranchMismatch):
        pluri.superposition_1d(c.x, ct.x, bad, *LAMMU, Boundary.OPEN)


def test_superposition_product_identity_on_rings():
    lam, mu = LAMMU
    c, ct, ch, cth = _square(seed=9, n=5, boundary=Boundary.PERIODIC)
    prod = np.prod(np.exp(cth.x - ct.x - ch.x + c.x))
    assert abs(prod - 1.0) < 1e-12


def test_superposition_quotient_identity_on_rings():
    lam, mu = LAMMU
    c, ct, ch, cth = _square(seed=10, n=5, boundary=Boundary.PERIODIC)
    upt, uph = np.roll(ct.x, -1), np.roll(ch.x, -1)
    lhs = np.exp(cth.x - ct.x - ch.x + np.roll(c.x, -1))
    rhs = (lam * np.exp(uph) - mu * np.exp(upt)) / (lam * np.exp(ch.x) - mu * np.exp(ct.x))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_closure_and_swap_negation():
    c, ct, ch, cth = _square(seed=11)
    lam, mu = LAMMU
    ell = pluri.closure_value_1d(c.x, ct.x, ch.x, cth.x, lam, mu, Boundary.OPEN)
    assert abs(ell) < 1e-10
    swapped = pluri.closure_value_1d(c.x, ch.x, ct.x, cth.x, mu, lam, Boundary.OPEN)
    assert abs(ell + swapped) < 1e-12


def test_closure_negative_control():
    rng = np.random.default_rng(12)
    vecs = [rng.uniform(-1, 1, 5) for _ in range(4)]
    assert abs(pluri.closure_value_1d(*vecs, *LAMMU, Boundary.OPEN)) > 0.01


def test_spectrality():
    lam, mu = LAMMU
    c = random_canonical(6, Boundary.OPEN, 13)
    ct = pluri.chain_step(c, lam)
    ch = pluri.chain_step(c, mu)
    cth = pluri.chain_step(ch, lam)
    assert pluri.spectrality_residual((c.x, ct.x), (ch.x, cth.x), lam, Boundary.OPEN) < 1e-10
    # the analytic form of the parameter derivative
    direct = (-np.sum(c.p) / lam + np.sum(ct.x - c.x) / lam ** 2)
    assert abs(pluri.action_derivative(c.x, ct.x, lam, Boundary.OPEN) - direct) < 1e-11
    # sensitivity
    bad = cth.x.copy()
    bad[1] += 1e-3
    assert pluri.spectrality_residual((c.x, ct.x), (ch.x, bad), lam, Boundary.OPEN) > 1e-5


# ---------------------------------------------------------------------------
# corner equations, relativistic chain (three-point 2-form)
# ---------------------------------------------------------------------------

def test_form_skew_symmetries():
    lam, mu = 0.14, 0.22
    xi = np.linspace(-0.7, 0.1, 9)   # stay clear of the lam e^xi = mu pole
    assert np.max(np.abs(pluri.cross_Phi(xi, lam, mu) + pluri.cross_Phi(-xi, mu, lam))) < 1e-12
    assert np.max(np.abs(pluri.cross_phi(xi, lam, mu) - pluri.cross_phi(-xi, mu, lam))) < 1e-14


def test_corner_residuals_2d_on_valid_cube():
    c, ct, ch, cth = _square(seed=14, n=5, boundary=Boundary.PERIODIC, alpha=ALPHA)
    res = pluri.corner_residuals_2d(ALPHA, c.x, ct.x, ch.x, cth.x, *LAMMU, Boundary.PERIODIC)
    for key, val in res.items():
        assert np.max(np.abs(val)) < 1e-10, key


def test_corner_residuals_2d_on_open_chains_drop_the_last_site():
    c, ct, ch, cth = _square(seed=1, n=6, boundary=Boundary.OPEN, alpha=ALPHA)
    res = pluri.corner_residuals_2d(ALPHA, c.x, ct.x, ch.x, cth.x, *LAMMU, Boundary.OPEN)
    for key, val in res.items():
        assert val.shape == (5,) and np.max(np.abs(val)) < 1e-10, key


def test_octahedron_multi_affinity():
    lam, mu = LAMMU
    rng = np.random.default_rng(15)
    fields = rng.uniform(0.4, 1.6, 6)

    def oct_poly(w):
        wt1, wh1, wth, ix1, it_, ih = w
        return (wt1 * ix1 / lam - wh1 * ix1 / mu - wth * ih / lam + wth * it_ / mu
                + ALPHA * wh1 * ih - ALPHA * wt1 * it_)

    for i in range(6):
        for t in (0.7, 1.3, 1.9):
            w1, w2, w3 = (fields.copy() for _ in range(3))
            w1[i], w2[i], w3[i] = t, t + 0.4, t + 0.8
            assert abs(oct_poly(w1) - 2.0 * oct_poly(w2) + oct_poly(w3)) < 1e-13


def test_two_corner_equations_force_the_rest():
    lam, mu = LAMMU
    c = random_canonical(5, Boundary.PERIODIC, 16)
    ct = pluri.chain_step(c, lam, ALPHA)
    ch = pluri.chain_step(c, mu, ALPHA)
    xth = pluri.superposition_2d(ALPHA, c.x, ct.x, ch.x, lam, mu, Boundary.PERIODIC)
    res = pluri.corner_residuals_2d(ALPHA, c.x, ct.x, ch.x, xth, lam, mu, Boundary.PERIODIC)
    for key, val in res.items():
        assert np.max(np.abs(val)) < 1e-9, key


def test_closure_2d_and_swap_negation():
    lam, mu = LAMMU
    c, ct, ch, cth = _square(seed=17, n=5, boundary=Boundary.PERIODIC, alpha=ALPHA)
    vals = pluri.closure_values_2d(ALPHA, c.x, ct.x, ch.x, cth.x, lam, mu, Boundary.PERIODIC)
    assert np.max(np.abs(vals)) < 1e-10
    swapped = pluri.closure_values_2d(ALPHA, c.x, ch.x, ct.x, cth.x, mu, lam, Boundary.PERIODIC)
    assert np.max(np.abs(vals + swapped)) < 1e-12


def test_closure_2d_negative_control():
    rng = np.random.default_rng(18)
    vecs = [rng.uniform(-0.5, 0.5, 5) for _ in range(4)]
    vals = pluri.closure_values_2d(ALPHA, *vecs, *LAMMU, Boundary.PERIODIC)
    assert np.max(np.abs(vals)) > 0.01


def test_conservation_law_2d():
    c, ct, ch, cth = _square(seed=19, n=6, boundary=Boundary.PERIODIC, alpha=ALPHA)
    res = pluri.conservation_residual_2d(ALPHA, c.x, ct.x, ch.x, cth.x, *LAMMU,
                                         Boundary.PERIODIC)
    assert res < 1e-10


# criterion-5 residuals of the corners (x, xt, xh, xth) of a parameter square
_CORNER_RESIDUALS = {
    "closure-1d": lambda w, lam, mu, bc: pluri.closure_value_1d(*w, lam, mu, bc),
    "spectrality-1d": lambda w, lam, mu, bc: pluri.spectrality_residual(w[:2], w[2:], lam, bc),
    "closure-2d": lambda w, lam, mu, bc: pluri.closure_value_2d(ALPHA, *w, lam, mu, bc),
    "conservation-2d": lambda w, lam, mu, bc: pluri.conservation_residual_2d(ALPHA, *w, lam,
                                                                            mu, bc),
    "corners-2d": lambda w, lam, mu, bc: pluri.corner_residuals_2d(ALPHA, *w, lam, mu, bc),
}


def _value_or_error(fn):
    try:
        return fn()
    except (NumericalError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_CORNER_RESIDUALS)), seed=st.integers(0, 2 ** 16),
       n=st.integers(2, 10), boundary=st.sampled_from(list(Boundary)),
       rows=st.integers(1, 12), lam=st.floats(0.03, 0.3), mu=st.floats(0.03, 0.3),
       data=st.data())
def test_stacked_corner_residuals_are_those_of_each_row_bitwise(name, seed, n, boundary, rows,
                                                                lam, mu, data):
    """A residual of (rows, n) corner stacks is, row by row, bitwise its
    value for that row's corners alone (the one-state form the check records
    pin); where a row fails, the stack passed through core.by_rows, as the
    checks pass theirs, raises the error that the first failing row raises
    alone.  Poisoned entries put rows on the legs' poles or make them NaN."""
    poison = data.draw(st.lists(st.tuples(
        st.integers(0, rows - 1), st.integers(0, 3), st.integers(0, n - 1),
        st.sampled_from([math.nan, math.inf, 40.0, -40.0])), max_size=2 * rows))
    fn = _CORNER_RESIDUALS[name]
    corners = np.random.default_rng(seed).uniform(-1.0, 1.0, (4, rows, n))
    for row, corner, site, value in poison:
        corners[corner, row, site] = value
    with np.errstate(all="ignore"):
        want = []
        for i in range(rows):
            want.append(_value_or_error(lambda: fn(tuple(corners[:, i]), lam, mu, boundary)))
            if isinstance(want[-1], tuple):
                want = want[-1]
                break
        if isinstance(want, tuple):
            got = _value_or_error(lambda: by_rows(
                lambda r: fn(tuple(corners[:, r]), lam, mu, boundary), list(range(rows))))
        else:
            got = _value_or_error(lambda: fn(tuple(corners), lam, mu, boundary))
    if isinstance(want, tuple):
        assert got == want
    elif isinstance(got, dict):
        assert list(got) == list(want[0])
        for key, value in got.items():
            assert value.tobytes() == np.array([w[key] for w in want]).tobytes(), key
    else:
        assert isinstance(got, np.ndarray) and got.tobytes() == np.array(want).tobytes()


def test_a_stacked_residual_raises_the_error_of_its_first_failing_row():
    """Row 3's xt is NaN, which the cross leg meets first; row 1's xth puts
    the chart leg Phi on its pole, which comes later in the closure sum:
    passed through core.by_rows, the stack raises row 1's error, as the rows
    taken in turn do."""
    corners = np.random.default_rng(0).uniform(-1.0, 1.0, (4, 5, 6))
    corners[1, 3, 2] = math.nan
    corners[3, 1, 4] = -40.0
    with pytest.raises(DomainError, match=r"^leg pole: lam e\^xi = mu$"):
        pluri.closure_value_2d(ALPHA, *corners[:, 3:4], *LAMMU, Boundary.PERIODIC)
    with pytest.raises(DomainError, match=r"^leg pole: 1 - h\*alpha\*e\^u <= 0$"):
        by_rows(lambda r: pluri.closure_value_2d(ALPHA, *corners[:, r], *LAMMU,
                                                 Boundary.PERIODIC), list(range(5)))


@pytest.mark.parametrize("check", ["closure-1d", "spectrality-1d", "closure-2d",
                                   "conservation-2d", "corners-2d"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_corner_checks_pass_at_any_seed(check, seed):
    """The closure, spectrality, conservation and corner identities hold for
    any seeded state; only a step without a real solution is not a sample."""
    try:
        rec = verify.CHECKS[check](seed=seed, n_states=1)
    except (NoRealBranch, NonInvertibleLeg):
        reject()
    assert rec["pass"], rec


# ---------------------------------------------------------------------------
# commutativity of the step families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [None, ALPHA])
def test_open_chain_commutativity(alpha):
    lam, mu = LAMMU
    for seed in range(5):
        c = random_canonical(6, Boundary.OPEN, seed)
        a = pluri.chain_step(pluri.chain_step(c, lam, alpha), mu, alpha)
        b = pluri.chain_step(pluri.chain_step(c, mu, alpha), lam, alpha)
        assert np.max(np.abs(a.x - b.x)) < 1e-10
        assert np.max(np.abs(a.p - b.p)) < 1e-10


@pytest.mark.parametrize("alpha", [None, ALPHA])
def test_ring_branch_matched_commutativity(alpha):
    lam, mu = LAMMU
    for seed in range(5):
        c = random_canonical(4, Boundary.PERIODIC, seed)
        a = pluri.chain_step(pluri.chain_step(c, lam, alpha), mu, alpha)
        b = pluri.chain_step(pluri.chain_step(c, mu, alpha), lam, alpha)
        assert np.max(np.abs(a.x - b.x)) < 1e-9
        assert np.max(np.abs(a.p - b.p)) < 1e-9


def test_conserved_product_matches_monodromy_quantities():
    """The spectrality/conservation quantities coincide with the monodromy
    product: log P = lam^2 dLambda/dlam + lam sum(p) for the exponential
    chain, and log P = sum of the conserved density for its relativistic
    extension."""
    from todalab import lax

    lam = 0.15
    c = random_canonical(6, Boundary.OPEN, 4)
    ct = pluri.chain_step(c, lam)
    _, P = lax.monodromy_rtl(c, ct.x, 0.0, lam)
    dl = pluri.action_derivative(c.x, ct.x, lam, Boundary.OPEN)
    assert abs(np.log(P) - (lam ** 2 * dl + lam * np.sum(c.p))) < 1e-11

    ct2 = pluri.chain_step(c, lam, ALPHA)
    _, P2 = lax.monodromy_rtl(c, ct2.x, ALPHA, lam)
    egap = np.zeros(c.n)
    egap[:-1] = np.exp(c.x[1:] - ct2.x[:-1])
    density = np.sum((ct2.x - c.x) + np.log1p(-lam * ALPHA * egap))
    assert abs(np.log(P2) - density) < 1e-11


def test_a_nan_top_corner_is_not_dropped(monkeypatch):
    """A NaN among the three top-corner values gives a NaN spread, which no
    tolerance passes."""
    solve, calls = pluri.quad_solve, []

    def nan_second_top(*args, **kwargs):
        calls.append(args)
        return math.nan if len(calls) == 5 else solve(*args, **kwargs)

    monkeypatch.setattr(pluri, "quad_solve", nan_second_top)
    assert math.isnan(pluri.cube_consistency(0.1, 0.3, 0.7, 0.5, 0.9, 1.3, 0.7))
