import hashlib
import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from todalab import maps, realizations
from todalab.pluri import chain_spec
from todalab.core import Boundary, CanonicalState, random_canonical
from todalab.errors import (DomainError, NonInvertibleLeg, NoRealBranch, NumericalError,
                            SolveFailed)
from todalab.realizations import (CATALOG, _first_equation_rhs, _li2, _step, _tolerance,
                                  canonical_step, chart_specs, chart_stack, chart_state,
                                  flaschka_of, lagrangian_value, newtonian_residual,
                                  pullback_residuals, realization, step_stack,
                                  symplectic_defects)
from todalab.verify import (check_closure_1d, check_closure_2d, check_commutativity,
                            check_conservation_2d, check_corners_2d, check_involution,
                            check_poisson_maps, check_poisson_realizations,
                            check_pullbacks, check_spectrality_1d, check_symplecticity)

H, ALPHA, EPS, BETA = 0.1, 0.3, 0.2, 0.1


def spec_id(spec):
    return f"{spec.name}-{spec.family}"


SPECS = chart_specs(H, alpha=ALPHA, epsilon=EPS, beta=BETA)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

def test_exponential_chart_hand_value():
    c = CanonicalState([0.0, 0.0], [1.0, 2.0], Boundary.OPEN)
    s = flaschka_of(realization("exp", H), c)
    np.testing.assert_array_equal(s.a, [1.0, 0.0])
    np.testing.assert_array_equal(s.b, [1.0, 2.0])


def test_dual_chart_literal():
    c = random_canonical(4, Boundary.PERIODIC, 1)
    s = flaschka_of(realization("dual", H), c)
    np.testing.assert_allclose(s.a, np.exp(c.p))
    np.testing.assert_allclose(s.b, c.x - np.roll(c.x, 1))


def test_relativistic_additive_chart_literal():
    c = random_canonical(4, Boundary.PERIODIC, 2)
    s = flaschka_of(realization("rel-exp-add", H, alpha=ALPHA), c)
    np.testing.assert_allclose(s.b, c.p - ALPHA * np.exp(c.x - np.roll(c.x, 1)))
    np.testing.assert_allclose(s.a, np.exp(np.roll(c.x, -1) - c.x))


def test_periodic_only_charts_reject_open_chains():
    c = random_canonical(4, Boundary.OPEN, 3)
    spec = realization("dual", H)
    with pytest.raises(DomainError):
        flaschka_of(spec, c)
    with pytest.raises(DomainError):
        canonical_step(spec, c)


# the charts whose legs or body divide by a parameter reject 0 for it by name,
# and no other chart takes a zero parameter for an error
_DIVISORS = {"mod-exp-eps": "epsilon", "rel-exp-gen": "epsilon", "hyp-mult": "beta",
             "rel-hyp-mult": "beta", "explicit-e": "beta", "ruijsenaars": "alpha"}


@pytest.mark.parametrize("name", CATALOG)
def test_realization_rejects_a_zero_parameter_its_chart_divides_by(name):
    for param in ("alpha", "epsilon", "beta"):
        if _DIVISORS.get(name) == param:
            with pytest.raises(ValueError, match=f"^{param} must be nonzero for the {name} chart$"):
                realization(name, H, **{param: 0.0})
        else:
            assert realization(name, H, **{param: 0.0}).name == name


# at alpha = 0 only their Lagrangian or Hamilton function divides by alpha
@pytest.mark.parametrize("name,family", [("rel-exp-add", "drtl_plus"),
                                         ("rel-exp-add", "drtl_minus"),
                                         ("rel-dual", "drtl_plus"), ("rel-dual", "drtl_minus")])
def test_relativistic_charts_chart_and_step_at_alpha_zero(name, family):
    spec = realization(name, H, alpha=0.0, family=family)
    c = chart_state(spec, 5, 0)
    for state in (c, canonical_step(spec, c)):
        s = flaschka_of(spec, state)
        assert np.isfinite(s.a).all() and np.isfinite(s.b).all()


# ---------------------------------------------------------------------------
# one-step solves
# ---------------------------------------------------------------------------

def test_exponential_first_site_closed_form():
    spec = realization("exp", H)
    c = random_canonical(5, Boundary.OPEN, 2)
    ct = canonical_step(spec, c)
    assert abs(ct.x[0] - c.x[0] - np.log1p(H * c.p[0])) < 1e-14


def test_exponential_continuum_limit():
    h = 1e-6
    spec = realization("exp", h)
    c = random_canonical(6, Boundary.OPEN, 7)
    ct = canonical_step(spec, c)
    assert np.max(np.abs((ct.x - c.x) / h - c.p)) < 1e-4
    e_next = np.concatenate([np.exp(c.x[1:] - c.x[:-1]), [0.0]])
    e_prev = np.concatenate([[0.0], np.exp(c.x[1:] - c.x[:-1])])
    assert np.max(np.abs((ct.p - c.p) / h - (e_next - e_prev))) < 1e-4


def test_explicit_family_closed_form():
    spec = realization("explicit-a", H)
    c = random_canonical(5, Boundary.OPEN, 4)
    ct = canonical_step(spec, c)
    e_next = np.concatenate([np.exp(c.x[1:] - c.x[:-1]), [0.0]])
    e_prev = np.concatenate([[0.0], np.exp(c.x[1:] - c.x[:-1])])
    expect = c.x + np.log(1.0 + H * c.p - H * H * e_prev + H * H * e_next)
    np.testing.assert_allclose(ct.x, expect, atol=1e-14)


def test_explicit_c_psi0_leaves_its_domain_with_domain_error():
    """psi0 = log1p(h u) of explicit-c is guarded: on these rings a step
    raises DomainError rather than the ValueError of a NaN momentum."""
    failed = []
    for h in (0.05, 0.3, 0.7):
        spec = realization("explicit-c", h)
        for seed in range(8):
            c = random_canonical(6, Boundary.PERIODIC, seed)
            try:
                for _ in range(4):
                    c = canonical_step(spec, c)
            except DomainError:
                failed.append((h, seed))
    assert failed == [(0.7, seed) for seed in (0, 1, 2, 3, 4, 5, 7)]


@pytest.mark.parametrize("leg", ["phi", "Phi"])
def test_rel_exp_add_legs_raise_past_their_pole(leg):
    """phi and its antiderivative Phi share the pole 1 - h*alpha*e^u = 0:
    past it both raise DomainError, neither returns NaN."""
    legs = realization("rel-exp-add", 0.5, alpha=0.3).legs
    u = np.log(1.0 / (0.5 * 0.3))   # the pole sits at u = 1.897...
    assert np.all(np.isfinite(getattr(legs, leg)(np.array([u - 0.5, u - 0.1]))))
    with pytest.raises(DomainError, match="leg pole"):
        getattr(legs, leg)(np.array([2.5, 3.0]))


def test_noninvertible_leg_raises():
    spec = realization("exp", 1.0)
    c = CanonicalState([0.0, 0.0, 0.0], [-2.0, 0.0, 0.0], Boundary.OPEN)
    with pytest.raises(NonInvertibleLeg):
        canonical_step(spec, c)   # 1 + h p_1 < 0


def test_only_the_commuting_family_charts_are_moebius():
    moebius = {(s.name, s.family) for s in SPECS if s.legs.mobius is not None}
    assert moebius == {("exp", "dtl"), ("rel-exp-add", "drtl_plus")}


# beta = e^{x~ - x} of the exp chart follows the dtl factor recurrence, so
# where the map's cyclic factor has a sign change no real chart step exists;
# the site is the first one of the forward pass from beta_n (0-based)
@pytest.mark.parametrize("seed,site", [(0, 4), (2, 2), (3, 2)])
def test_exp_ring_without_a_real_step_names_the_site(seed, site):
    spec = realization("exp", 0.5)
    c = chart_state(spec, 5, seed, Boundary.PERIODIC)
    beta = maps.dtl_factor_diag(flaschka_of(spec, c), 0.5)
    assert beta[site] < 0.0 and np.all(beta[:site] > 0.0)
    with pytest.raises(NoRealBranch) as info:
        canonical_step(spec, c)
    assert info.value.site == site and info.value.discriminant is None


def test_exp_ring_without_a_real_fixed_point_carries_the_discriminant():
    spec = realization("exp", 0.5)
    c = chart_state(spec, 5, 1, Boundary.PERIODIC)
    with pytest.raises(NoRealBranch) as info:
        canonical_step(spec, c)
    assert info.value.discriminant < 0.0 and info.value.site is None


# with warnings as errors: the gap e^800 overflows, which the ring product
# reports as its typed error, alone and in a stack after a regular ring
def test_exact_ring_step_with_an_overflowing_gap_is_not_called_branchless():
    spec = realization("exp", H)
    x, p = np.array([[0.0, 0.3, 0.5], [0.0, 800.0, 1600.0]]), np.array([[0.1, 0.2, 0.3]] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for step in (lambda: canonical_step(spec, CanonicalState(x[1], p[1], Boundary.PERIODIC)),
                     lambda: step_stack(spec, x, p, Boundary.PERIODIC)):
            with pytest.raises(SolveFailed) as info:
                step()
            assert type(info.value) is SolveFailed
            assert str(info.value) == "ring product of the Moebius sites overflowed or vanished"


def _first_equation_residual(legs, x, rhs, xt):
    """psi(x~_k - x_k) + phi(x_k - x~_{k-1}) - rhs_k on a ring, phi 0 if absent."""
    res = legs.psi(xt - x) - rhs
    return res if legs.phi is None else res + legs.phi(x - np.roll(xt, 1))


def _dense_newton_ring(spec, x, rhs):
    """Oracle for ring steps: damped Newton on all n positions (dense n x n
    solve, up to 40 halvings of each step); None where it gives up."""
    legs = spec.legs
    n = len(x)
    idx = np.arange(n)
    residual = partial(_first_equation_residual, legs, x, rhs)
    try:
        xt = x + legs.psi_inv(rhs)
    except (DomainError, NonInvertibleLeg):
        xt = x + 2.0 * abs(spec.h)   # small positive shift is inside every leg domain
    try:
        r = residual(xt)
    except DomainError:
        return None
    for _ in range(60):
        r_max = np.max(np.abs(r))
        if r_max < _tolerance(rhs):
            return xt
        J = np.zeros((n, n))
        J[idx, idx] = legs.dpsi(xt - x)
        if legs.phi is not None:
            J[idx, (idx - 1) % n] -= legs.dphi(x - np.roll(xt, 1))
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            return None
        for cut in 0.5 ** np.arange(40):
            try:
                r_new = residual(xt + cut * step)
            except DomainError:
                continue
            if np.max(np.abs(r_new)) < r_max:
                xt, r = xt + cut * step, r_new
                break
        else:
            return None
    return None


@pytest.mark.parametrize("seed", [1, 3])
def test_ring_step_whose_passes_leave_the_leg_domain_says_the_solver_gave_up(seed):
    """rel-hyp-mult, n = 5, h = 0.1, third step: every pass of the chain leaves
    the hyperbolic leg's domain, and the map's (a, b) image of the step has
    a < 0 at two sites.  One pass cannot show that no closing value exists,
    so the step raises SolveFailed, not NoRealBranch."""
    spec = realization("rel-hyp-mult", H)
    c = chart_state(spec, 5, seed, Boundary.PERIODIC)
    for _ in range(2):
        c = canonical_step(spec, c)
    image = maps.drtl_plus_step(flaschka_of(spec, c), spec.alpha, spec.h)
    assert np.count_nonzero(image.a < 0.0) == 2
    with pytest.raises(SolveFailed, match="^ring solver gave up: a pass leaves a leg domain") \
            as info:
        canonical_step(spec, c)
    assert not isinstance(info.value, NoRealBranch)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(index=st.integers(0, len(SPECS) - 1), n=st.integers(2, 9),
       lam=st.floats(0.01, 0.35), alpha=st.floats(0.05, 0.6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_exact_ring_step_solves_the_step_equation_and_matches_newton(
        index, n, lam, alpha, seed):
    spec = chart_specs(lam, alpha=alpha, epsilon=EPS, beta=BETA)[index]
    c = chart_state(spec, n, seed, Boundary.PERIODIC)
    rhs = _first_equation_rhs(spec, c.x, c.p, c.boundary)
    with np.errstate(all="ignore"):   # failing solves overflow on the way
        xn = _dense_newton_ring(spec, c.x, rhs)
        try:
            xt = canonical_step(spec, c).x
        except NumericalError:
            assert xn is None, f"the oracle solves a step that {spec_id(spec)} fails"
            return
        assert np.max(np.abs(_first_equation_residual(spec.legs, c.x, rhs, xt))) \
            < _tolerance(rhs)
    if xn is not None:
        assert np.max(np.abs(xt - xn)) <= 1e-11 * max(1.0, float(np.max(np.abs(xn))))


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_generating_equations_hold(spec):
    c = chart_state(spec, 5, 3)
    ct = canonical_step(spec, c)
    legs = spec.legs
    v = ct.x - c.x
    bc = c.boundary
    from todalab.realizations import (_first_equation_rhs, _leg_at_mixed_next,
                                      _leg_at_mixed_prev, _psi0_sums)
    lhs = legs.psi(v)
    if spec.family != "explicit":
        lhs = lhs + _leg_at_mixed_prev(legs.phi, c.x, ct.x, bc)
    assert np.max(np.abs(lhs - _first_equation_rhs(spec, c.x, c.p, c.boundary))) < 1e-10
    rhs2 = legs.psi(v)
    if spec.family != "explicit":
        rhs2 = rhs2 + _leg_at_mixed_next(legs.phi, c.x, ct.x, bc)
    if legs.psi0 is not None and spec.psi0_on_image:
        rhs2 = rhs2 - _psi0_sums(spec, ct.x, bc)
    assert np.max(np.abs(ct.p - rhs2)) < 1e-12


# ---------------------------------------------------------------------------
# action values and gradients
# ---------------------------------------------------------------------------

def test_lagrangian_kinetic_part_vanishes_on_frozen_slice():
    spec = realization("exp", H)
    c = random_canonical(5, Boundary.OPEN, 5)
    val = lagrangian_value(spec, c.x, c.x, Boundary.OPEN)
    expect = -H * np.sum(np.exp(c.x[1:] - c.x[:-1]))
    assert abs(val - expect) < 1e-14


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_lagrangian_generates_the_step(spec):
    """FD gradients of the slice action reproduce -p and p~."""
    c = chart_state(spec, 5, 6)
    ct = canonical_step(spec, c)
    bc = c.boundary
    d = 1e-6
    for k in range(c.n):
        for level, ref, sign in ((c.x, c.p[k], -1.0), (ct.x, ct.p[k], +1.0)):
            xp, xm = level.copy(), level.copy()
            xp[k] += d
            xm[k] -= d
            if level is c.x:
                g = (lagrangian_value(spec, xp, ct.x, bc)
                     - lagrangian_value(spec, xm, ct.x, bc)) / (2 * d)
            else:
                g = (lagrangian_value(spec, c.x, xp, bc)
                     - lagrangian_value(spec, c.x, xm, bc)) / (2 * d)
            assert abs(sign * g - ref) < 1e-6


def test_dilogarithm_matches_a_50_digit_reference():
    """_li2 against mpmath's Li2 at 50 digits over (-1e12, 1]: within
    1e-15 max(1, |Li2|) everywhere, and 1e-15 relative for |z| < 1e-8."""
    mp = pytest.importorskip("mpmath")
    mag = np.logspace(-300, 12, 600, endpoint=False)
    z = np.concatenate([-mag, mag[mag <= 1.0], np.linspace(-1e12, 1.0, 201)[1:],
                        np.linspace(-4.0, 1.0, 501), [-1.0, 0.0, 0.5, 1.0, 1e-300, -1e-300]])
    got = _li2(z)
    assert got.shape == z.shape
    with mp.workdps(50):
        ref = [mp.polylog(2, mp.mpf(x)) for x in z.tolist()]
        err = np.array([float(abs(mp.mpf(g) - r)) for g, r in zip(got.tolist(), ref)])
        pi2_6 = float(mp.pi ** 2 / 6)
    ref = np.array([float(r) for r in ref])
    assert np.all(err <= 1e-15 * np.maximum(1.0, np.abs(ref))), np.max(err)
    small = (np.abs(z) < 1e-8) & (z != 0.0)
    assert np.all(err[small] <= 1e-15 * np.abs(ref[small]))
    assert abs(_li2(1.0) - pi2_6) <= np.spacing(pi2_6)
    with pytest.raises(DomainError):
        _li2(1.0 + 1e-9)

@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_leg_antiderivatives(spec):
    legs = spec.legs
    d = 1e-6
    v = np.linspace(legs.v_range[0], legs.v_range[1], 7)
    fd = (legs.Psi(v + d) - legs.Psi(v - d)) / (2 * d)
    assert np.max(np.abs(fd - legs.psi(v))) < 1e-6
    fd = (legs.psi(v + d) - legs.psi(v - d)) / (2 * d)
    assert np.max(np.abs(fd - legs.dpsi(v))) < 1e-4
    u = np.linspace(legs.u_range[0], legs.u_range[1], 7)
    if legs.Phi is not None:
        fd = (legs.Phi(u + d) - legs.Phi(u - d)) / (2 * d)
        assert np.max(np.abs(fd - legs.phi(u))) < 1e-6
    if legs.Psi0 is not None:
        fd = (legs.Psi0(u + d) - legs.Psi0(u - d)) / (2 * d)
        assert np.max(np.abs(fd - legs.psi0(u))) < 1e-6


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_leg_inverse_roundtrip(spec):
    legs = spec.legs
    v = np.linspace(legs.v_range[0], legs.v_range[1], 7)
    y = legs.psi(v)
    np.testing.assert_allclose(legs.psi_inv(y), v, atol=1e-10)


# ---------------------------------------------------------------------------
# three-level equations of motion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_newtonian_residual_on_trajectories(spec):
    c0 = chart_state(spec, 5, 8)
    c1 = canonical_step(spec, c0)
    c2 = canonical_step(spec, c1)
    res = newtonian_residual(spec, c0.x, c1.x, c2.x, c0.boundary)
    assert np.max(np.abs(res)) < 1e-10


def test_newtonian_residual_symmetric_cancellation():
    spec = realization("exp", H)
    x = np.full(5, 0.3)
    res = newtonian_residual(spec, x, x, x, Boundary.PERIODIC)
    assert np.max(np.abs(res)) == 0.0
    x_affine = 0.5 * np.arange(5)   # power-of-two spacing keeps gaps bit-identical
    res = newtonian_residual(spec, x_affine, x_affine, x_affine, Boundary.OPEN)
    assert np.max(np.abs(res[1:-1])) == 0.0   # interior telescoping is exact


def test_newtonian_residual_linear_sensitivity():
    spec = realization("exp", H)
    c0 = random_canonical(5, Boundary.OPEN, 9)
    c1 = canonical_step(spec, c0)
    c2 = canonical_step(spec, c1)
    base = newtonian_residual(spec, c0.x, c1.x, c2.x, Boundary.OPEN)
    slopes = []
    for delta in (1e-4, 5e-5):
        x = c1.x.copy()
        x[2] += delta
        res = newtonian_residual(spec, c0.x, x, c2.x, Boundary.OPEN)
        slopes.append((res[2] - base[2]) / delta)
    assert abs(slopes[0] - slopes[1]) < 1e-3 * abs(slopes[0])
    assert abs(slopes[0]) > 1.0


# ---------------------------------------------------------------------------
# cross-validation against the (a, b) maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_pullback_consistency(spec):
    states = [chart_state(spec, 5, seed) for seed in (0, 1)]
    assert all(r < 1e-9 for r in pullback_residuals(spec, states))


def test_pullback_relativistic_gauge_identity():
    spec = realization("rel-exp-add", H, alpha=ALPHA)
    c = random_canonical(5, Boundary.OPEN, 11)
    ct = canonical_step(spec, c)
    s = flaschka_of(spec, c)
    d1, _ = maps.drtl_plus_factors(s, ALPHA, H)
    assert np.max(np.abs(d1 + H * ALPHA * s.a - np.exp(ct.x - c.x))) < 1e-12


def test_dtl_pullback_gauge_identity():
    spec = realization("exp", H)
    c = random_canonical(5, Boundary.OPEN, 12)
    ct = canonical_step(spec, c)
    beta = maps.dtl_factor_diag(flaschka_of(spec, c), H)
    assert np.max(np.abs(beta - np.exp(ct.x - c.x))) < 1e-12


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_symplecticity(spec):
    c = chart_state(spec, 4, 13)
    assert symplectic_defects(spec, [c])[0] < 1e-6


# ---------------------------------------------------------------------------
# Hamilton functions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,family", [("exp", None),
                                         ("rel-exp-add", None),
                                         ("rel-exp-add", "drtl_minus")])
def test_hamiltonian_conserved(name, family):
    spec = realization(name, H, alpha=ALPHA, family=family)
    c = random_canonical(6, Boundary.OPEN, 14)
    val0 = spec.hamiltonian(c)
    cur = c
    for _ in range(25):
        cur = canonical_step(spec, cur)
        assert abs(spec.hamiltonian(cur) - val0) < 1e-10 * max(1.0, abs(val0))


def test_drtl_minus_pullback_gauge_identity():
    """The minus-family pullback fixes h*dm_k = (alpha+h) e^{x_{k+1} - xt_k}
    - alpha e^{x_{k+1} - x_k}."""
    spec = realization("rel-exp-add", H, alpha=ALPHA, family="drtl_minus")
    c = random_canonical(5, Boundary.OPEN, 15)
    ct = canonical_step(spec, c)
    dm, _ = maps.drtl_minus_factors(flaschka_of(spec, c), ALPHA, H)
    lhs = H * dm[:-1]
    rhs = ((ALPHA + H) * np.exp(c.x[1:] - ct.x[:-1])
           - ALPHA * np.exp(c.x[1:] - c.x[:-1]))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# bitwise parity of ring steps and of the criterion records built on them
# ---------------------------------------------------------------------------

def _ring_step_digest():
    """sha256 over 17-digit ring trajectories of every chart, errors by type
    and message; covers the ring solve of Moebius and other charts, its
    halved corrections and its failures."""
    digest = hashlib.sha256()
    for spec in SPECS + chart_specs(0.5, alpha=ALPHA, epsilon=EPS, beta=BETA):
        for seed in range(4):
            c = chart_state(spec, 5, seed, Boundary.PERIODIC)
            lines = [f"{spec.name} {spec.family} {spec.h!r} {seed}"]
            try:
                with np.errstate(all="ignore"):   # failing cases overflow on the way
                    for _ in range(3):
                        c = canonical_step(spec, c)
                        lines.append(" ".join(f"{v:.17g}" for v in np.concatenate([c.x, c.p])))
            except NumericalError as exc:   # the failure is part of the record
                lines.append(f"{type(exc).__name__}: {exc}")
            digest.update(("\n".join(lines) + "\n").encode())
    return digest.hexdigest()


# taken after every chart ring moved to the closure solve of maps._ring_chain
_RING_STEP_SHA256 = "9012acebb15739095de75003d75e8e12dfd9230e201b53e3eb123536efe5cc6a"


def test_ring_steps_match_golden_digest():
    assert _ring_step_digest() == _RING_STEP_SHA256


_RING = dict(n=4, n_states=50, boundary=Boundary.PERIODIC, tol=1e-9)
# (check function, kwargs at the acceptance parameters, max_residual; the
# criterion 3 and 5 values taken from the exact Moebius ring solve, c7-symplecticity
# and c10-pullbacks from the closure solve of every chart ring, c5-closure-2d
# from the rel-exp-add chart legs, whose Phi takes log1p(-x); at 50 digits the
# closure values of these squares are below 1e-29)
_CRITERION_RECORDS = {
    "c3-bt-toda-ring": (check_commutativity, dict(seed=0, system="bt-toda", **_RING),
                        6.9111383282915995e-15),
    "c3-bt-rtl-ring": (check_commutativity, dict(seed=0, system="bt-rtl", **_RING),
                       7.216449660063518e-15),
    "c5-closure-1d": (check_closure_1d, dict(seed=1, n_states=20), 6.938893903907228e-16),
    "c5-spectrality-1d": (check_spectrality_1d, dict(seed=1, n_states=20),
                          5.329070518200751e-15),
    "c5-closure-2d": (check_closure_2d, dict(seed=1, n_states=20), 8.534839501805891e-15),
    "c5-conservation-2d": (check_conservation_2d, dict(seed=1, n_states=20),
                           1.6042722705833512e-14),
    "c5-corners-2d": (check_corners_2d, dict(seed=1, n_states=10), 1.912359159916832e-14),
    "c7-poisson-maps": (check_poisson_maps, dict(seed=4, n_states=20), 1.167918206590457e-09),
    "c7-poisson-realizations": (check_poisson_realizations, dict(seed=4, n_states=5),
                                1.495407531137971e-08),
    "c7-involution": (check_involution, dict(seed=4, n_states=10), 5.927046730630229e-12),
    "c7-symplecticity": (check_symplecticity, dict(seed=4), 9.89705152311366e-10),
    "c10-pullbacks": (check_pullbacks, dict(seed=7, n_states=3), 7.283063041541027e-14),
}


@pytest.mark.parametrize("check,kwargs,want", _CRITERION_RECORDS.values(),
                         ids=_CRITERION_RECORDS.keys())
def test_criterion_records_match_golden_residual(check, kwargs, want):
    rec = check(**kwargs)
    assert rec["pass"] and rec["max_residual"] == want


# ---------------------------------------------------------------------------
# stacks of states: row i of a stacked chart or step is that of state i
# ---------------------------------------------------------------------------

def _per_state(fn, states, fields):
    """fn of each state in turn, its fields restacked; or the first error's
    type and message."""
    try:
        out = [fn(c) for c in states]
    except (NumericalError, ValueError) as exc:
        return type(exc), str(exc)
    return tuple(np.array([getattr(s, f) for s in out]) for f in fields)


def _stacked(fn, states):
    """fn of the (B, n) stacks of the states' x and p; or its error's type and
    message."""
    x, p = np.array([c.x for c in states]), np.array([c.p for c in states])
    try:
        return fn(x, p, states[0].boundary)
    except (NumericalError, ValueError) as exc:
        return type(exc), str(exc)


def _bitwise_equal(got, want):
    if isinstance(want[0], type):   # both raised, the same error
        return got == want
    return (not isinstance(got[0], type) and len(got) == len(want)
            and all(g.shape == w.shape and np.array_equal(g, w) for g, w in zip(got, want)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 9), boundary=st.sampled_from(list(Boundary)),
       lam=st.floats(0.03, 0.3), alpha=st.sampled_from([None, 0.3]),
       seed=st.integers(0, 2 ** 16), rows=st.integers(1, 5))
def test_stacked_chain_step_is_the_per_state_step_bitwise(n, boundary, lam, alpha, seed, rows):
    spec = chain_spec(lam, alpha)
    states = [random_canonical(n, boundary, seed + i) for i in range(rows)]
    with np.errstate(all="ignore"):
        want = _per_state(partial(canonical_step, spec), states, ("x", "p"))
        got = _stacked(partial(step_stack, spec), states)
    assert _bitwise_equal(got, want), (got, want)


@pytest.mark.parametrize("boundary", list(Boundary))
@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_every_chart_and_its_step_act_on_stacks_row_by_row(spec, boundary):
    if boundary is Boundary.OPEN and not spec.supports_open:
        boundary = Boundary.PERIODIC
    states = [chart_state(spec, 5, seed, boundary) for seed in range(4)]
    with np.errstate(all="ignore"):
        for one, stacked, fields in ((partial(flaschka_of, spec), chart_stack, ("a", "b")),
                                     (partial(canonical_step, spec), step_stack, ("x", "p"))):
            want = _per_state(one, states, fields)
            got = _stacked(partial(stacked, spec), states)
            assert _bitwise_equal(got, want), (spec_id(spec), fields, got, want)


def test_a_stack_raises_the_error_of_its_first_failing_row():
    """Row 3 leaves the domain of psi_inv at site 1, row 1 hits a pole of phi
    at site 3: the stack steps site 1 of every row first, but it raises row
    1's error, as stepping the states in turn does."""
    spec = realization("rel-exp-add", H, alpha=ALPHA)
    states = [random_canonical(5, Boundary.OPEN, seed) for seed in range(5)]
    x, p = np.array([c.x for c in states]), np.array([c.p for c in states])
    p[3, 0] = -50.0                                # 1 + h p_1 < 0
    x[1, 2] = x[1, 1] + 10.0                       # with p_2 below, x~_2 - x_2 is
    p[1, 1] = -0.9 * ALPHA * np.exp(10.0)          # about 4.2: 1 - h alpha e^{5.8} < 0
    errors = []
    for row in (1, 3):
        with pytest.raises(NumericalError) as exc:
            canonical_step(spec, CanonicalState(x[row], p[row], Boundary.OPEN))
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] != errors[1], errors
    with pytest.raises(errors[0][0], match=f"^{re.escape(errors[0][1])}$"):
        step_stack(spec, x, p, Boundary.OPEN)


def test_stacks_get_the_checks_of_a_state():
    spec = realization("exp", H)
    x = np.zeros((3, 4))
    p = np.ones((3, 4))
    p[2, 1] = np.inf
    with pytest.raises(ValueError, match="^p must be finite$"):
        step_stack(spec, x, p, Boundary.OPEN)
    with pytest.raises(ValueError, match="^p must be finite$"):
        chart_stack(spec, x, p, Boundary.OPEN)
    x[0, 3] = 800.0   # e^{x_4 - x_3} overflows in the chart
    with pytest.raises(ValueError, match="^a must be finite$"), np.errstate(over="ignore"):
        chart_stack(spec, x, np.ones((3, 4)), Boundary.PERIODIC)
    big = np.full((3, 4), 1.7e308)   # x~ = x + h p overflows in the step
    with pytest.raises(ValueError, match="^x must be finite$"), np.errstate(over="ignore"):
        step_stack(realization("explicit-b", H), big, big, Boundary.OPEN)
    with pytest.raises(DomainError, match="periodic-only"):
        step_stack(realization("dual", H), np.zeros((2, 4)), np.ones((2, 4)), Boundary.OPEN)


# ---------------------------------------------------------------------------
# stacks of rings: solved as columns, each row bitwise its own solve
# ---------------------------------------------------------------------------

# (name, family) of every chart with a ring chain, and the two chain specs of pluri
_RING_CHARTS = [(s.name, s.family) for s in SPECS if s.legs.phi is not None] + ["bt-toda", "bt-rtl"]


@pytest.mark.parametrize("chart", _RING_CHARTS, ids=str)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(h=st.floats(0.03, 0.5), n=st.integers(2, 9), rows=st.integers(2, 60),
       seed=st.integers(0, 2 ** 16))
def test_ring_stacks_are_the_row_loop_bitwise(chart, h, n, rows, seed):
    """A stack of rings steps as the states one at a time do, or raises the
    first failing state's error; where the column solve alone (``_step``,
    without the row fallback of ``step_stack``) returns, it is that too."""
    if isinstance(chart, str):
        spec = chain_spec(h, None if chart == "bt-toda" else ALPHA)
    else:
        spec = realization(chart[0], h, alpha=ALPHA, epsilon=EPS, beta=BETA, family=chart[1])
    states = [chart_state(spec, n, seed + i, Boundary.PERIODIC) for i in range(rows)]
    with np.errstate(all="ignore"):
        want = _per_state(partial(canonical_step, spec), states, ("x", "p"))
        got = _stacked(partial(step_stack, spec), states)
        columns = _stacked(partial(_step, spec), states)
    assert _bitwise_equal(got, want), (got, want)
    if not isinstance(want[0], type) and not isinstance(columns[0], type):
        assert _bitwise_equal(columns, want)


def test_a_ring_stack_whose_rows_close_at_different_corrections(monkeypatch):
    """rel-exp-add (minus) rings of seeds 0 and 3 close at the second
    closing check of their own solve, those of seeds 1, 2, 4 and 5 at the
    third: the column solve accepts each row at its own pass."""
    spec = realization("rel-exp-add", H, alpha=ALPHA, family="drtl_minus")
    states = [chart_state(spec, 5, seed, Boundary.PERIODIC) for seed in range(6)]
    checks = []
    accept_row = realizations._accept_row

    def counted(legs, x, rhs):
        closes, accepted = accept_row(legs, x, rhs)
        checks.append(0)

        def counting(vals, step):
            checks[-1] += 1
            return closes(vals, step)
        return counting, accepted

    monkeypatch.setattr(realizations, "_accept_row", counted)
    want = _per_state(partial(canonical_step, spec), states, ("x", "p"))
    assert checks == [2, 3, 3, 2, 3, 3]
    got = _stacked(partial(_step, spec), states)
    assert len(checks) == 6       # the stack made no single-ring solve
    assert _bitwise_equal(got, want)


def test_a_ring_stack_raises_the_error_of_its_first_failing_row():
    """exp rings at h = 0.5: row 1 has no real step at site 2, row 2 no
    real fixed point.  Seeding the columns meets row 2's discriminant
    first, but the stack raises row 1's error, as stepping the states in
    turn does."""
    spec = realization("exp", 0.5)
    states = [random_canonical(5, Boundary.PERIODIC, 0, x_range=(-0.1, 0.1),
                               p_range=(-0.1, 0.1)),
              chart_state(spec, 5, 2, Boundary.PERIODIC), chart_state(spec, 5, 1, Boundary.PERIODIC)]
    canonical_step(spec, states[0])
    x, p = np.array([c.x for c in states]), np.array([c.p for c in states])
    with pytest.raises(NoRealBranch) as info:      # the column solve alone
        _step(spec, x, p, Boundary.PERIODIC)
    assert info.value.discriminant is not None
    with pytest.raises(NoRealBranch) as info:
        step_stack(spec, x, p, Boundary.PERIODIC)
    assert info.value.site == 2 and info.value.discriminant is None


# ruijsenaars rings at h = 1 and n = 3 (x in [-0.5, 0.5], p in [-3, 3]):
# seeds 9 and 30 step, seed 26 steps after halving a correction twice, seed
# 22 does not close and seed 5 leaves the phi leg's domain
def _ruijsenaars_rings(*seeds):
    return [random_canonical(3, Boundary.PERIODIC, seed, x_range=(-0.5, 0.5), p_range=(-3.0, 3.0))
            for seed in seeds]


def test_a_ring_stack_is_never_halved_but_its_rows_are():
    """The columns of a stack make no halved correction: the row that needs
    one makes the column solve raise, and the stack is stepped row by row,
    each row with its own halvings."""
    spec = realization("ruijsenaars", 1.0, alpha=ALPHA)
    states = _ruijsenaars_rings(9, 26, 30)
    with np.errstate(all="ignore"):
        want = _per_state(partial(canonical_step, spec), states, ("x", "p"))
        assert not isinstance(want[0], type)
        assert _stacked(partial(_step, spec), states)[0] is SolveFailed
        assert _bitwise_equal(_stacked(partial(step_stack, spec), states), want)


def test_a_ring_stack_with_a_halving_row_raises_its_first_failing_row():
    spec = realization("ruijsenaars", 1.0, alpha=ALPHA)
    states = _ruijsenaars_rings(9, 26, 22, 5)
    with np.errstate(all="ignore"):
        errors = [_per_state(partial(canonical_step, spec), [c], ("x", "p")) for c in states[2:]]
        assert errors[0] != errors[1] and all(isinstance(e[0], type) for e in errors), errors
        assert "does not close" in errors[0][1]
        assert _stacked(partial(step_stack, spec), states) == errors[0]
