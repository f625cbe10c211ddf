import math
from functools import partial, wraps
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from todalab import lax, maps, verify
from todalab.core import Boundary, FlaschkaState, random_state, shifted, state_to_json
from todalab.errors import (DomainError, NoRealBranch, NumericalError, SingularStep,
                            SolveFailed)
from todalab.flows import tl_field
from todalab.lax import drift, spectral_invariants, spectral_nodes
from todalab.systems import SYSTEMS

S2 = FlaschkaState([3.0, 0.0], [1.0, 2.0], Boundary.OPEN)


# ---------------------------------------------------------------------------
# factor diagonal of dtl
# ---------------------------------------------------------------------------

def test_factor_diag_hand_value():
    beta = maps.dtl_factor_diag(S2, 0.1)
    np.testing.assert_allclose(beta, [1.1, 1.2 - 0.03 / 1.1], rtol=0, atol=1e-15)


def test_factor_diag_collapses_at_h_zero():
    s = random_state(5, Boundary.OPEN, 0)
    assert np.array_equal(maps.dtl_factor_diag(s, 0.0), np.ones(5))
    sp = random_state(5, Boundary.PERIODIC, 0)
    assert np.max(np.abs(maps.dtl_factor_diag(sp, 0.0) - 1.0)) < 1e-14


def test_periodic_branch_small_h_asymptotics():
    s = random_state(3, Boundary.PERIODIC, 7)

    def defect(h):
        return np.max(np.abs(maps.dtl_factor_diag(s, h) - (1.0 + h * s.b)))

    ratio = defect(1e-3) / defect(5e-4)
    assert 3.5 < ratio < 4.5


def test_periodic_factors_satisfy_cyclic_recurrence():
    s = random_state(5, Boundary.PERIODIC, 3)
    h, alpha = 0.08, 0.3
    beta = maps.dtl_factor_diag(s, h)
    res = beta - (1.0 + h * s.b - h * h * np.roll(s.a, 1) / np.roll(beta, 1))
    assert np.max(np.abs(res)) < 1e-13
    d1, _ = maps.drtl_plus_factors(s, alpha, h)
    res = d1 - (1.0 + h * s.b + h * (alpha - h) * np.roll(s.a, 1) / np.roll(d1, 1))
    assert np.max(np.abs(res)) < 1e-13
    dm, _ = maps.drtl_minus_factors(s, alpha, h)
    res = dm - s.a / (1.0 + (alpha + h) * (s.b - h * np.roll(dm, 1)))
    assert np.max(np.abs(res)) < 1e-13


def test_singular_guard():
    s = FlaschkaState([1.0, 0.0], [-2.0, 1.0], Boundary.OPEN)
    with pytest.raises(SingularStep):
        maps.dtl_factor_diag(s, 0.5)   # 1 + h b_1 = 0


def test_drtl_plus_singular_guard():
    s = FlaschkaState([1.0, 0.0], [-2.0, 1.0], Boundary.OPEN)
    with pytest.raises(SingularStep, match="d1 recurrence hit a vanishing pivot"):
        maps.drtl_plus_factors(s, 0.3, 0.5)   # d1_1 = 1 + h b_1 = 0


def test_drtl_plus_singular_guard_last_site():
    # alpha = h removes the coupling term: d1_2 = 1 + h b_2 = 0
    s = FlaschkaState([1.0, 0.0], [0.0, -2.0], Boundary.OPEN)
    with pytest.raises(SingularStep, match="d1 fell below the singularity guard"):
        maps.drtl_plus_factors(s, 0.5, 0.5)


def test_drtl_minus_singular_guard():
    s = FlaschkaState([1.0, 0.0], [-2.0, 1.0], Boundary.OPEN)
    with pytest.raises(SingularStep, match="dm recurrence hit a vanishing denominator"):
        maps.drtl_minus_factors(s, 0.25, 0.25)   # 1 + (alpha + h) b_1 = 0


# ---------------------------------------------------------------------------
# dtl step
# ---------------------------------------------------------------------------

def test_dtl_hand_step_and_invariants():
    out = maps.dtl_step(S2, 0.1)
    np.testing.assert_allclose(out.b, [1.0 + 0.3 / 1.1, 2.0 - 0.3 / 1.1], atol=1e-14)
    np.testing.assert_allclose(out.a, [3.0 * (1.2 - 0.03 / 1.1) / 1.1, 0.0], atol=1e-14)
    assert abs(out.b.sum() - 3.0) < 1e-14
    assert abs(0.5 * np.sum(out.b ** 2) + out.a[0] - 5.5) < 1e-13


def test_dtl_decoupled_diagonal():
    s = FlaschkaState([0.0, 0.0, 0.0], [0.4, -0.2, 0.9], Boundary.PERIODIC)
    out = maps.dtl_step(s, 0.3)
    assert np.array_equal(out.b, s.b)
    assert np.all(out.a == 0.0)


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
def test_dtl_steps_with_different_h_commute(boundary):
    s = random_state(6, boundary, 9)
    h1, h2 = 0.07, 0.11
    one = maps.dtl_step(maps.dtl_step(s, h1), h2)
    two = maps.dtl_step(maps.dtl_step(s, h2), h1)
    assert np.max(np.abs(one.a - two.a)) < 1e-10
    assert np.max(np.abs(one.b - two.b)) < 1e-10


def test_drtl_steps_with_different_h_commute():
    s = random_state(6, Boundary.OPEN, 10)
    alpha, h1, h2 = 0.3, 0.06, 0.1
    for stepper in (maps.drtl_plus_step, maps.drtl_minus_step):
        one = stepper(stepper(s, alpha, h1), alpha, h2)
        two = stepper(stepper(s, alpha, h2), alpha, h1)
        assert np.max(np.abs(one.a - two.a)) < 1e-10
        assert np.max(np.abs(one.b - two.b)) < 1e-10


# ---------------------------------------------------------------------------
# drtl+ machinery
# ---------------------------------------------------------------------------

def test_drtl_plus_factors_alpha_equals_h():
    s = random_state(5, Boundary.OPEN, 1)
    h = 0.09
    d1, _ = maps.drtl_plus_factors(s, h, h)
    assert np.array_equal(d1, 1.0 + h * s.b)


def test_drtl_plus_factors_h_zero():
    s = random_state(5, Boundary.OPEN, 2)
    d1, d2 = maps.drtl_plus_factors(s, 0.4, 0.0)
    assert np.array_equal(d1, np.ones(5))
    assert np.array_equal(d2, np.ones(5))


def test_drtl_plus_two_expressions_agree():
    s = random_state(3, Boundary.OPEN, 6)
    alpha, h = 0.45, 0.11
    d1, d2 = maps.drtl_plus_factors(s, alpha, h)
    b_next = shifted(s.b, 1, s.boundary)
    d1_next = shifted(d1, 1, s.boundary, fill=1.0)
    alt = d1 * (alpha * d1_next - h * (1.0 + alpha * b_next)) / (alpha * d1 - h * (1.0 + alpha * s.b))
    assert np.max(np.abs(alt - d2)) < 1e-12


def test_drtl_plus_alpha_limit_matches_dtl():
    s = random_state(6, Boundary.OPEN, 4)
    ref = maps.dtl_step(s, 0.05)
    out = maps.drtl_plus_step(s, 1e-8, 0.05)
    assert np.max(np.abs(out.a - ref.a)) < 1e-6
    assert np.max(np.abs(out.b - ref.b)) < 1e-6


def test_drtl_plus_alpha_equals_h_matches_explicit():
    s = random_state(6, Boundary.PERIODIC, 8)
    h = 0.07
    imp = maps.drtl_plus_step(s, h, h)
    exp = maps.drtl_plus_explicit_step(s, h)
    np.testing.assert_allclose(imp.a, exp.a, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(imp.b, exp.b, rtol=1e-12, atol=1e-14)


def test_drtl_plus_conserves_coupling_product_on_rings():
    s = random_state(5, Boundary.PERIODIC, 13)
    out = maps.drtl_plus_step(s, 0.3, 0.05)
    assert abs(np.prod(out.a) / np.prod(s.a) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# drtl- machinery
# ---------------------------------------------------------------------------

def test_drtl_minus_factor_hand_value():
    dm, _ = maps.drtl_minus_factors(S2, 0.2, 0.1)
    assert abs(dm[0] - 3.0 / 1.3) < 1e-15


def test_drtl_minus_factors_h_zero():
    s = random_state(5, Boundary.OPEN, 2)
    alpha = 0.25
    dm, cm = maps.drtl_minus_factors(s, alpha, 0.0)
    np.testing.assert_allclose(dm, s.a / (1.0 + alpha * s.b), atol=1e-15)
    del cm


def test_drtl_minus_two_expressions_agree():
    s = random_state(4, Boundary.OPEN, 5)
    alpha, h = 0.4, 0.09
    dm, cm = maps.drtl_minus_factors(s, alpha, h)
    a_next = shifted(s.a, 1, s.boundary)
    dm_next = shifted(dm, 1, s.boundary)
    den = alpha * a_next + h * dm_next
    ok = np.abs(den) > 1e-8          # the tail sites degenerate to 0/0
    alt = dm_next[ok] * (alpha * s.a[ok] + h * dm[ok]) / den[ok]
    assert ok[:2].all()
    assert np.max(np.abs(alt - cm[ok])) < 1e-12


def test_drtl_minus_alpha_limit_matches_dtl():
    s = random_state(6, Boundary.OPEN, 4)
    ref = maps.dtl_step(s, 0.05)
    out = maps.drtl_minus_step(s, 1e-8, 0.05)
    assert np.max(np.abs(out.a - ref.a)) < 1e-6
    assert np.max(np.abs(out.b - ref.b)) < 1e-6


def test_drtl_minus_alpha_equals_minus_h_matches_explicit():
    s = random_state(6, Boundary.PERIODIC, 8)
    h = 0.07
    imp = maps.drtl_minus_step(s, -h, h)
    exp = maps.drtl_minus_explicit_step(s, h)
    np.testing.assert_allclose(imp.a, exp.a, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(imp.b, exp.b, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# explicit rational maps
# ---------------------------------------------------------------------------

def test_explicit_plus_fixed_point():
    s = FlaschkaState([0.0, 0.0, 0.0], [0.7, 0.7, 0.7], Boundary.PERIODIC)
    out = maps.drtl_plus_explicit_step(s, 0.2)
    np.testing.assert_allclose(out.b, s.b, atol=1e-15)
    assert np.all(out.a == 0.0)


def test_explicit_minus_fixed_point():
    s = FlaschkaState([0.0, 0.0, 0.0], [0.7, 0.7, 0.7], Boundary.PERIODIC)
    out = maps.drtl_minus_explicit_step(s, 0.2)
    np.testing.assert_allclose(out.b, s.b, atol=1e-15)


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
def test_explicit_plus_inverse_roundtrip(boundary):
    s = random_state(6, boundary, 21)
    h = 0.08
    out = maps.drtl_plus_explicit_step(s, h)
    back = maps.drtl_plus_explicit_inverse(out, h)
    assert np.max(np.abs(back.a - s.a)) < 1e-12
    assert np.max(np.abs(back.b - s.b)) < 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(2, 9), h=st.floats(0.01, 0.2), seed=st.integers(0, 2 ** 32 - 1),
       boundary=st.sampled_from(Boundary))
def test_explicit_plus_inverse_roundtrip_at_any_state(n, h, seed, boundary):
    s = random_state(n, boundary, seed)
    try:
        back = maps.drtl_plus_explicit_inverse(maps.drtl_plus_explicit_step(s, h), h)
    except (SingularStep, DomainError):
        reject()
    assert np.max(np.abs(back.a - s.a)) < 1e-12
    assert np.max(np.abs(back.b - s.b)) < 1e-12

def test_explicit_plus_birationality_identity():
    s = random_state(5, Boundary.PERIODIC, 3)
    h = 0.06
    out = maps.drtl_plus_explicit_step(s, h)
    lhs = 1.0 + h * out.b + h * h * np.roll(out.a, 1)
    rhs = 1.0 + h * s.b + h * h * s.a
    assert np.max(np.abs(lhs - rhs)) < 1e-14


@pytest.mark.parametrize("stepper", [maps.drtl_plus_explicit_step,
                                     maps.drtl_minus_explicit_step])
def test_explicit_maps_limit_to_tl_field(stepper):
    s = random_state(6, Boundary.OPEN, 14)
    h = 1e-6
    out = stepper(s, h)
    db, da = tl_field(s)
    assert np.max(np.abs((out.b - s.b) / h - db)) < 1e-5
    assert np.max(np.abs((out.a - s.a) / h - da)) < 1e-5


# ---------------------------------------------------------------------------
# isospectrality of every map
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("name,stepper", [
    ("dtl", lambda s: maps.dtl_step(s, 0.05)),
    ("drtl+", lambda s: maps.drtl_plus_step(s, 0.3, 0.05)),
    ("drtl-", lambda s: maps.drtl_minus_step(s, 0.3, 0.05)),
    ("exp+", lambda s: maps.drtl_plus_explicit_step(s, 0.05)),
    ("exp-", lambda s: maps.drtl_minus_explicit_step(s, 0.05)),
])
def test_isospectrality_per_step(boundary, name, stepper):
    s = random_state(6, boundary, 19)
    alpha = None if name == "dtl" else (0.3 if name in ("drtl+", "drtl-") else
                                        0.05 if name == "exp+" else -0.05)
    nodes = spectral_nodes(s, alpha=alpha)
    ref = spectral_invariants(s, alpha=alpha, nodes=nodes)
    cur = s
    for _ in range(20):
        cur = stepper(cur)
        inv = spectral_invariants(cur, alpha=alpha, nodes=nodes)
        assert drift(inv, ref).max() < 1e-10


def test_periodic_branch_not_found_at_large_h():
    s = FlaschkaState([1.5, 1.8, 1.2], [0.9, -0.8, 0.5], Boundary.PERIODIC)
    with pytest.raises(NoRealBranch) as info:
        maps.dtl_factor_diag(s, 0.5)
    assert info.value.discriminant < 0.0 and info.value.site is None


# ---------------------------------------------------------------------------
# the exact ring solve: Moebius fixed point, then the recurrence's own pass
# ---------------------------------------------------------------------------

def test_ring_fixed_point_takes_the_attracting_root():
    # v -> (3v + 2)/(v + 2) fixes 2 (slope 1/4) and -1 (slope 4)
    for n in (1, 5):
        assert maps._ring_fixed_point([(3.0, 2.0, 1.0, 2.0)] * n) == pytest.approx(2.0, rel=1e-15)
    # v -> 1/v fixes -1 and 1 with slopes of equal size: the first root, big/P21
    assert maps._ring_fixed_point([(0.0, 1.0, 1.0, 0.0)]) == -1.0


def test_ring_fixed_point_of_a_rotation_has_no_real_branch():
    c, s = np.cos(0.3), np.sin(0.3)
    with pytest.raises(NoRealBranch) as info:
        maps._ring_fixed_point([(c, -s, s, c)] * 3)
    assert info.value.discriminant < 0.0 and info.value.site is None


def test_ring_fixed_point_of_an_overflowing_product_fails():
    with pytest.raises(SolveFailed, match="overflowed") as info:
        maps._ring_fixed_point([(1.0, 0.0, 1.0, 0.0), (1e308, 1e308, 0.0, 1.0)])
    assert not isinstance(info.value, NoRealBranch)



# (m21 v_6 + m22)^2 at site 7 overflows: libm's pow raises OverflowError,
# which the ring step reports as a failed solve
def test_ring_step_whose_closure_slope_overflows_fails_its_solve():
    s = random_state(8, Boundary.PERIODIC, 52)
    b = s.b.copy()
    b[6] *= 1e154
    with pytest.raises(SolveFailed, match="closure slope overflows at site 7"):
        maps.dtl_step(s.replace(b=b), 1.6248039534691787)

def _site_rows(kinds, n, seed):
    """(rows, n, 4) Moebius sites, a ring per row of the given kind: positive
    entries (two real roots), mixed signs (real or complex), upper
    triangular (P21 = 0, one root), a shear (P21 = 0 and no root), a swap
    (two roots of equal eigenvalue size), a rotation (complex roots), entries
    whose product overflows (n >= 2), or a vanishing product."""
    rng = np.random.default_rng(seed)
    c, s = np.cos(0.4), np.sin(0.4)
    make = {"positive": lambda: rng.uniform(0.1, 2.0, (n, 4)),
            "signed": lambda: rng.uniform(-2.0, 2.0, (n, 4)),
            "upper": lambda: rng.uniform(0.1, 2.0, (n, 4)) * [1.0, 1.0, 0.0, 1.0],
            "shear": lambda: np.tile([1.0, 0.5, 0.0, 1.0], (n, 1)),   # no root: NaN
            "swap": lambda: np.vstack(([[0.0, 1.0, 1.0, 0.0]],          # roots -1, 1 tie
                                       np.tile([1.0, 0.0, 0.0, 1.0], (n - 1, 1)))),
            "rotation": lambda: np.tile([c, -s, s, c], (n, 1)),
            "overflow": lambda: np.full((n, 4), 1e308),   # 2e308 at the second site
            "vanishing": lambda: np.vstack((rng.uniform(0.1, 2.0, (n - 1, 4)), [[0.0] * 4]))}
    return np.array([make[kind]() for kind in kinds])


def _scalar_outcome(sites):
    try:
        return maps._ring_fixed_point([tuple(site) for site in sites.tolist()])
    except SolveFailed as exc:
        return exc


@settings(max_examples=80, deadline=None, derandomize=True)
@given(kinds=st.lists(st.sampled_from(["positive", "positive", "upper", "shear", "swap",
                                       "signed"]),
                      min_size=2, max_size=12),
       bad=st.sampled_from([None, None, "rotation", "overflow", "vanishing"]),
       at=st.integers(0, 12), n=st.integers(2, 8), seed=st.integers(0, 2 ** 16))
def test_column_ring_fixed_point_is_the_scalar_one_per_row_bitwise(kinds, bad, at, n, seed):
    """Seeding a stack of rings as columns gives each row's scalar seed
    bitwise (NaN where a row has no root), or raises the error type and
    message of the first row whose scalar seed raises: a complex pair or an
    overflowing or vanishing product."""
    rows = _site_rows(kinds[:at] + [bad] * (bad is not None) + kinds[at:], n, seed)
    outcomes = [_scalar_outcome(ring) for ring in rows]
    columns = [tuple(site) for site in rows.transpose(1, 2, 0)]   # site k: four columns
    failing = [out for out in outcomes if isinstance(out, Exception)]
    with np.errstate(all="ignore"):
        if failing:
            with pytest.raises(SolveFailed) as info:
                maps._ring_fixed_point(columns)
            assert type(info.value) is type(failing[0])
            assert str(info.value) == str(failing[0])
        else:
            got = maps._ring_fixed_point(columns)
            assert got.tobytes() == np.array(outcomes).tobytes()


def test_column_ring_fixed_point_raises_for_a_complex_or_overflowing_row():
    regular = _site_rows(["positive"] * 3, 4, 0)
    for kind, error in (("rotation", NoRealBranch), ("overflow", SolveFailed)):
        rows = np.insert(regular, 1, _site_rows([kind], 4, 1)[0], axis=0)
        want = _scalar_outcome(rows[1])
        assert type(want) is error
        with np.errstate(all="ignore"), pytest.raises(error) as info:
            maps._ring_fixed_point([tuple(site) for site in rows.transpose(1, 2, 0)])
        assert type(info.value) is error and str(info.value) == str(want)


def _contract(k, p):
    return 0.5 * p + 1.0


_CONTRACT_SITES = [(0.5, 1.0, 0.0, 1.0)] * 4     # the sites of _contract, fixed point 2


def _moebius_chain(update, sites):
    """``maps._moebius_chain`` of the recurrence v_k = update(k, v_{k-1}),
    run as a map's forward loop over the site indices."""
    def forward(prev, ks):
        vals = []
        for k in ks:
            prev = update(k, prev)
            vals.append(prev)
        return vals
    return maps._moebius_chain(forward, list(range(len(sites))), sites)


def _closing_singular(k, p):
    if k == 0:
        if p == 0.0:
            raise SingularStep("closing pivot")
        return p
    return 0.0 if k == 2 else p


# synthetic updates run from the fixed point of _CONTRACT_SITES: a non-finite
# closing gap fails the closing test at site 0, and a NaN at a later site
# makes the Newton correction NaN, so that pass cannot close either; a
# Moebius recurrence comes out at its 50-digit fixed point
_CYCLIC_EDGES = [
    ("later site inf", lambda k, p: np.inf if k == 2 else _contract(k, p), _CONTRACT_SITES,
     SolveFailed),
    ("later site nan, closing gap finite",
     lambda k, p: np.nan if k == 2 else 2.0 if k == 3 else _contract(k, p), _CONTRACT_SITES,
     SolveFailed),
    ("closing site inf", lambda k, p: np.inf if k == 0 else _contract(k, p), _CONTRACT_SITES,
     SolveFailed),
    ("closing site nan", lambda k, p: np.nan if k == 0 else 3.0, _CONTRACT_SITES, SolveFailed),
    ("converges", lambda k, p: 1.0 + 0.1 * k + 0.25 / p,
     [(1.0 + 0.1 * k, 0.25, 1.0, 0.0) for k in range(4)],
     [1.1689394440900447, 1.3138690770201628, 1.390277710597312, 1.4798201885093815]),
]


@pytest.mark.parametrize("label,update,sites,expected", _CYCLIC_EDGES,
                         ids=[case[0] for case in _CYCLIC_EDGES])
def test_cyclic_fixed_point_edge_paths(label, update, sites, expected):
    if expected is SolveFailed:
        with pytest.raises(SolveFailed, match="does not close"):
            _moebius_chain(update, sites)
    else:
        np.testing.assert_allclose(_moebius_chain(update, sites), expected, rtol=1e-15, atol=0)


@pytest.mark.parametrize("update", [
    _closing_singular,
    # the closing update runs before a NaN at a later site is looked at
    lambda k, p: _closing_singular(k, p) if k != 1 else np.nan,
], ids=["closing update raises", "closing update raises before later nan"])
def test_cyclic_fixed_point_closing_update_raises(update):
    with pytest.raises(SingularStep, match="^closing pivot$"):
        _moebius_chain(update, _CONTRACT_SITES)


def test_moebius_slope_of_columns_is_the_float_slope_of_each_row_bitwise():
    """A stack of rings solved as columns takes the slopes of its rows' own
    float loops: its square is libm's pow too, not numpy's x*x, which
    differs in the last bit for about one in a thousand of these."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 20_000))
    prev = rng.standard_normal(20_000)
    columns = maps._moebius_slope([tuple(m)])(0, prev, None)
    rows = [maps._moebius_slope([tuple(site)])(0, v, None)
            for site, v in zip(m.T.tolist(), prev.tolist())]
    assert columns.tobytes() == np.array(rows).tobytes()
    assert not np.array_equal((m[0] * m[3] - m[1] * m[2]) / (m[2] * prev + m[3]) ** 2, rows)


def _fixed_point_iteration(update, start, tol):
    """The cyclic recurrence swept from start until no entry moves by tol."""
    vals = list(start)
    for _ in range(2000):
        prev, before = vals[-1], list(vals)
        for k in range(len(vals)):
            prev = vals[k] = update(k, prev)
        if max(abs(v - w) for v, w in zip(vals, before)) < tol:
            return vals
    raise AssertionError("fixed-point iteration did not converge")


# ring steps (after `steps` steps from the seed) whose inexact Gauss-Seidel
# branch failed the in-step identity check ("the two expressions for d2/cm
# disagree"); the exact branch is within 1e-14 of the 50-digit fixed point and
# the steps pass every check
@pytest.mark.parametrize("name,n,h,alpha,seed,steps", [
    ("drtl+", 4, 1.0, 0.7, 40, 0), ("drtl+", 4, 1.0, 0.7, 82, 0), ("drtl-", 3, 0.5, 0.7, 2, 0),
    ("drtl+", 6, 0.3, -0.7, 1, 7), ("drtl+", 8, 0.5, -0.7, 4, 33)])
def test_ring_factors_match_a_50_digit_fixed_point(name, n, h, alpha, seed, steps):
    mp = pytest.importorskip("mpmath")
    step, factors = {"drtl+": (maps.drtl_plus_step, maps.drtl_plus_factors),
                     "drtl-": (maps.drtl_minus_step, maps.drtl_minus_factors)}[name]
    s = random_state(n, Boundary.PERIODIC, seed)
    for _ in range(steps):
        s = step(s, alpha, h)
    got = factors(s, alpha, h)[0].tolist()
    step(s, alpha, h)
    with mp.workdps(50):
        a, b = [mp.mpf(x) for x in s.a.tolist()], [mp.mpf(x) for x in s.b.tolist()]
        H, A = mp.mpf(h), mp.mpf(alpha)
        if name == "drtl+":
            update = lambda k, p: 1 + H * b[k] + H * (A - H) * a[k - 1] / p
        else:
            update = lambda k, p: a[k] / (1 + (A + H) * (b[k] - H * p))
        ref = _fixed_point_iteration(update, [mp.mpf(x) for x in got], mp.mpf(10) ** -45)
    scale = max(1.0, max(abs(float(r)) for r in ref))
    assert max(abs(float(g - r)) for g, r in zip(got, ref)) < 1e-14 * scale


# ring states with sites of 1e4-1e8 (after `steps` steps from the seed) whose
# pass after a single closure correction missed the 1e-12 closing test
# (SolveFailed); they close after 2 to 7 corrections.  Their factors are
# 1.6e-12 to 1.2e-11 from the 50-digit fixed point, relative to its largest
# entry: sites of 1e4 cancel to factors of 1e-4 to 1, so the float recurrence
# cannot meet the 1e-14 bound of the test above.
@pytest.mark.parametrize("name,n,h,alpha,seed,steps", [
    ("dtl", 3, 1.0, None, 17, 87), ("drtl+", 5, 0.3, -0.7, 14, 189),
    ("drtl+", 8, 0.3, -0.7, 12, 115), ("drtl+", 8, 1.0, 0.3, 4, 43)])
def test_ring_with_large_sites_closes_after_repeated_corrections(name, n, h, alpha, seed, steps):
    step = partial(maps.dtl_step, h=h) if name == "dtl" else partial(
        maps.drtl_plus_step, alpha=alpha, h=h)
    s = random_state(n, Boundary.PERIODIC, seed)
    for _ in range(steps):
        s = step(s)
    assert np.max(np.abs(s.b)) > 1e3
    out = step(s)
    assert np.all(np.isfinite(out.a)) and np.all(np.isfinite(out.b))


@pytest.mark.parametrize("seed", range(5))
def test_drtl_minus_ring_with_vanishing_one_plus_alpha_b_steps(seed):
    # 1 + alpha b_2 = 0: the open chain never guarded it, and the ring no
    # longer does; the step passes its identity and addition-formula checks
    alpha, h = 0.5, 0.1
    s = random_state(6, Boundary.PERIODIC, seed)
    b = s.b.copy()
    b[2] = -1.0 / alpha
    ring = FlaschkaState(s.a, b, Boundary.PERIODIC)
    assert 1.0 + alpha * ring.b[2] == 0.0
    maps.drtl_minus_step(FlaschkaState(np.append(s.a[:-1], 0.0), b, Boundary.OPEN), alpha, h)
    maps.drtl_minus_step(ring, alpha, h)
    dm, _ = maps.drtl_minus_factors(ring, alpha, h)
    res = dm - ring.a / (1.0 + (alpha + h) * (ring.b - h * np.roll(dm, 1)))
    assert np.max(np.abs(res)) < 1e-13


def test_ring_factors_with_an_overflowed_site():
    # dm_4 overflows to inf and the entries after it are finite again: the
    # residual is NaN on every sweep, so the solve ends after its Newton polish
    # (values from the solver that formed the residual at every site)
    s = FlaschkaState([-1.2444916740193264, 0.5, 0.0, 1e308, -1e154],
                      [-2.0, 0.0, -1.1611172573391737, -0.5973170817558666,
                       0.3753143098002948], Boundary.PERIODIC)
    dm, cm = maps.drtl_minus_factors(s, 0.3, 0.5)
    assert [repr(x) for x in dm.tolist()] == [
        "2.07415279003221", "2.935325090176233", "-0.0", "inf", "0.0"]
    assert [repr(x) for x in cm.tolist()] == [
        "1.204367423883738", "9.566711837872653", "-0.0", "nan", "nan"]


# ---------------------------------------------------------------------------
# golden trajectories of the open-chain step kernels
# ---------------------------------------------------------------------------

# final state after 1000 steps from the acceptance seeds (n = 8, h = 0.05,
# alpha = 0.3), to 17 digits: any change in the rounding of a step shows here
_GOLDEN_1000 = {
    "dtl": '{"n": 8, "boundary": "open", '
           '"a": [0.0001962113390246075, 8.3642671303103239e-20, 5.1231732966211858e-08, '
           '1.3941672508683099e-27, 2.0503853919794076e-06, 8.298994945328939e-07, '
           '8.1403452497303648e-28, 0], '
           '"b": [2.0213453924726812, 2.0210320642692281, 0.97308466095734292, '
           '0.54286854664156381, -0.81732851863744327, -0.97140377111071152, '
           '-1.2197518113826116, -2.3626657862692384]}',
    "drtl+": '{"n": 8, "boundary": "open", '
             '"a": [3.0431398314796925e-11, 2.1396975292615364e-15, 1.3213196162062223e-18, '
             '1.5624545463263336e-07, 3.4690074736349402e-28, 2.5311482602412214e-06, '
             '0.00015881430582630345, 0], '
             '"b": [2.608866750967362, 2.0824818619687711, 1.3230931659034559, '
             '0.38129000393175572, 0.085292493084094076, -1.260630092185856, '
             '-1.4764755684014095, -1.6994080636257363]}',
    "drtl-": '{"n": 8, "boundary": "open", '
             '"a": [0.00068581054780328778, 4.7448387006500697e-13, 2.5208395572927817e-05, '
             '2.4833170136845533e-16, 6.4118606874897206e-15, 1.7009745195338593e-21, '
             '2.0479712116415235e-20, 0], '
             '"b": [2.4431342082728773, 1.9474476964578864, 0.67424536881917729, '
             '0.41691709526495979, -0.36602224909592335, -0.84022630567428491, '
             '-1.24105644395609, -1.5191976948638612]}',
}


@pytest.mark.parametrize("seed,name,stepper", [
    (0, "dtl", lambda s: maps.dtl_step(s, 0.05)),
    (1, "drtl+", lambda s: maps.drtl_plus_step(s, 0.3, 0.05)),
    (2, "drtl-", lambda s: maps.drtl_minus_step(s, 0.3, 0.05)),
])
def test_open_step_kernels_golden_after_1000_steps(seed, name, stepper):
    s = random_state(8, Boundary.OPEN, seed)
    for _ in range(1000):
        s = stepper(s)
    assert state_to_json(s) == _GOLDEN_1000[name]


# the same after 1000 steps on periodic n = 8 rings: covers the ring branch
# solve and the wrap-around neighbours of every step kernel
_GOLDEN_RING_1000 = {
    "dtl": '{"n": 8, "boundary": "periodic", '
            '"a": [0.098072165151274024, 2.3519184875367425, 0.37031759723791702, '
            '1.214068480102739, 0.56485819542090088, 0.87205321722874363, '
            '1.2508879346358646, 1.6489759870946239], '
            '"b": [0.12417876177003473, 0.12294386421176723, 0.40436132871462271, '
            '-0.4665565616620449, -0.15718732757544276, 1.5421614791953198, '
            '-0.16544342952527721, -1.2172773381881647]}',
    "drtl+": '{"n": 8, "boundary": "periodic", '
              '"a": [0.60060999744013732, 0.97916075739155239, 1.2735255047337113, '
              '0.97289156005138555, 0.58909223807489219, 1.9347228712332574, '
              '0.7279922897753629, 2.2103731920373315], '
              '"b": [-0.32864189697631757, 0.84357851306687603, -0.55866565806767121, '
              '-0.14099630039355104, 0.73115785106135034, -0.50744363351636645, '
              '0.024436380193858891, -0.54213326869768097]}',
    "drtl-": '{"n": 8, "boundary": "periodic", '
              '"a": [0.28546211815279049, 1.2131292851361015, 0.52768436060021173, '
              '1.1096914785581791, 0.63720316883999073, 0.93271937587443376, '
              '1.0324323179948247, 0.24945249966593896], '
              '"b": [-0.35191721712351887, -0.037047075367416298, 0.51490588848806418, '
              '-0.1780714204137796, -0.22523276871878695, 1.111753002845598, '
              '-0.78639821733613335, -0.26743601533301542]}',
}


@pytest.mark.parametrize("seed,name,stepper", [
    (0, "dtl", lambda s: maps.dtl_step(s, 0.05)),
    (1, "drtl+", lambda s: maps.drtl_plus_step(s, 0.3, 0.05)),
    (2, "drtl-", lambda s: maps.drtl_minus_step(s, 0.3, 0.05)),
])
def test_ring_step_kernels_golden_after_1000_steps(seed, name, stepper):
    s = random_state(8, Boundary.PERIODIC, seed)
    for _ in range(1000):
        s = stepper(s)
    assert state_to_json(s) == _GOLDEN_RING_1000[name]


# ---------------------------------------------------------------------------
# failing steps: the step index, the exception type and its message
# ---------------------------------------------------------------------------

# seeded trajectories that fail, each at a fixed step with a fixed error; the
# last case divides by h = 0 in the alpha = 0 form of drtl+, where the IEEE
# 0/0 = nan leaves b~ non-finite
_FAILING = [
    ("dtl", Boundary.PERIODIC, 3, 0.5, 0.0, 1, 0, NoRealBranch,
     "ring step has no real solution: discriminant -0.0129 < 0"),
    ("drtl+", Boundary.PERIODIC, 3, 0.5, 0.0, 1, 0, NoRealBranch,
     "ring step has no real solution: discriminant -0.0129 < 0"),
    ("drtl-", Boundary.PERIODIC, 3, 0.5, 0.0, 1, 0, NoRealBranch,
     "ring step has no real solution: discriminant -0.0923 < 0"),
    ("drtl+", Boundary.PERIODIC, 6, 0.5, -0.7, 3, 0, NoRealBranch,
     "ring step has no real solution: discriminant -0.0103 < 0"),
    ("drtl+", Boundary.PERIODIC, 5, 0.3, -0.7, 5, 5, NumericalError,
     "the two expressions for d2 disagree"),
    ("drtl-", Boundary.OPEN, 6, 0.3, 0.7, 1, 18, NumericalError,
     "the two expressions for cm disagree"),
    ("drtl-", Boundary.OPEN, 4, 0.5, 0.7, 2, 4, NumericalError,
     "the two expressions for cm disagree"),
    ("drtl-", Boundary.PERIODIC, 6, 0.3, 0.7, 0, 12, NumericalError,
     "the two expressions for cm disagree"),
    ("drtl+", Boundary.OPEN, 5, 0.0, 0.0, 0, 0, ValueError, "b must be finite"),
]


@pytest.mark.parametrize("name,boundary,n,h,alpha,seed,step,error,message", _FAILING)
def test_failing_steps_keep_index_type_and_message(name, boundary, n, h, alpha, seed,
                                                    step, error, message):
    stepper = {"dtl": lambda s: maps.dtl_step(s, h),
               "drtl+": lambda s: maps.drtl_plus_step(s, alpha, h),
               "drtl-": lambda s: maps.drtl_minus_step(s, alpha, h)}[name]
    s = random_state(n, boundary, seed)
    for _ in range(step):
        s = stepper(s)
    with pytest.raises(error) as info:
        stepper(s)
    assert type(info.value) is error
    assert str(info.value) == message


def _same_bits(s, t):
    return s.a.tobytes() == t.a.tobytes() and s.b.tobytes() == t.b.tobytes()


# the same trajectories through verify.trajectory, which checks a factor map
# a block of steps at a time, at the default block size and in blocks of
# three (so full blocks pass before the failing one): the states before the
# failing step are bitwise those of the public steps, and the failing step,
# rerun through the public step, raises the same error
@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("name,boundary,n,h,alpha,seed,step,error,message", _FAILING)
def test_trajectory_blocks_replay_the_failing_step(monkeypatch, block, name, boundary, n, h,
                                                   alpha, seed, step, error, message):
    if block is not None:
        monkeypatch.setattr(lax, "states_per_chunk", lambda nodes: block)
    bound = SYSTEMS[name].stepper(h, alpha)
    assert maps._halves(bound) is not None
    s, expected = random_state(n, boundary, seed), []
    for _ in range(step):
        s = bound(s)
        expected.append(s)
    got = []
    with pytest.raises(error) as info:
        for t in verify.trajectory(bound, random_state(n, boundary, seed), step + 40):
            got.append(t)
    assert type(info.value) is error
    assert str(info.value) == message
    assert len(got) == step and all(map(_same_bits, got, expected))


def _step_halves(name, boundary, n, h, alpha, seed, steps):
    """The check half of a system and its float reference, each with its
    boundary bound, and the lists (a, b, a~, b~, *factors) of each of
    `steps` step halves from a seeded state."""
    step_half, check_half = maps._halves(SYSTEMS[name].stepper(h, alpha))
    ring = boundary is Boundary.PERIODIC
    s = random_state(n, boundary, seed)
    rows, taken = (s.a.tolist(), s.b.tolist()), []
    for _ in range(steps):
        a, b, factors = step_half(*rows, ring)
        taken.append((*rows, a, b, *factors))
        rows = a, b
    params = (h,) if name == "dtl" else (alpha, h)
    return partial(check_half, boundary), partial(_REF_CHECKS[name], *params, ring), taken


def _columns(taken):
    """The lists of steps as one site-major block: site k is row k, step j
    column j."""
    return [np.array(part).T for part in zip(*taken)]


# the check half passes a block of steps exactly when each of its steps
# passes alone and on floats: the failing steps of the cases above fail
# their block with their own error, the steps before them pass as one
# block, and so do the steps of regular trajectories
@pytest.mark.parametrize("name,boundary,n,h,alpha,seed,step,error,message",
                         [case for case in _FAILING if case[-2] is NumericalError])
def test_column_checks_fail_a_block_where_one_of_its_steps_fails(name, boundary, n, h, alpha,
                                                                 seed, step, error, message):
    check, ref, taken = _step_halves(name, boundary, n, h, alpha, seed, step + 1)
    with np.errstate(all="ignore"):
        check(*_columns(taken[:-1]))
        for block in (taken, taken[-1:]):
            with pytest.raises(error) as info:
                check(*_columns(block))
            assert str(info.value) == message
    with pytest.raises(error) as info:
        ref(*taken[-1])
    assert str(info.value) == message


# (at alpha = h the second expression of d2 degenerates at every site)
@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("name,alpha", [("dtl", 0.3), ("drtl+", 0.3), ("drtl+", 0.05),
                                        ("drtl-", 0.3)])
def test_column_checks_pass_a_regular_block(name, alpha, boundary):
    for seed in range(3):
        check, ref, taken = _step_halves(name, boundary, 7, 0.05, alpha, seed, 50)
        with np.errstate(all="ignore"):
            check(*_columns(taken))
            for lists in taken:
                check(*_columns([lists]))
                ref(*lists)


# ---------------------------------------------------------------------------
# the step halves against a reference written as one list comprehension per
# factor and per update, each recurrence a closure called per site
# ---------------------------------------------------------------------------

def _ref_prev(v, ring, fill=0.0):
    return [v[-1] if ring else fill] + v[:-1]


def _ref_next(v, ring, fill=0.0):
    return v[1:] + [v[0] if ring else fill]


def _ref_open_chain(update, first, n):
    vals = [first]
    for k in range(1, n):
        vals.append(update(k, vals[-1]))
    return vals


def _ref_dtl(h, al, bl, ring, factor_only=False):
    hh = h * h

    def update(k, prev):
        if abs(prev) < maps._PIVOT:
            raise SingularStep("beta recurrence hit a vanishing pivot")
        return 1.0 + h * bl[k] - hh * al[k - 1] / prev

    if ring:
        beta = _moebius_chain(update, [(1.0 + h * b, -hh * ap, 1.0, 0.0)
                                       for b, ap in zip(bl, _ref_prev(al, ring))])
    else:
        beta = _ref_open_chain(update, 1.0 + h * bl[0], len(bl))
    if factor_only:
        return None, None, (beta,)

    ratio = [a / be for a, be in zip(al, beta)]
    b_new = [b + h * (r - rp) for b, r, rp in zip(bl, ratio, _ref_prev(ratio, ring))]
    a_new = [a * bn / be for a, bn, be in zip(al, _ref_next(beta, ring, 1.0), beta)]
    return a_new, b_new, (beta,)


def _ref_drtl_plus(alpha, h, al, bl, ring, factor_only=False):
    coupling = h * (alpha - h)

    def update(k, prev):
        if abs(prev) < maps._PIVOT:
            raise SingularStep("d1 recurrence hit a vanishing pivot")
        return 1.0 + h * bl[k] + coupling * al[k - 1] / prev

    if ring:
        d1 = _moebius_chain(update, [(1.0 + h * b, coupling * ap, 1.0, 0.0)
                                     for b, ap in zip(bl, _ref_prev(al, ring))])
    else:
        d1 = _ref_open_chain(update, 1.0 + h * bl[0], len(bl))
    ha = h * alpha
    d1_prev = _ref_prev(d1, ring, 1.0)
    denom = [dp + ha * ap for dp, ap in zip(d1_prev, _ref_prev(al, ring))]
    d2 = [dp * (d + ha * a) / de for dp, d, a, de in zip(d1_prev, d1, al, denom)]
    if factor_only:
        return None, None, (d1, d2, denom)

    a_new = [a * en / d for a, en, d in zip(al, _ref_next(d2, ring, 1.0), d1)]
    if alpha == 0.0:
        b_new = [bn + (d - dn) / h
                 for bn, d, dn in zip(_ref_next(bl, ring), d1, _ref_next(d1, ring, 1.0))]
    else:
        b_new = [((1.0 + alpha * b) * e / d - 1.0) / alpha for b, e, d in zip(bl, d2, d1)]
    return a_new, b_new, (d1, d2, denom)


def _ref_drtl_minus(alpha, h, al, bl, ring, factor_only=False):
    rate = alpha + h

    def update(k, prev):
        den = 1.0 + rate * (bl[k] - h * prev)
        if abs(den) < maps._PIVOT:
            raise SingularStep("dm recurrence hit a vanishing denominator")
        return al[k] / den

    if ring:
        dm = _moebius_chain(update, [(0.0, a, -rate * h, 1.0 + rate * b)
                                     for a, b in zip(al, bl)])
    else:
        dm = _ref_open_chain(update, update(0, 0.0), len(bl))
    dm_prev = _ref_prev(dm, ring)
    b_next = _ref_next(bl, ring)
    b_lag = [b - h * dp for b, dp in zip(bl, dm_prev)]
    b_lead = [bn - h * d for bn, d in zip(b_next, dm)]
    lower = [1.0 + alpha * w for w in b_lead]
    cm = [d * (1.0 + alpha * u) / lo for d, u, lo in zip(dm, b_lag, lower)]
    if factor_only:
        return None, None, (dm, cm, lower)

    b_new = [(b + h * (d - dp) + alpha * bn * u) / lo
             for b, d, dp, bn, u, lo in zip(bl, dm, dm_prev, b_next, b_lag, lower)]
    a_new = [c * (1.0 + rate * w) for c, w in zip(cm, b_lead)]
    return a_new, b_new, (dm, cm, lower)


_REF_HALVES = {"dtl": (maps._dtl, _ref_dtl), "drtl+": (maps._drtl_plus, _ref_drtl_plus),
               "drtl-": (maps._drtl_minus, _ref_drtl_minus)}


# The check halves written on one step's lists of Python floats, the
# reference the site-major array form is compared against.  The reductions
# keep the NaN semantics of numpy's (np.min and np.max propagate a NaN
# entry, where Python's min and max skip it), except the plain max of a few
# values, which is Python's.

def _ref_guard(vals, what):
    if min(map(abs, vals)) < maps._PIVOT and not any(v != v for v in vals):
        raise SingularStep(f"{what} fell below the singularity guard")


def _ref_amax(vals):
    top = max(map(abs, vals))
    total = sum(vals)       # NaN if an entry is NaN (or if both infinities occur)
    if total != total and any(v != v for v in vals):
        return math.nan
    return top


def _ref_regular(den, cut, *lists):
    return compress(zip(den, *lists), map(cut.__lt__, map(abs, den)))


def _ref_dtl_checks(h, ring, al, bl, a_new, b_new, beta):
    _ref_guard(beta, "beta")


def _ref_drtl_plus_checks(alpha, h, ring, al, bl, a_new, b_new, d1, d2, denom):
    _ref_guard(d1, "d1")
    _ref_guard(denom, "d1 + h*alpha*a")
    h_one_ab = [h * (1.0 + alpha * b) for b in bl]
    h_one_ab_next = _ref_next(h_one_ab, ring, h * (1.0 + alpha * 0.0))
    d1_next = _ref_next(d1, ring, 1.0)
    den2 = [alpha * d - t for d, t in zip(d1, h_one_ab)]
    scale = max(1.0, _ref_amax(d2))
    gaps = [d * (alpha * dn - tn) / q - e for q, d, dn, tn, e in
            _ref_regular(den2, 1e-8 * scale, d1, d1_next, h_one_ab_next, d2)]
    if gaps and _ref_amax(gaps) > maps._ID_TOL * scale:
        raise NumericalError("the two expressions for d2 disagree")
    if a_new is None:
        return
    scale = max(1.0, _ref_amax(d1), _ref_amax(bl))
    ha = h * alpha
    add1 = [h * (1.0 + alpha * bt) + alpha * dn - tn - alpha * e
            for bt, dn, tn, e in zip(b_new, d1_next, h_one_ab_next, d2)]
    add2 = [d - ha * atp - e + ha * a for d, atp, e, a in zip(d1, _ref_prev(a_new, ring), d2, al)]
    if max(_ref_amax(add1), _ref_amax(add2)) > maps._ADD_TOL * scale:
        raise NumericalError("drtl+ addition formulas violated")


def _ref_drtl_minus_checks(alpha, h, ring, al, bl, a_new, b_new, dm, cm, lower):
    _ref_guard(lower, "1 + alpha(b_next - h dm)")
    alpha_a = [alpha * a for a in al]
    h_dm = [h * d for d in dm]
    dm_max = _ref_amax(dm)
    scale = max(1.0, dm_max)
    den2 = [aan + hdn for aan, hdn in zip(_ref_next(alpha_a, ring), _ref_next(h_dm, ring))]
    if not ring:
        den2.pop()          # zip below stops before the open end
    gaps = [dn * (aa + hd) / q - c for q, dn, aa, hd, c in
            _ref_regular(den2, 1e-8 * scale, _ref_next(dm, ring), alpha_a, h_dm, cm)]
    if gaps and _ref_amax(gaps) > maps._ID_TOL * scale:
        raise NumericalError("the two expressions for cm disagree")
    if a_new is None:
        return
    scale = max(1.0, _ref_amax(bl), dm_max)
    h_cm = [h * c for c in cm]
    add1 = [bt + hdp - b - hc
            for bt, hdp, b, hc in zip(b_new, _ref_prev(h_dm, ring, h * 0.0), bl, h_cm)]
    add2 = [alpha * at - hd - aa + hc for at, hd, aa, hc in zip(a_new, h_dm, alpha_a, h_cm)]
    if max(_ref_amax(add1), _ref_amax(add2)) > maps._ADD_TOL * scale:
        raise NumericalError("drtl- addition formulas violated")


_REF_CHECKS = {"dtl": _ref_dtl_checks, "drtl+": _ref_drtl_plus_checks,
               "drtl-": _ref_drtl_minus_checks}


def _half_outcome(half, params, al, bl, ring, factor_only):
    """The bytes of each list a step half returns (None for a~, b~ it
    leaves out), or the type and message of the error it raises."""
    try:
        a_new, b_new, factors = half(*params, list(al), list(bl), ring, factor_only)
    except Exception as exc:    # any error: the other half must raise it too
        return type(exc), str(exc)
    return [None if v is None else np.array(v, dtype=float).tobytes()
            for v in (a_new, b_new, *factors)]


# h and alpha at the parameter coincidences (alpha = h for drtl+, alpha = -h
# for drtl-), at alpha = 0, and in general position; a poisoned site has an
# entry of b scaled by 1e154 (products of its terms overflow) or set to -1/h,
# -1/(alpha + h) for drtl- (the pivot of the map's recurrence is then about
# zero at open sites)
@settings(max_examples=400, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_REF_HALVES)), boundary=st.sampled_from(Boundary),
       n=st.integers(2, 12), seed=st.integers(0, 2 ** 16),
       h=st.sampled_from([0.0, 0.05, 0.5, 1.0]) | st.floats(0.001, 2.0),
       alpha=st.sampled_from([0.0, 0.3, -0.3, "h", "-h"]) | st.floats(-1.0, 1.0),
       poison=st.sampled_from([None, None, "big", "pivot"]), site=st.integers(0, 11),
       factor_only=st.booleans())
def test_step_halves_are_the_reference_bitwise(name, boundary, n, seed, h, alpha, poison,
                                               site, factor_only):
    alpha = h if alpha == "h" else -h if alpha == "-h" else alpha
    s = random_state(n, boundary, seed)
    al, bl = s.a.tolist(), s.b.tolist()
    if poison == "big":
        bl[site % n] *= 1e154
    rate = h + alpha if name == "drtl-" else h
    if poison == "pivot" and rate != 0.0:
        bl[site % n] = -1.0 / rate
    params = (h,) if name == "dtl" else (alpha, h)
    ring = boundary is Boundary.PERIODIC
    got, want = (_half_outcome(half, params, al, bl, ring, factor_only)
                 for half in _REF_HALVES[name])
    assert got == want


def _outcome(check, *args):
    """None if check(*args) passes, else the type and message of its error."""
    try:
        check(*args)
    except Exception as exc:    # any error: the other form must raise it too
        return type(exc), str(exc)
    return None


# the check halves on site-major arrays against the float reference: the
# steps of a seeded trajectory, with some entries of their lists (the state,
# its image or a factor) poisoned, each checked as a block of one step
# raise exactly the reference's error, and a block of them passes exactly
# when every one of its steps passes the reference
@settings(max_examples=400, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_REF_CHECKS)), boundary=st.sampled_from(Boundary),
       n=st.integers(2, 12), seed=st.integers(0, 2 ** 16), steps=st.integers(1, 12),
       h=st.sampled_from([0.0, 0.05, 0.5, 1.0]) | st.floats(0.001, 2.0),
       alpha=st.sampled_from([0.0, 0.3, -0.3, "h", "-h"]) | st.floats(-1.0, 1.0),
       poisons=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 6), st.integers(0, 11),
                                  st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1e-14,
                                                   1e300])), max_size=4),
       factor_only=st.booleans())
def test_array_check_halves_are_the_float_reference(name, boundary, n, seed, steps, h, alpha,
                                                    poisons, factor_only):
    alpha = h if alpha == "h" else -h if alpha == "-h" else alpha
    step_half, check_half = maps._halves(SYSTEMS[name].stepper(h, alpha))
    ring = boundary is Boundary.PERIODIC
    ref = partial(_REF_CHECKS[name], *((h,) if name == "dtl" else (alpha, h)), ring)
    s = random_state(n, boundary, seed)
    rows, taken = (s.a.tolist(), s.b.tolist()), []
    for _ in range(steps):
        try:
            a, b, factors = step_half(*rows, ring)
        except (ArithmeticError, NumericalError):
            break
        taken.append([list(v) for v in (*rows, a, b, *factors)])
        rows = a, b
    for step, part, site, value in poisons if taken else ():
        lists = taken[step % len(taken)]
        lists[part % len(lists)][site % n] = value
    verdicts = []
    with np.errstate(all="ignore"):
        for lists in taken:
            if factor_only:
                lists = [*lists[:2], None, None, *lists[4:]]
            want = _outcome(ref, *lists)
            assert _outcome(check_half, boundary, *(v if v is None else np.reshape(v, (-1, 1))
                                                    for v in lists)) == want
            verdicts.append(want is None)
    if taken and not factor_only:
        block = [np.array(part) for part in zip(*taken)]
        assert maps._passes(check_half, boundary, block) == all(verdicts)


# ---------------------------------------------------------------------------
# step_stack: independent states stepped as one stack
# ---------------------------------------------------------------------------

_STACKED = ["dtl", "drtl+", "drtl-", "drtl+explicit", "drtl-explicit", "tl"]


def _public_rows(step, states):
    """The states step(state) of each of states, or the error of the first
    whose step raises."""
    out = []
    for s in states:
        try:
            out.append(step(s))
        except Exception as exc:    # any error: the stack must raise it too
            return out, exc
    return out, None


def _assert_stack_is_the_public_rows(step, states, boundary):
    want, error = _public_rows(step, states)
    a, b = np.array([s.a for s in states]), np.array([s.b for s in states])
    if error is not None:
        with pytest.raises(type(error)) as info:
            maps.step_stack(step, a, b, boundary)
        assert str(info.value) == str(error)
        return error
    got_a, got_b = maps.step_stack(step, a, b, boundary)
    assert got_a.tobytes() == np.array([t.a for t in want]).tobytes()
    assert got_b.tobytes() == np.array([t.b for t in want]).tobytes()
    return None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(_STACKED), boundary=st.sampled_from(list(Boundary)),
       n=st.integers(2, 8), rows=st.sampled_from([16, 24, 7, 1, 15, 2]),
       h=st.floats(0.01, 0.6), alpha=st.floats(-0.6, 0.6), seed=st.integers(0, 2 ** 16),
       poison=st.sampled_from([None, None, "huge", "pivot"]), at=st.integers(0, 23))
def test_step_stack_is_the_public_step_of_each_row_bitwise(name, boundary, n, rows, h, alpha,
                                                           seed, poison, at):
    """Each row of a stack is bitwise the public step of its state, for the
    factor maps (their check half once for the stack), the explicit maps and a
    flow, or the stack raises the error type and message of the first row
    whose public step raises.  A poisoned row, its b scaled by 1e154 or set
    to -1/h (a vanishing 1 + h b), fails or not as its own step does."""
    states = [random_state(n, boundary, seed + i) for i in range(rows)]
    if poison is not None:
        s = states[at % rows]
        b = s.b * 1e154 if poison == "huge" else np.full(n, -1.0 / h)
        states[at % rows] = FlaschkaState(s.a, b, boundary)
    _assert_stack_is_the_public_rows(SYSTEMS[name].stepper(h, alpha), states, boundary)


@pytest.mark.parametrize("name,boundary,n,h,alpha,seed,step,error,message", _FAILING)
def test_step_stack_with_one_failing_row_raises_its_error(name, boundary, n, h, alpha, seed,
                                                          step, error, message):
    """The failing state of each case above, stacked after and before the
    regular states of its own trajectory (20 rows where it has some), makes
    the stack raise its public step's error."""
    bound = SYSTEMS[name].stepper(h, alpha)
    trail = [random_state(n, boundary, seed)]
    for _ in range(step):
        trail.append(bound(trail[-1]))
    regular = (trail[:-1] * 20)[:19]
    states = regular[:3] + trail[-1:] + regular[3:]
    got = _assert_stack_is_the_public_rows(bound, states, boundary)
    assert type(got) is error and str(got) == message


@pytest.mark.parametrize("name", ["drtl-", "drtl+explicit"])
def test_step_stack_runs_a_wrapped_step_as_a_stack(monkeypatch, name):
    """A functools.wraps wrapper of a public step (a profiler's, say) is
    recognised: a regular stack never calls it, and a stack with a failing
    row calls it once for each row up to that one."""
    attr = {"drtl-": "drtl_minus_step", "drtl+explicit": "drtl_plus_explicit_step"}[name]
    calls, public = [], getattr(maps, attr)

    @wraps(public)
    def counted(*args, **kwargs):
        calls.append(args[0])
        return public(*args, **kwargs)

    monkeypatch.setattr(maps, attr, counted)
    h, alpha, bc = 0.05, 0.3, Boundary.OPEN
    step = SYSTEMS[name].stepper(h, alpha)
    states = [random_state(6, bc, seed) for seed in range(20)]
    assert _assert_stack_is_the_public_rows(step, states, bc) is None
    calls.clear()
    got_a, _ = maps.step_stack(step, np.array([s.a for s in states]),
                               np.array([s.b for s in states]), bc)
    assert not calls and got_a.shape == (20, 6)
    # a vanishing first pivot: 1 + (alpha + h) b_1 of drtl-, D_1 of drtl+(h, h)
    s = states[4]
    b = s.b.copy()
    b[0] = -1.0 / (alpha + h) if name == "drtl-" else -(1.0 + h * h * s.a[0]) / h
    states[4] = FlaschkaState(s.a, b, bc)
    calls.clear()
    assert isinstance(_assert_stack_is_the_public_rows(step, states, bc), SingularStep)
    assert len(calls) == 2 * 5      # the public rows, then the stack's rerun rows


def _vector_guard(vals, what):
    """The pivot guard of one vector by np.min over all its entries, the
    form the explicit maps used before they took ``maps._guard``."""
    if np.abs(vals).min() < maps._PIVOT:
        raise SingularStep(f"{what} fell below the singularity guard")


def test_list_reductions_follow_numpy_nan_semantics():
    nan = float("nan")
    cases = [[1.0, 2.0, -3.0], [1e-14, 2.0, 1.0], [nan, 1e-14, 2.0], [1e-14, nan, 2.0],
             [2.0, 1.0, nan], [float("inf"), -float("inf"), 1.0], [0.0, -5.0, nan]]

    def raises(guard, vals):
        try:
            guard(vals, "v")
        except SingularStep as exc:
            assert str(exc) == "v fell below the singularity guard"
            return True
        return False

    def same(got, ref):
        return (np.isnan(got) and np.isnan(ref)) or got == ref

    # one step, on the float reference and as a column of the array form; the
    # plain max of a few values is Python's, which passes over a later NaN
    for vals in cases:
        arr = np.array(vals)
        ref = np.abs(arr).max()
        assert same(_ref_amax(vals), ref) and same(maps._amax(arr[:, None])[0], ref)
        expect = raises(_vector_guard, arr)
        assert raises(maps._guard, arr) == expect
        assert raises(_ref_guard, vals) == expect
        assert raises(maps._guard, arr[:, None]) == expect
        assert same(maps._max(*(np.array([v]) for v in vals))[0], max(vals))

    # a block: the cases as its steps, site k the row k; the guard raises for
    # a block when it raises for one of its steps
    block = np.array(cases).T
    ref = np.abs(block).max(axis=0)
    got = maps._amax(block)
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    assert np.array_equal(got[~np.isnan(ref)], ref[~np.isnan(ref)])
    per_step = [raises(_vector_guard, step) for step in block.T]
    for j in range(len(cases)):
        assert raises(maps._guard, block[:, j:j + 1]) == per_step[j]
    assert raises(maps._guard, block) == any(per_step)
    assert not raises(maps._guard, block[:, [not r for r in per_step]])


# a ring the map fixes at a double root of its fixed-point quadratic: the
# seed's pass closes exactly, and the corrections from it divide 0 by 0
# (n = 2, 8) or jump to t = 1.0556 and then converge only linearly (n = 5);
# at n = 6, 10 and 11 rounding leaves the discriminant an ulp below 0
@pytest.mark.parametrize("n", range(2, 13))
def test_a_ring_fixed_at_a_double_root_steps_to_itself(n):
    s = FlaschkaState([1.0] * n, [1.0] * n, Boundary.PERIODIC)
    for step in (partial(maps.dtl_step, h=1.0), partial(maps.drtl_plus_step, alpha=0.0, h=1.0),
                 partial(maps.drtl_minus_step, alpha=0.0, h=1.0)):
        assert _same_bits(step(s), s)
        assert _same_bits(next(verify.trajectory(step, s, 1)), s)


def _dtl_ring_sites(s, h):
    """The Moebius site matrices of dtl's factor recurrence on the ring s."""
    return [(1.0 + h * b, -(h * h) * ap, 1.0, 0.0)
            for b, ap in zip(s.b.tolist(), np.roll(s.a, 1).tolist())]


def test_a_rounded_double_root_that_does_not_close_raises_its_discriminant():
    """b_1 30 half-ulps below the double-root ring: the discriminant is
    within rounding of 0, so the ring is seeded at the double root, but no
    pass from it closes; the step raises the NoRealBranch of that
    discriminant, as it does without the rounding band."""
    s = FlaschkaState([1.0, 1.0], [1.0, 1.0 - 30 * 2.0 ** -53], Boundary.PERIODIC)
    sites = _dtl_ring_sites(s, 1.0)
    assert math.isfinite(maps._ring_fixed_point(sites))
    with pytest.raises(NoRealBranch) as strict:
        maps._ring_fixed_point(sites, 0.0)
    with pytest.raises(NoRealBranch) as info:
        maps.dtl_step(s, 1.0)
    assert info.value.discriminant == strict.value.discriminant < 0.0
    assert str(info.value) == str(strict.value)
