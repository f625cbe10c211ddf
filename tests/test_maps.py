import numpy as np
import pytest

from todalab import maps
from todalab.core import Boundary, FlaschkaState, random_state, shifted, state_to_json
from todalab.errors import BranchNotFound, NumericalError, SingularStep
from todalab.flows import TL, vector_field
from todalab.lax import spectral_invariants

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
    db, da = vector_field(TL, s)
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
    ref = spectral_invariants(s, alpha=alpha)
    cur = s
    for _ in range(20):
        cur = stepper(cur)
        inv = spectral_invariants(cur, alpha=alpha)
        assert np.max(np.abs(inv - ref) / np.maximum(1.0, np.abs(ref))) < 1e-10


def test_periodic_branch_not_found_at_large_h():
    from todalab.errors import BranchNotFound
    s = FlaschkaState([1.5, 1.8, 1.2], [0.9, -0.8, 0.5], Boundary.PERIODIC)
    with pytest.raises(BranchNotFound):
        maps.dtl_factor_diag(s, 0.5)


# ---------------------------------------------------------------------------
# edge paths of the ring branch solve
# ---------------------------------------------------------------------------

def _contract(k, p):
    return 0.5 * p + 1.0


def _closing_singular(k, p):
    if k == 0:
        if p == 0.0:
            raise SingularStep("closing pivot")
        return p
    return 0.0 if k == 2 else p


# synthetic updates and the lists the full all-site residual returned for them
_CYCLIC_EDGES = [
    ("later site inf", lambda k, p: np.inf if k == 2 else _contract(k, p),
     [np.inf, np.inf, np.inf, np.inf]),
    ("later site nan, closing gap finite",
     lambda k, p: np.nan if k == 2 else 2.0 if k == 3 else _contract(k, p),
     [2.0, 2.0, np.nan, 2.0]),
    ("closing site inf", lambda k, p: np.inf if k == 0 else _contract(k, p),
     [np.inf, np.inf, np.inf, np.inf]),
    ("closing site nan", lambda k, p: np.nan if k == 0 else 3.0,
     [np.nan, 3.0, 3.0, 3.0]),
    ("converges", lambda k, p: 1.0 + 0.1 * k + 0.25 / p,
     [1.1689394440900465, 1.3138690770201624, 1.390277710597312, 1.4798201885093816]),
]


@pytest.mark.parametrize("label,update,expected", _CYCLIC_EDGES,
                         ids=[case[0] for case in _CYCLIC_EDGES])
def test_cyclic_fixed_point_edge_paths(label, update, expected):
    got = maps._cyclic_fixed_point(update, [1.0, 1.0, 1.0, 1.0], "v")
    assert [repr(float(x)) for x in got] == [repr(float(x)) for x in expected]


@pytest.mark.parametrize("update", [
    _closing_singular,
    # the closing update runs before a NaN at a later site is looked at
    lambda k, p: _closing_singular(k, p) if k != 1 else np.nan,
], ids=["closing update raises", "closing update raises before later nan"])
def test_cyclic_fixed_point_closing_update_raises(update):
    with pytest.raises(SingularStep, match="^closing pivot$"):
        maps._cyclic_fixed_point(update, [1.0, 1.0, 1.0, 1.0], "v")


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
              '"a": [0.28546211815279066, 1.2131292851361046, 0.5276843606002094, '
              '1.1096914785581742, 0.63720316883998696, 0.93271937587443854, '
              '1.0324323179948287, 0.24945249966593924], '
              '"b": [-0.35191721712351587, -0.037047075367421023, 0.51490588848806651, '
              '-0.17807142041378241, -0.22523276871878462, 1.1117530028455991, '
              '-0.78639821733613036, -0.26743601533301908]}',
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
    ("dtl", Boundary.PERIODIC, 3, 0.5, 0.0, 1, 0, BranchNotFound,
     "cyclic recurrence for beta did not converge"),
    ("drtl+", Boundary.PERIODIC, 3, 0.5, 0.0, 1, 0, BranchNotFound,
     "cyclic recurrence for d1 did not converge"),
    ("drtl-", Boundary.PERIODIC, 3, 0.5, 0.0, 1, 0, BranchNotFound,
     "cyclic recurrence for dm did not converge"),
    ("drtl+", Boundary.PERIODIC, 6, 0.5, -0.7, 3, 0, BranchNotFound,
     "cyclic recurrence for d1 did not converge"),
    ("drtl+", Boundary.PERIODIC, 6, 0.3, -0.7, 1, 7, NumericalError,
     "the two expressions for d2 disagree"),
    ("drtl+", Boundary.PERIODIC, 8, 0.5, -0.7, 4, 33, NumericalError,
     "the two expressions for d2 disagree"),
    ("drtl-", Boundary.OPEN, 6, 0.3, 0.7, 1, 18, NumericalError,
     "the two expressions for cm disagree"),
    ("drtl-", Boundary.OPEN, 4, 0.5, 0.7, 2, 4, NumericalError,
     "the two expressions for cm disagree"),
    ("drtl-", Boundary.PERIODIC, 6, 0.3, 0.7, 0, 12, NumericalError,
     "the two expressions for cm disagree"),
    ("drtl+", Boundary.OPEN, 5, 0.0, 0.0, 0, 0, ValueError, "b must be finite"),
]


@pytest.mark.filterwarnings("ignore:.*encountered in scalar divide:RuntimeWarning")
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


def test_list_reductions_follow_numpy_nan_semantics():
    nan = float("nan")
    cases = [[1.0, 2.0, -3.0], [1e-14, 2.0, 1.0], [nan, 1e-14, 2.0], [1e-14, nan, 2.0],
             [2.0, 1.0, nan], [float("inf"), -float("inf"), 1.0], [0.0, -5.0, nan]]
    for vals in cases:
        arr = np.array(vals)
        ref = np.abs(arr).max()
        got = maps._amax(vals)
        assert (np.isnan(got) and np.isnan(ref)) or got == ref
        try:
            maps._check(arr, "v")
            raised = False
        except SingularStep:
            raised = True
        if raised:
            with pytest.raises(SingularStep, match="v fell below the singularity guard"):
                maps._guard(vals, "v")
        else:
            maps._guard(vals, "v")
