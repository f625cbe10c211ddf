import numpy as np
import pytest

from todalab.core import Boundary, FlaschkaState, random_state
from todalab.errors import DomainError
from todalab.flows import rtl_minus_field, rtl_plus_field, tl_field
from todalab.verify import check_rk4_order, check_step_order, simulate


def test_free_lattice_is_stationary():
    s = FlaschkaState([0.0, 0.0, 0.0], [0.3, -0.1, 0.8], Boundary.PERIODIC)
    db, da = tl_field(s)
    assert np.all(db == 0.0) and np.all(da == 0.0)


def test_hand_value_open_chain():
    s = FlaschkaState([3.0, 0.0], [1.0, 2.0], Boundary.OPEN)
    db, da = tl_field(s)
    np.testing.assert_allclose(db, [3.0, -3.0])
    np.testing.assert_allclose(da, [3.0, 0.0])


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
def test_relativistic_fields_reduce_to_tl_at_alpha_zero(boundary):
    s = random_state(6, boundary, 5)
    db0, da0 = tl_field(s)
    for field in (rtl_plus_field, rtl_minus_field):
        db, da = field(s, 0.0)
        assert np.array_equal(db, db0)
        assert np.array_equal(da, da0)


def test_rtl_minus_denominator_guard():
    s = FlaschkaState([0.5, 0.5, 0.5], [-2.0, 0.0, 0.0], Boundary.PERIODIC)
    with pytest.raises(DomainError):
        rtl_minus_field(s, 0.5)


def test_zero_steps_returns_initial_state():
    s = random_state(4, Boundary.OPEN, 3)
    traj, inv = simulate("tl", 4, Boundary.OPEN, 3, 0.1, 0.0, 0, state0=s)
    assert len(traj) == 1 and traj[0] is s and inv.shape == (1, 4)


def test_total_b_conserved_along_open_trajectory():
    traj, _ = simulate("tl", 6, Boundary.OPEN, 11, 0.02, 0.0, 400)
    totals = np.array([st.b.sum() for st in traj])
    assert np.max(np.abs(totals - totals[0])) < 1e-12


def test_rk4_order_at_least_3_8():
    rec = check_rk4_order(seed=2)
    assert rec["observed_order"] >= 3.8


def test_single_dtl_step_defect_order():
    rec = check_step_order(seed=4, h=1e-2)
    assert rec["observed_order"] >= 1.9
