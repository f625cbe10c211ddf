import numpy as np
import pytest

from todalab.core import Boundary, random_state
from todalab.lax import drift, spectral_invariants, spectral_nodes, states_per_chunk
from todalab.systems import SYSTEMS
from todalab.verify import (CHECKS, check_commutativity, check_isospectral, run_suite,
                            simulate, trajectory)


def test_registry_names_match_records():
    for rec in run_suite("commute-*", seed=3):
        assert rec["check"] in CHECKS
        assert rec["pass"]


def test_suite_is_deterministic():
    a = run_suite("monodromy-*", seed=5)
    b = run_suite("monodromy-*", seed=5)
    assert a == b


def test_suite_glob_filter():
    names = [r["check"] for r in run_suite("order-*", seed=0)]
    assert names == ["order-dtl-vs-flow", "order-lagrangian", "order-rk4"]


def test_simulate_map_trajectory_shapes():
    traj, inv = simulate("dtl", 5, Boundary.OPEN, 0, 0.05, 0.0, 30)
    assert len(traj) == 31 and inv.shape == (31, 5)
    assert drift(inv, inv[0]).max() < 1e-10


def test_simulate_flow_trajectory_matches_rk4():
    traj, inv = simulate("rtl+", 4, Boundary.PERIODIC, 1, 0.02, 0.3, 10)
    assert len(traj) == 11
    assert inv.shape[1] == 4 * 4     # four spectral samples on a ring
    # RK4 conserves the ring invariants only approximately
    assert np.max(np.abs(inv[-1] - inv[0])) < 1e-5


# invariants are stacked a chunk of states at a time: a trajectory shorter than
# one chunk, and one of two full chunks and a partial one
@pytest.mark.parametrize("steps", [3, 2 * states_per_chunk(8) + 3])
@pytest.mark.parametrize("system", ["dtl", "drtl+", "drtl-"])
def test_isospectral_drift_matches_per_state_invariants(system, steps):
    rec = check_isospectral(seed=4, system=system, n=8, steps=steps)
    _, inv = simulate(system, 8, Boundary.OPEN, 4, 0.05, 0.3, steps)
    assert rec["samples"] == steps
    assert rec["max_residual"] == float(drift(inv, inv[0]).max())


@pytest.mark.parametrize("system", ["dtl", "drtl+", "drtl-"])
def test_isospectral_check_of_no_steps_has_no_drift(system):
    rec = check_isospectral(seed=0, system=system, n=8, steps=0)
    assert rec["samples"] == 0 and rec["max_residual"] == 0.0


# the check folds stacked invariant blocks; its record is the drift of each
# state's own invariants from the first state's, within one chunk at n = 8
# and across two at n = 128
@pytest.mark.parametrize("n,steps", [(8, 40), (128, states_per_chunk(128) + 6)])
@pytest.mark.parametrize("system", ["dtl", "drtl+", "drtl-"])
def test_isospectral_record_matches_per_state_invariants(system, n, steps):
    rec = check_isospectral(seed=2, system=system, n=n, steps=steps)
    row, s = SYSTEMS[system], random_state(n, Boundary.OPEN, 2)
    alpha = row.lax_alpha(0.05, 0.3)
    nodes = spectral_nodes(s, alpha=alpha)
    ref = spectral_invariants(s, alpha=alpha, nodes=nodes)
    worst = max(float(drift(spectral_invariants(t, alpha=alpha, nodes=nodes), ref).max())
                for t in trajectory(row.stepper(0.05, 0.3), s, steps))
    assert rec["samples"] == steps and rec["max_residual"] == worst


# the explicit maps are drtl+ at alpha = h and drtl- at alpha = -h; their
# invariants are those of the relativistic Lax pair at that alpha, not at the
# alpha given to the run (which left a drift of 0.25 on this trajectory)
@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("system", ["drtl+explicit", "drtl-explicit"])
def test_explicit_maps_conserve_their_lax_pair(system, boundary):
    _, inv = simulate(system, 6, boundary, 0, 0.05, 0.3, 200)
    assert drift(inv, inv[0]).max() < 1e-12


# the three trajectories of acceptance criterion 1 (gate 1e-8) stay at the
# rounding floor of log det(I - w_j M)
@pytest.mark.parametrize("seed,system", [(0, "dtl"), (1, "drtl+"), (2, "drtl-")])
def test_criterion_1_drift_floor(seed, system):
    rec = check_isospectral(seed=seed, system=system, n=8, steps=10_000, h=0.05, alpha=0.3)
    assert rec["max_residual"] <= 1e-13


# the two ring records of acceptance criterion 3 (gate 1e-9) stay at the
# rounding floor of the exact ring step
@pytest.mark.parametrize("system", ["bt-toda", "bt-rtl"])
def test_criterion_3_ring_commutator_floor(system):
    rec = check_commutativity(seed=0, system=system, n=4, n_states=50,
                              boundary=Boundary.PERIODIC, tol=1e-9)
    assert rec["max_residual"] <= 1e-13


def test_trajectory_yields_the_state_after_each_step():
    assert list(trajectory(lambda k: k + 1, 0, 3)) == [1, 2, 3]
    assert list(trajectory(lambda k: k + 1, 0, 0)) == []
