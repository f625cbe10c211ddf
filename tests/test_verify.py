import functools
import hashlib
import inspect
import json
import math
from contextlib import nullcontext
from dataclasses import replace
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from todalab import lax, maps, pluri, verify
from todalab.core import Boundary, random_canonical, random_state, vectors
from todalab.errors import NonInvertibleLeg, NumericalError
from todalab.lax import drift, spectral_invariants, spectral_nodes, states_per_chunk
from todalab.realizations import canonical_step, chart_specs, chart_state, realization
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


# the parameters each check takes; every other value, its gate included, is a
# constant of the check
_CHECK_PARAMETERS = {
    "check_isospectral": ["seed", "system", "n", "steps", "h", "alpha"],
    "check_factorization_oracle": ["seed", "n", "h", "max_steps"],
    "check_commutativity": ["seed", "system", "n", "n_states", "boundary", "tol"],
    "check_3d_consistency": ["seed", "h", "alpha", "lam", "n_samples"],
    "check_closure_1d": ["seed", "n", "n_states", "pairs", "boundary"],
    "check_spectrality_1d": ["seed", "n", "n_states", "boundary"],
    "check_closure_2d": ["seed", "n", "n_states", "boundary"],
    "check_conservation_2d": ["seed", "n", "n_states", "boundary"],
    "check_corners_2d": ["seed", "n", "n_states", "boundary"],
    "check_monodromy": ["seed", "system", "n", "n_states", "boundary"],
    "check_poisson_maps": ["seed", "n_states"],
    "check_poisson_realizations": ["seed", "n_states"],
    "check_involution": ["seed", "n_states"],
    "check_alpha_limit": ["seed", "h", "alpha"],
    "check_step_order": ["seed", "h"],
    "check_lagrangian_order": ["seed"],
    "check_rk4_order": ["seed"],
    "check_zcr": ["seed", "n_states"],
    "check_pullbacks": ["seed", "n_states"],
    "check_symplecticity": ["seed", "n_states"],
}


def _check_parameters():
    return {name: list(inspect.signature(fn).parameters) for name, fn in vars(verify).items()
            if name.startswith("check_") and callable(fn)}


def test_checks_take_only_the_parameters_their_callers_set():
    assert _check_parameters() == _CHECK_PARAMETERS
    assert sum(map(len, _CHECK_PARAMETERS.values())) == 66
    assert list(inspect.signature(verify.trajectory_blocks).parameters) == [
        "step", "state", "steps"]
    assert not hasattr(lax, "trajectory_invariants")


def test_only_the_commutativity_check_takes_its_tolerance():
    gates = {name for name, params in _check_parameters().items()
             for p in params if p.startswith(("tol", "min_"))}
    assert gates == {"check_commutativity"}
    assert inspect.signature(check_commutativity).parameters["tol"].default == 1e-10
    tols = {r["check"]: r["tol"] for r in run_suite("commute-*", seed=0)}
    assert tols == {"commute-bt-rtl-open": 1e-10, "commute-bt-rtl-periodic": 1e-9,
                    "commute-bt-toda-open": 1e-10, "commute-bt-toda-periodic": 1e-9}


# sha256 of the sorted-key JSON of run_suite("*", seed): every record's
# params, samples, tol and residual, byte for byte
_SUITE_SHA256 = {
    0: "6b0f55a52165d3ca5651a66f0df9ad199d7a2f17d39ca9cd1c23a22e9dbc8613",
    1: "178273defe3d4bb28e5c9be71d41755a63bd71291461fab384b44d6afaedcb4b",
    4: "63aad886a76403ac62e062fa0497a49b6bc9d226382783f7e56b64327503e277",
    7: "a79901b0810809fb9b8b908b5e724c04f5cc01fb99085f1bd4f1a92b0197dda3",
}


@pytest.mark.parametrize("seed", _SUITE_SHA256)
def test_suite_records_match_golden_sha256(seed):
    text = json.dumps(run_suite("*", seed), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _SUITE_SHA256[seed]


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


# a chart step's trajectory is of canonical states, a flow's of (a, b) states
@pytest.mark.parametrize("step,state", [
    (partial(canonical_step, realization("exp", 0.1)), random_canonical(5, Boundary.PERIODIC, 1)),
    (SYSTEMS["tl"].stepper(0.05, 0.0), random_state(5, Boundary.OPEN, 1)),
], ids=["chart", "flow"])
def test_trajectory_yields_the_state_after_each_step(step, state):
    want = [step(state)]
    want.append(step(want[0]))
    got = list(trajectory(step, state, 2))
    assert [(type(t), t.boundary) for t in got] == [(type(state), state.boundary)] * 2
    assert _same_rows([vectors(t) for t in got], want)
    assert list(trajectory(step, state, 0)) == []
    assert list(verify.trajectory_blocks(step, state, 0)) == []


# a block holds as many states as fit at the state's nodes, n per lambda
# sample: a trajectory of two full blocks and a partial one, of any step kind
@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
@pytest.mark.parametrize("name", ["dtl", "drtl+explicit", "exp"])
def test_trajectory_blocks_hold_a_chunk_of_states(name, boundary):
    chunk = states_per_chunk(8 * (1 if boundary is Boundary.OPEN else len(lax.DEFAULT_LAMBDAS)))
    if name == "exp":
        spec = realization(name, 0.05)
        step, state = partial(canonical_step, spec), chart_state(spec, 8, 3, boundary)
    else:
        step, state = SYSTEMS[name].stepper(0.05, 0.3), random_state(8, boundary, 3)
    blocks = list(verify.trajectory_blocks(step, state, 2 * chunk + 2))
    assert [(len(u), len(v)) for u, v in blocks] == [(chunk, chunk)] * 2 + [(2, 2)]
    assert all(u.shape[1] == v.shape[1] == 8 for u, v in blocks)


def test_block_trajectory_calls_the_public_step_only_to_rerun_a_failing_block(monkeypatch):
    # a functools.wraps wrapper of a factor-map step (a profiler's, say) is
    # run as the map's halves: a regular trajectory never calls it, and a
    # failing one calls it for the steps of its failing block, the first
    # twelve of this drtl- ring and the thirteenth, which fails its check
    calls = []
    public = maps.drtl_minus_step

    @functools.wraps(public)
    def counted(s, alpha, h):
        calls.append(s)
        return public(s, alpha, h)

    monkeypatch.setattr(maps, "drtl_minus_step", counted)
    regular = SYSTEMS["drtl-"].stepper(0.05, 0.3)
    assert len(list(trajectory(regular, random_state(8, Boundary.OPEN, 2), 300))) == 300
    assert not calls
    failing = SYSTEMS["drtl-"].stepper(0.3, 0.7)
    with pytest.raises(NumericalError, match="the two expressions for cm disagree"):
        list(trajectory(failing, random_state(6, Boundary.PERIODIC, 0), 30))
    assert len(calls) == 13


def _loop(step, state, steps):
    """The states of `steps` public steps from state, and the error that
    ended them early (None if none did)."""
    states = []
    try:
        for _ in range(steps):
            state = step(state)
            states.append(state)
    except Exception as exc:        # any error: the block path must raise it too
        return states, exc
    return states, None


# a factor map's trajectory runs its checks a block of steps at a time: its
# states are bitwise those of the loop of public steps, or both fail at the
# same step with the same error; blocks of 1, 2 and 7 steps put block ends
# inside the 60 steps (the default block holds them all)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(system=st.sampled_from(["dtl", "drtl+", "drtl-"]), boundary=st.sampled_from(list(Boundary)),
       n=st.integers(2, 12), h=st.floats(0.01, 0.3), alpha=st.floats(-0.5, 0.5),
       seed=st.integers(0, 2 ** 32 - 1), block=st.sampled_from([None, 1, 2, 7]))
def test_block_trajectory_is_the_loop_of_public_steps(system, boundary, n, h, alpha, seed, block):
    step = SYSTEMS[system].stepper(h, alpha)
    expected, failure = _loop(step, random_state(n, boundary, seed), 60)
    with (nullcontext() if block is None
          else patch.object(lax, "states_per_chunk", lambda nodes: block)):
        got, raised = [], None
        try:
            for t in trajectory(step, random_state(n, boundary, seed), 60):
                got.append(t)
        except Exception as exc:
            raised = exc
    assert len(got) == len(expected)
    assert all(t.a.tobytes() == e.a.tobytes() and t.b.tobytes() == e.b.tobytes()
               for t, e in zip(got, expected))
    assert type(raised) is type(failure) and str(raised) == str(failure)


def _other_step(kind, boundary, n, h, seed):
    """A flow or explicit map (a system name) or a chart step (a (chart,
    family) pair), and a function giving its seeded first state; a
    periodic-only chart takes a ring whatever the boundary."""
    if isinstance(kind, str):
        return SYSTEMS[kind].stepper(h, 0.3), lambda: random_state(n, boundary, seed)
    spec = realization(kind[0], h, family=kind[1])
    boundary = boundary if spec.supports_open else Boundary.PERIODIC
    return partial(canonical_step, spec), lambda: chart_state(spec, n, seed, boundary)


def _block_stream(step, state, steps, block):
    """The rows of ``trajectory_blocks`` at blocks of `block` states (None:
    the default), one (u, v) pair per state, and the error that ended them."""
    rows = []
    with (nullcontext() if block is None
          else patch.object(lax, "states_per_chunk", lambda nodes: block)):
        try:
            for u, v in verify.trajectory_blocks(step, state, steps):
                rows.extend(zip(u, v))
        except Exception as exc:        # any error: it must be the loop's
            return rows, exc
    return rows, None


def _same_rows(rows, states):
    return len(rows) == len(states) and all(
        u.tobytes() == vectors(t)[0].tobytes() and v.tobytes() == vectors(t)[1].tobytes()
        for (u, v), t in zip(rows, states))


_OTHER_STEPS = (["tl", "rtl+", "rtl-", "drtl+explicit", "drtl-explicit"]
                + [(spec.name, spec.family) for spec in chart_specs(0.1)])


# every other step kind streams the same blocks: flows, the explicit maps and
# the chart steps, on open chains and rings; the rows are bitwise the states
# of the loop of public steps, or both fail at the same step with the same
# error (the larger h make many charts and flows fail within the 30 steps)
@settings(max_examples=80, deadline=None, derandomize=True)
@given(kind=st.sampled_from(_OTHER_STEPS), boundary=st.sampled_from(list(Boundary)),
       n=st.integers(2, 10), h=st.floats(0.01, 1.2), seed=st.integers(0, 2 ** 32 - 1),
       block=st.sampled_from([None, 1, 2, 7]))
def test_block_stream_of_every_step_kind_is_the_loop_of_public_steps(kind, boundary, n, h,
                                                                     seed, block):
    step, first = _other_step(kind, boundary, n, h, seed)
    with np.errstate(all="ignore"):
        expected, failure = _loop(step, first(), 30)
        rows, raised = _block_stream(step, first(), 30, block)
    assert _same_rows(rows, expected)
    assert type(raised) is type(failure) and str(raised) == str(failure)


# a failing step of each kind, in blocks of four states: the stream gives
# the rows of the steps before it, full blocks and then a partial one, and
# then its error
@pytest.mark.parametrize("kind,boundary,h,seed,rows,error", [
    ("tl", Boundary.OPEN, 1.0, 0, 9, "ValueError: a must be finite"),
    (("hyp-mult", "dtl"), Boundary.PERIODIC, 0.05, 0, 7,
     "SolveFailed: ring solver gave up: a pass leaves a leg domain "
     "(hyperbolic leg not invertible here)"),
    (("explicit-e", "explicit"), Boundary.PERIODIC, 0.05, 1, 10,
     "NonInvertibleLeg: hyperbolic leg not invertible here"),
    (("exp", "dtl"), Boundary.OPEN, 0.6, 0, 0,
     "NonInvertibleLeg: step equation has no real solution"),
], ids=["flow", "chart-ring", "explicit-chart", "chart-open"])
def test_block_stream_of_a_failing_step_ends_with_its_error(kind, boundary, h, seed, rows,
                                                            error):
    step, first = _other_step(kind, boundary, 6, h, seed)
    with np.errstate(all="ignore"):
        expected, failure = _loop(step, first(), 30)
        got, raised = _block_stream(step, first(), 30, 4)
    assert len(expected) == rows and f"{type(failure).__name__}: {failure}" == error
    assert _same_rows(got, expected)
    assert type(raised) is type(failure) and str(raised) == str(failure)


# ---------------------------------------------------------------------------
# square checks: stacked states give the records of a loop over the samples
# ---------------------------------------------------------------------------

def _commutator(al):
    def residual(c, ct, ch, cth, lam, mu):
        other = pluri.chain_step(ch, lam, al)
        return max(float(np.max(np.abs(cth.x - other.x))), float(np.max(np.abs(cth.p - other.p))))
    return residual


def _positions(fn):
    return lambda c, ct, ch, cth, lam, mu: fn(c.x, ct.x, ch.x, cth.x, lam, mu)


def _drift(al):
    lax_alpha = 0.0 if al is None else al

    def residual(c, ct, ch, cth, lam, mu):
        _, P0 = lax.monodromy_rtl(c, ct.x, lax_alpha, lam)
        _, P1 = lax.monodromy_rtl(ch, cth.x, lax_alpha, lam)
        return abs(P1 - P0) / max(1.0, abs(P0))
    return residual


def _reference_square(residual, seed, n, n_states, pairs, boundary, alpha=None, lam_last=False):
    """The worst residual of a loop over the states and, for each, the pairs:
    max_residual of the square check's record, or the first error raised."""
    values = []
    try:
        for i in range(n_states):
            c = random_canonical(n, boundary, seed + i)
            for lam, mu in pairs:
                ct = pluri.chain_step(c, lam, alpha)
                ch = pluri.chain_step(c, mu, alpha)
                cth = pluri.chain_step(ch, lam, alpha) if lam_last else pluri.chain_step(ct, mu,
                                                                                         alpha)
                values.append(residual(c, ct, ch, cth, lam, mu))
    except (NumericalError, ValueError) as exc:
        return type(exc), str(exc)
    return max(values, key=lambda v: math.inf if math.isnan(v) else v)


def _square_cases(boundary):
    """(check, its kwargs, the reference loop's residual, alpha, lam_last)."""
    pairs = verify._PAIRS
    return [
        (verify.check_commutativity, dict(system="bt-toda", boundary=boundary),
         _commutator(None), None, False, pairs),
        (verify.check_commutativity, dict(system="bt-rtl", boundary=boundary),
         _commutator(0.3), 0.3, False, pairs),
        (verify.check_closure_1d, dict(boundary=boundary),
         _positions(lambda *w: abs(pluri.closure_value_1d(*w, boundary))), None, False, pairs[:3]),
        (verify.check_spectrality_1d, dict(boundary=boundary),
         _positions(lambda x, xt, xh, xth, lam, mu: pluri.spectrality_residual(
             (x, xt), (xh, xth), lam, boundary)), None, True, pairs[:3]),
        (verify.check_closure_2d, dict(boundary=boundary),
         _positions(lambda *w: pluri.closure_value_2d(0.3, *w, boundary)), 0.3, False, pairs[:3]),
        (verify.check_conservation_2d, dict(boundary=boundary),
         _positions(lambda *w: pluri.conservation_residual_2d(0.3, *w, boundary)), 0.3, True,
         pairs[:3]),
        (verify.check_corners_2d, dict(boundary=boundary),
         _positions(lambda *w: max(float(np.max(np.abs(v))) for v in
                                   pluri.corner_residuals_2d(0.3, *w, boundary).values())),
         0.3, False, pairs[:3]),
        (verify.check_monodromy, dict(system="bt-toda", boundary=boundary),
         _drift(None), None, False, ((0.15, 0.23),)),
        (verify.check_monodromy, dict(system="bt-rtl", boundary=boundary),
         _drift(0.3), 0.3, False, ((0.15, 0.23),)),
    ]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=st.integers(0, 8), boundary=st.sampled_from(list(Boundary)),
       n=st.integers(2, 9), n_states=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
def test_square_check_records_are_those_of_a_loop_over_the_samples(case, boundary, n,
                                                                    n_states, seed):
    check, kwargs, residual, alpha, lam_last, pairs = _square_cases(boundary)[case]
    with np.errstate(all="ignore"):
        want = _reference_square(residual, seed, n, n_states, pairs, boundary, alpha, lam_last)
        try:
            got = check(seed=seed, n=n, n_states=n_states, **kwargs)["max_residual"]
        except (NumericalError, ValueError) as exc:
            got = type(exc), str(exc)
    if isinstance(want, float) and math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want


def test_commutativity_raises_the_first_failure_of_the_loop_over_the_samples():
    """Of the 250 samples of seed 12345, state 16 at the pair (0.07, 0.29) is
    the one whose step has no real solution."""
    want = _reference_square(_commutator(None), 12345, 6, 17, verify._PAIRS, Boundary.OPEN)
    assert want == (NonInvertibleLeg, "step equation has no real solution")
    assert isinstance(_reference_square(_commutator(None), 12345, 6, 16, verify._PAIRS,
                                        Boundary.OPEN), float)
    with pytest.raises(NonInvertibleLeg, match="^step equation has no real solution$"):
        check_commutativity(seed=12345, system="bt-toda", n=6)


def test_square_check_raises_the_error_of_the_first_sample_in_state_major_order(monkeypatch):
    """The step's psi_inv fails for state 3 at the first pair and for state 1
    at the third: stepped pair by pair, the stack meets state 3 first; the
    check raises state 1's error, as the loop over states, then pairs, does."""
    n, pairs = 6, verify._PAIRS[:3]
    first_p = {random_canonical(n, Boundary.OPEN, i).p[0]: i for i in range(5)}
    failing = {(3, pairs[0][0]), (1, pairs[2][0])}
    chain_spec = pluri.chain_spec

    def failing_spec(lam, alpha):
        spec = chain_spec(lam, alpha)

        def psi_inv(y):
            for v in np.ravel(y):   # rhs_1 = p_1 at the first site of a step of c
                if (first_p.get(v), lam) in failing:
                    raise NonInvertibleLeg(f"state {first_p[v]}")
            return spec.legs.psi_inv(y)
        return replace(spec, legs=replace(spec.legs, psi_inv=psi_inv))

    monkeypatch.setattr(pluri, "chain_spec", failing_spec)
    with pytest.raises(NonInvertibleLeg, match="^state 1$"):
        verify.check_closure_1d(seed=0, n=n, n_states=5, pairs=pairs)


def test_square_check_falls_back_to_the_loop_on_any_step_error():
    """An ArithmeticError from the stack, not only a NumericalError, sends the
    check to the state-major loop: the residual fails for state 5 at the
    first pair and for state 3 at the second; stacked pair by pair it meets
    state 5 first, and the check raises state 3's error."""
    n, pairs = 4, verify._PAIRS[:2]
    first_x = {random_canonical(n, Boundary.OPEN, i).x[0]: i for i in range(6)}
    failing = {(5, pairs[0][0]), (3, pairs[1][0])}

    def residual(c, ct, ch, cth, lam, mu):
        for x in c[0][:, 0].tolist():
            if (first_x[x], lam) in failing:
                raise ZeroDivisionError(f"state {first_x[x]}")
        return np.zeros(len(c[0]))

    with pytest.raises(ZeroDivisionError, match="^state 3$"):
        verify._square_check("t", {}, residual, 0, n, 6, pairs, 1e-10, Boundary.OPEN)


def test_poisson_maps_check_raises_the_error_of_the_first_state_in_state_major_order(
        monkeypatch):
    """dtl fails at state 4 and the last map, drtl-(-h, h), at state 2: the
    stencils of all states stepped map by map meet dtl's failure first; the
    check raises state 2's error, as the loop over states, then maps, does."""
    states = [random_state(4, Boundary.OPEN, i) for i in range(6)]

    def failing_at(public, index):
        def step(s, **params):   # no functools.wraps: stepped row by row
            near = [max(np.max(np.abs(s.a - t.a)), np.max(np.abs(s.b - t.b))) < 1e-4
                    for t in states]
            if near[index]:
                raise NumericalError(f"state {index}")
            return public(s, **params)
        return step

    monkeypatch.setattr(maps, "dtl_step", failing_at(maps.dtl_step, 4))
    monkeypatch.setattr(maps, "drtl_minus_explicit_step",
                        failing_at(maps.drtl_minus_explicit_step, 2))
    with pytest.raises(NumericalError, match="^state 2$"):
        verify.check_poisson_maps(seed=0, n_states=6)


def test_poisson_realizations_check_raises_the_error_of_the_loop_over_the_states(monkeypatch):
    """The first chart's target fails at state 0 and its stencil at state 1:
    charted as one stack, the stencils meet state 1's failure first; the
    check raises state 0's error, as the loop over the states does.  Both
    failures come from the chart stack: a stencil point moves one
    coordinate of its state, a target is the state itself."""
    from todalab import realizations
    spec = chart_specs(0.1)[0]
    states = [chart_state(spec, 5, i) for i in range(3)]
    chart_stack = realizations.chart_stack

    def near(x, c):
        return np.max(np.abs(x - c.x)) < 1e-4

    def failing_chart(sp, x, p, boundary):
        if sp.name == spec.name:
            if any(np.array_equal(u, states[0].x) and np.array_equal(v, states[0].p)
                   for u, v in zip(x, p)):
                raise NumericalError("target 0")
            if any(near(row, states[1]) for row in x):
                raise NumericalError("stencil 1")
        return chart_stack(sp, x, p, boundary)

    monkeypatch.setattr(realizations, "chart_stack", failing_chart)
    with pytest.raises(NumericalError, match="^target 0$"):
        verify.check_poisson_realizations(seed=0, n_states=3)


# ---------------------------------------------------------------------------
# a NaN residual fails its record
# ---------------------------------------------------------------------------

def test_a_nan_square_residual_fails_its_record():
    def residual(c, ct, ch, cth, lam, mu):   # NaN for the second state only
        return np.where(np.arange(len(c[0])) == 1, np.nan, 1e-16)

    rec = verify._square_check("t", {}, residual, 0, 4, 3, verify._PAIRS[:2], 1e-10,
                               Boundary.OPEN)
    assert math.isnan(rec["max_residual"]) and rec["pass"] is False


def test_corner_maximum_is_pythons_max_of_each_row():
    """The largest corner residual of each row is Python's max of the
    vectors' floats, a NaN kept only where it comes first."""
    nan = math.nan
    values = [np.array([[nan, 1.0], [0.5, 0.25], [2.0, -3.0]]),
              np.array([[0.75, 0.5], [nan, 0.0], [-1.0, 0.5]]),
              np.array([[4.0, 0.0], [1.0, 1.0], [nan, 1.0]])]
    want = [max(float(np.max(np.abs(v[i]))) for v in values) for i in range(3)]
    got = verify._corners_max(values)
    assert math.isnan(got[0]) and math.isnan(want[0])
    assert got[1:].tolist() == want[1:]


def test_a_nan_chart_residual_fails_its_record():
    specs = chart_specs(0.1)[:2]
    seen = []

    def residuals(spec, states):   # NaN for the first sample only
        seen.append(len(states))
        return [math.nan if len(seen) == 1 and i == 0 else 1e-16 for i in range(len(states))]

    rec = verify._chart_check("t", {}, specs, residuals, 4, 0, 2, 1e-10)
    assert seen == [2, 2]
    assert math.isnan(rec["max_residual"]) and rec["pass"] is False


def test_a_nan_order_fails_its_record():
    rec = verify._order_record("t", {}, [1.0, 0.25, math.nan], 1.9)
    assert math.isnan(rec["observed_order"]) and rec["pass"] is False
