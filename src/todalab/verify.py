"""Registered property checks: one callable per structural claim.

Every check is deterministic given its seed and returns a plain record

    {"check", "params", "samples", "max_residual", "tol", "pass"}

(order records also carry "observed_order"), so the CLI can emit
machine-readable reports and the acceptance suite can re-run the same code
at its own scales.  A check takes only the parameters some caller sets; its
gate and every other value are constants of the check.

``trajectory`` and the isospectrality check step through
``trajectory_blocks``, the one trajectory loop: it yields every trajectory
as blocks of (B, n) rows, and runs a factor map's steps on floats and their
in-step checks once per block of steps, as columns.
"""

from __future__ import annotations

import fnmatch
import math
from array import array
from functools import partial
from itertools import chain

import numpy as np

from . import lax, maps, pluri, poisson
from .core import (STEP_ERRORS, Boundary, CanonicalState, FlaschkaState, random_canonical,
                   random_state, vectors, worst)
from .errors import NumericalError
from .realizations import (CATALOG, canonical_step, chart_specs, chart_state,
                           lagrangian_value, pullback_consistency, realization,
                           step_stack, symplectic_defect)
from .systems import SYSTEMS


def _record(check, params, samples, max_residual, tol):
    return {"check": check, "params": params, "samples": int(samples),
            "max_residual": float(max_residual), "tol": float(tol),
            "pass": bool(max_residual < tol)}


def trajectory(step, state, steps):
    """The states step(state), step(step(state)), ... after each of `steps`
    steps, built from the rows of ``trajectory_blocks``."""
    kind, boundary = type(state), state.boundary
    for u, v in trajectory_blocks(step, state, steps):
        yield from (kind(x, y, boundary) for x, y in zip(u, v))


def trajectory_blocks(step, state, steps):
    """The states after each of `steps` steps from `state`, a block at a
    time: the one loop that steps a state repeatedly.  A block is the (B, n)
    arrays of its states' two vectors, (a, b) or (x, p), B at most
    ``lax.states_per_chunk`` at the state's nodes; each step's vectors are
    copied into flat float buffers as it is taken, so a block holds no
    state and no float object.

    A factor map (dtl, drtl+, drtl-, see ``maps._halves``) runs its step
    half on the (a, b) lists of the state before, with one finiteness test
    per step, and its check half once per block, as columns (``maps._passes``).
    A block that fails its check, or ends at a step that raises or leaves an
    entry that is not finite, is rerun through the public step: that gives
    the rows before the first failing step, and then the error the public
    step raises there (or, if only the step half failed, the state).  Any
    other step (a flow, an explicit map, a chart step) is called on the
    state; a block that ends at a step that raises gives the rows before it,
    and then that step's error.
    """
    halves = maps._halves(step)
    ring, n = state.boundary is Boundary.PERIODIC, state.n
    size = lax.states_per_chunk(n * len(lax._lambdas(state.boundary)))
    start = rows = [v.tolist() for v in vectors(state)]
    bufs = []
    for i in range(steps):
        try:
            if halves is None:
                state = step(state)
                out, ok = (*(v.tolist() for v in vectors(state)), ()), True
            else:
                out = halves[0](*rows, ring)
                ok = math.isfinite(sum(out[0]) + sum(out[1])) and (ring or out[0][-1] == 0.0)
        except Exception as exc:
            ok, error = False, exc
        if ok:
            rows = out[:2]
            bufs = bufs or [array("d") for _ in range(2 + len(out[2]))]
            for buf, part in zip(bufs, chain(rows, out[2])):
                buf.fromlist(part)
            if len(bufs[0]) < size * n and i < steps - 1:
                continue
        block = [np.frombuffer(buf).reshape(-1, n) for buf in bufs]
        before = (np.vstack((first, rest[:-1])) for first, rest in zip(start, block))
        if halves is not None and not (ok and maps._passes(halves[1], ring, [*before, *block])):
            block, error = _rerun(step, FlaschkaState(*start, state.boundary),
                                  len(bufs[0]) // n + (not ok) if bufs else 1)
            ok, rows = error is None, [v[-1].tolist() for v in block]
        if block:
            yield block[0], block[1]
        if not ok:
            raise error
        start, bufs = rows, []


def _rerun(step, state, count):
    """The (a, b) rows of up to `count` steps from `state`, ending at the
    first that raises (no rows if it is the first), and its error (None if
    none does)."""
    states, error = [], None
    try:
        for _ in range(count):
            state = step(state)
            states.append(state)
    except Exception as exc:
        error = exc
    return ([np.array([t.a for t in states]), np.array([t.b for t in states])]
            if states else []), error


def simulate(system, n, boundary, seed, h, alpha, steps, state0=None):
    """Trajectory (list of states) and per-step invariant table of a run."""
    row = SYSTEMS[system]
    if state0 is None:
        state0 = random_state(n, boundary, seed)
    traj = [state0, *trajectory(row.stepper(h, alpha), state0, steps)]
    lax_alpha = row.lax_alpha(h, alpha)
    return traj, lax.spectral_invariants_stacked(
        [s.a for s in traj], [s.b for s in traj], state0.boundary,
        lax.spectral_nodes(state0, lax_alpha), lax_alpha)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

_ALPHA = 0.3       # alpha of the relativistic checks
_CHART_H = 0.1     # h of the chart checks, at the charts' default parameters


def check_isospectral(seed=0, system="dtl", n=8, steps=10_000, h=0.05, alpha=0.3):
    """Largest drift of the spectral invariants along a trajectory.

    The invariants are log det(I - w_j M) at the nodes of the first state,
    and the drift is their largest absolute change (``lax.drift``) from the
    first state's row, folded over the trajectory one block of
    ``trajectory_blocks`` at a time: its (B, n) rows go straight to the
    stacked invariants, with no state built per step.
    """
    row = SYSTEMS[system]
    s = random_state(n, Boundary.OPEN, seed)
    lax_alpha = row.lax_alpha(h, alpha)
    nodes = lax.spectral_nodes(s, lax_alpha)
    ref, top = None, 0.0
    for a, b in trajectory_blocks(row.stepper(h, alpha), s, steps):
        if ref is None:     # the first state's row goes with the first block
            a, b = np.vstack((s.a, a)), np.vstack((s.b, b))
        inv = lax.spectral_invariants_stacked(a, b, s.boundary, nodes, lax_alpha)
        ref = inv[0] if ref is None else ref
        top = worst((top, float(lax.drift(inv, ref).max())))
    return _record(f"isospectral-{row.label}", dict(n=n, steps=steps, h=h, alpha=alpha),
                   steps, top, 1e-8)


def check_factorization_oracle(seed=0, n=5, h=0.05, max_steps=20):
    s0 = random_state(n, Boundary.OPEN, seed)

    def gaps(m, s):
        closed = lax.exact_solution(s0, h, m)
        return float(np.max(np.abs(closed.a - s.a))), float(np.max(np.abs(closed.b - s.b)))

    steps = enumerate(trajectory(partial(maps.dtl_step, h=h), s0, max_steps), 1)
    return _record("factorization-oracle", dict(n=n, h=h, max_steps=max_steps),
                   max_steps, worst(chain.from_iterable(gaps(m, s) for m, s in steps)), 1e-8)


_PAIRS = ((0.05, 0.19), (0.08, 0.13), (0.1, 0.23), (0.07, 0.29), (0.11, 0.17))


def check_commutativity(seed=0, system="bt-toda", n=6, n_states=50,
                        boundary=Boundary.OPEN, tol=1e-10):
    al = None if system == "bt-toda" else _ALPHA

    def commutator(c, ct, ch, cth, lam, mu):
        ox, op = _chain_step(ch, lam, al, boundary)
        return np.maximum(np.max(np.abs(cth[0] - ox), axis=-1),
                          np.max(np.abs(cth[1] - op), axis=-1))

    return _square_check(f"commute-{system}-{boundary.value}",
                         dict(n=n, pairs=len(_PAIRS), alpha=al), commutator,
                         seed, n, n_states, _PAIRS, tol, boundary, al)


def check_3d_consistency(seed=0, h=0.1, alpha=0.3, lam=0.7, n_samples=100):
    spread = pluri.check_3d_consistency(h, alpha, lam, n_samples=n_samples, seed=seed)
    return _record("consistency-3d", dict(h=h, alpha=alpha, lam=lam), n_samples, spread, 1e-9)


def _chain_step(corner, lam, alpha, boundary):
    """``pluri.chain_step`` of an (x, p) corner of stacked states."""
    return step_stack(pluri.chain_spec(float(lam), alpha), *corner, boundary)


def _square_check(name, params, residual, seed, n, n_states, pairs, tol, boundary,
                  alpha=None, lam_last=False):
    """Worst residual(c, ct, ch, cth, lam, mu) over seeded states and step
    pairs: ct, ch step c by lam, mu; cth steps ct by mu, or ch by lam.

    Each corner is an (x, p) pair of (B, n) stacks, one row per state, and
    residual returns one value per row.  All states are stepped as one
    stack for each pair; if that raises, each state is stepped alone for
    each pair in turn (state-major order), so the error raised is the one
    a loop over the samples reaches first."""
    states = [random_canonical(n, boundary, seed + i) for i in range(n_states)]
    x, p = np.array([c.x for c in states]), np.array([c.p for c in states])

    def square(c, lam, mu):
        ct, ch = _chain_step(c, lam, alpha, boundary), _chain_step(c, mu, alpha, boundary)
        cth = (_chain_step(ch, lam, alpha, boundary) if lam_last
               else _chain_step(ct, mu, alpha, boundary))
        return residual(c, ct, ch, cth, lam, mu)

    try:
        values = np.transpose([square((x, p), lam, mu) for lam, mu in pairs]).ravel()
    except (NumericalError, ValueError):
        values = [r for i in range(n_states) for lam, mu in pairs
                  for r in square((x[i:i + 1], p[i:i + 1]), lam, mu)]
    return _record(name, params, n_states * len(pairs), worst(values), tol)


def _on_positions(residual):
    """residual(x, xt, xh, xth, lam, mu) of each row of the corners' positions."""
    return lambda c, ct, ch, cth, lam, mu: [residual(*w, lam, mu)
                                            for w in zip(c[0], ct[0], ch[0], cth[0])]


def check_closure_1d(seed=0, n=6, n_states=10, pairs=_PAIRS[:3], boundary=Boundary.OPEN):
    return _square_check(
        "closure-1d", dict(n=n),
        _on_positions(lambda *w: abs(pluri.closure_value_1d(*w, boundary))),
        seed, n, n_states, pairs, 1e-10, boundary)


def check_spectrality_1d(seed=0, n=6, n_states=10, boundary=Boundary.OPEN):
    return _square_check(
        "spectrality-1d", dict(n=n),
        _on_positions(lambda x, xt, xh, xth, lam, mu: pluri.spectrality_residual(
            (x, xt), (xh, xth), lam, boundary)),
        seed, n, n_states, _PAIRS[:3], 1e-10, boundary, lam_last=True)


def check_closure_2d(seed=0, n=6, n_states=10, boundary=Boundary.PERIODIC):
    return _square_check(
        "closure-2d", dict(n=n, alpha=_ALPHA),
        _on_positions(lambda *w: pluri.closure_value_2d(_ALPHA, *w, boundary)),
        seed, n, n_states, _PAIRS[:3], 1e-10, boundary, _ALPHA)


def check_conservation_2d(seed=0, n=6, n_states=10, boundary=Boundary.PERIODIC):
    return _square_check(
        "conservation-2d", dict(n=n, alpha=_ALPHA),
        _on_positions(lambda *w: pluri.conservation_residual_2d(_ALPHA, *w, boundary)),
        seed, n, n_states, _PAIRS[:3], 1e-10, boundary, _ALPHA, lam_last=True)


def check_corners_2d(seed=0, n=6, n_states=10, boundary=Boundary.PERIODIC):
    return _square_check(
        "corners-2d", dict(n=n, alpha=_ALPHA),
        _on_positions(lambda *w: max(float(np.max(np.abs(v))) for v in
                                     pluri.corner_residuals_2d(_ALPHA, *w, boundary).values())),
        seed, n, n_states, _PAIRS[:3], 1e-10, boundary, _ALPHA)


def check_monodromy(seed=0, system="bt-toda", n=6, n_states=10, boundary=Boundary.OPEN):
    al = None if system == "bt-toda" else _ALPHA
    lax_alpha = 0.0 if al is None else al
    lam, mu = 0.15, 0.23

    def drift(c, ct, ch, cth, lam, mu):
        def one(x, p, xt, xh, ph, xth):
            _, P0 = lax.monodromy_rtl(CanonicalState(x, p, boundary), xt, lax_alpha, lam)
            _, P1 = lax.monodromy_rtl(CanonicalState(xh, ph, boundary), xth, lax_alpha, lam)
            return abs(P1 - P0) / max(1.0, abs(P0))
        return [one(*row) for row in zip(*c, ct[0], *ch, cth[0])]

    return _square_check(f"monodromy-{system}", dict(n=n, lam=lam, mu=mu, alpha=al), drift,
                         seed, n, n_states, ((lam, mu),), 1e-10, boundary, al)


def _brackets(lax_alpha):
    """The three compatible brackets of the Toda (None) or relativistic Lax pair."""
    if lax_alpha is None:
        return (poisson.Bracket("tl1"), poisson.Bracket("tl2"), poisson.Bracket("tl3"))
    return (poisson.Bracket("rtl1", lax_alpha), poisson.Bracket("rtl2"),
            poisson.Bracket("rtl3", lax_alpha))


def check_poisson_maps(seed=0, n_states=20):
    """Each map preserves the three brackets of the Lax pair it conserves.

    Each map steps the stencils of all the states at once
    (``poisson.poisson_map_residuals``); if that raises, the residual of
    each state is formed alone for each map in turn (state-major order), so
    the error raised is the one a loop over the states reaches first."""
    n, h = 4, 0.08
    cases = [(row.stepper(h, _ALPHA), _brackets(row.lax_alpha(h, _ALPHA)))
             for row in SYSTEMS.values() if not row.flow]
    states = [random_state(n, Boundary.OPEN, seed + i) for i in range(n_states)]
    try:
        residuals = [r for step, brackets in cases
                     for r in poisson.poisson_map_residuals(step, brackets, states)]
    except STEP_ERRORS:
        residuals = [poisson.poisson_map_residual(step, brackets, s)
                     for s in states for step, brackets in cases]
    return _record("poisson-maps", dict(n=n, h=h, alpha=_ALPHA),
                   n_states * sum(len(brackets) for _, brackets in cases), worst(residuals), 1e-6)


def _chart_check(name, params, specs, residual, n, seed, n_states, tol):
    """Worst residual(spec, state) over the specs and their seeded states."""
    residuals = (residual(spec, chart_state(spec, n, seed + i))
                 for spec in specs for i in range(n_states))
    return _record(name, params, len(specs) * n_states, worst(residuals), tol)


def check_poisson_realizations(seed=0, n_states=5):
    """Each chart pushes the canonical bracket onto its target bracket.

    The stencils of a spec's states are charted as one stack
    (``poisson.realization_residuals``); if that raises, each state's
    residual is formed alone, so the error raised is the one the loop over
    the specs and their states reaches first."""
    specs = chart_specs(_CHART_H)

    def residuals(spec):
        states = [chart_state(spec, 5, seed + i) for i in range(n_states)]
        try:
            return poisson.realization_residuals(spec, states)
        except STEP_ERRORS:
            return [poisson.realization_residual(spec, c) for c in states]

    return _record("poisson-realizations", dict(n=5, h=_CHART_H), len(specs) * n_states,
                   worst(chain.from_iterable(map(residuals, specs))), 1e-6)


def check_involution(seed=0, n_states=10):
    def h1(s):
        return float(np.sum(s.b))

    def h2(s):
        return float(0.5 * np.sum(s.b ** 2) + np.sum(s.a))

    def h0(s):
        t = lax.build_T(s)
        det = np.linalg.det(t)
        if det <= 0:
            raise ValueError("state outside the log det domain")
        return float(np.log(det))

    brackets = _brackets(None)
    states = (random_state(5, Boundary.OPEN, seed + i, b_range=(1.5, 2.5), a_range=(0.1, 0.4))
              for i in range(n_states))
    residuals = (poisson.involution_residual(brackets, s, f, h2)
                 for s in states for f in (h1, h0))
    return _record("involution", dict(n=5), n_states * 2 * len(brackets), worst(residuals), 1e-7)


def check_alpha_limit(seed=0, h=0.05, alpha=1e-8):
    n = 6
    s = random_state(n, Boundary.OPEN, seed)
    ref = maps.dtl_step(s, h)
    outs = [stepper(s, alpha, h) for stepper in (maps.drtl_plus_step, maps.drtl_minus_step)]
    gaps = (float(np.max(np.abs(getattr(out, v) - getattr(ref, v))))
            for out in outs for v in ("a", "b"))
    return _record("limit-alpha-zero", dict(n=n, h=h, alpha=alpha), 2, worst(gaps), 1e-6)


def _order_record(name, params, errors, min_order):
    """Record of the smallest observed order log2(e_i / e_{i+1}) over the
    errors of successive step halvings (NaN if any order is); it passes when
    that order exceeds min_order."""
    order = float(np.min([np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]))
    rec = _record(name, params, len(errors), -order, -min_order)
    rec["observed_order"] = order
    return rec


def check_step_order(seed=0, h=1e-2):
    """Defect of one discrete step against the time-h reference flow is O(h^2)."""
    n = 6
    s = random_state(n, Boundary.OPEN, seed)

    def defect(hh):
        d = maps.dtl_step(s, hh)
        f = SYSTEMS["tl"].stepper(hh, 0.0)(s)
        return max(float(np.max(np.abs(d.a - f.a))), float(np.max(np.abs(d.b - f.b))))

    return _order_record("order-dtl-vs-flow", dict(n=n, h=h),
                         [defect(h / 2 ** i) for i in range(3)], 1.9)


def check_lagrangian_order(seed=0):
    """h^{-1} Lambda(x, x + h v) approaches the continuum Lagrangian at O(h)."""
    n, h = 6, 4e-2
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    v = rng.uniform(-1.0, 1.0, n)
    gaps = np.exp(x[1:] - x[:-1])
    continuum = 0.5 * float(np.sum(v ** 2)) - float(np.sum(gaps))

    def err(hh):
        spec = realization("exp", hh)
        val = lagrangian_value(spec, x, x + hh * v, Boundary.OPEN) / hh
        return abs(val - continuum)

    return _order_record("order-lagrangian", dict(n=n, h=h),
                         [err(h / 2 ** i) for i in range(3)], 0.9)


def check_rk4_order(seed=0):
    n, dt, steps = 5, 0.05, 8
    s = random_state(n, Boundary.OPEN, seed)

    def endpoint(ddt, nst):
        return [s, *trajectory(SYSTEMS["tl"].stepper(ddt, 0.0), s, nst)][-1]

    ref = endpoint(dt / 8, steps * 8)

    def endpoint_err(ddt, nst):
        out = endpoint(ddt, nst)
        return max(float(np.max(np.abs(out.a - ref.a))), float(np.max(np.abs(out.b - ref.b))))

    return _order_record("order-rk4", dict(n=n, dt=dt),
                         [endpoint_err(dt, steps), endpoint_err(dt / 2, steps * 2)], 3.8)


def check_zcr(seed=0, n_states=5):
    n, h, lams = 4, 0.08, [0.3, 0.8, 1.4]
    spec = realization("rel-exp-add", h, alpha=_ALPHA)
    states = (random_canonical(n, Boundary.PERIODIC, seed + i) for i in range(n_states))
    residuals = (lax.zcr_residual_drtl(c, ct, _ALPHA, h, lam)
                 for c, ct in ((c, canonical_step(spec, c)) for c in states) for lam in lams)
    return _record("zcr-drtl", dict(n=n, h=h, alpha=_ALPHA, lams=lams),
                   n_states * len(lams), worst(residuals), 1e-10)


def check_pullbacks(seed=0, n_states=3):
    return _chart_check("pullback-all", dict(n=5, h=_CHART_H, alpha=_ALPHA),
                        chart_specs(_CHART_H), pullback_consistency, 5, seed, n_states, 1e-9)


def check_symplecticity(seed=0, n_states=2):
    specs = [realization(name, _CHART_H) for name in CATALOG]
    return _chart_check("symplecticity", dict(n=4, h=_CHART_H), specs, symplectic_defect,
                        4, seed, n_states, 1e-6)


CHECKS = {
    "isospectral-dtl": lambda seed=0, **kw: check_isospectral(seed, "dtl", **kw),
    "isospectral-drtl-plus": lambda seed=0, **kw: check_isospectral(seed, "drtl+", **kw),
    "isospectral-drtl-minus": lambda seed=0, **kw: check_isospectral(seed, "drtl-", **kw),
    "factorization-oracle": check_factorization_oracle,
    "commute-bt-toda-open": lambda seed=0, **kw: check_commutativity(seed, "bt-toda", **kw),
    "commute-bt-rtl-open": lambda seed=0, **kw: check_commutativity(seed, "bt-rtl", **kw),
    "commute-bt-toda-periodic": lambda seed=0, **kw: check_commutativity(
        seed, "bt-toda", n=4, boundary=Boundary.PERIODIC, tol=1e-9, **kw),
    "commute-bt-rtl-periodic": lambda seed=0, **kw: check_commutativity(
        seed, "bt-rtl", n=4, boundary=Boundary.PERIODIC, tol=1e-9, **kw),
    "consistency-3d": check_3d_consistency,
    "closure-1d": check_closure_1d,
    "spectrality-1d": check_spectrality_1d,
    "closure-2d": check_closure_2d,
    "conservation-2d": check_conservation_2d,
    "corners-2d": check_corners_2d,
    "monodromy-bt-toda": lambda seed=0, **kw: check_monodromy(seed, "bt-toda", **kw),
    "monodromy-bt-rtl": lambda seed=0, **kw: check_monodromy(seed, "bt-rtl", **kw),
    "poisson-maps": check_poisson_maps,
    "poisson-realizations": check_poisson_realizations,
    "involution": check_involution,
    "limit-alpha-zero": check_alpha_limit,
    "order-dtl-vs-flow": check_step_order,
    "order-lagrangian": check_lagrangian_order,
    "order-rk4": check_rk4_order,
    "zcr-drtl": check_zcr,
    "pullback-all": check_pullbacks,
    "symplecticity": check_symplecticity,
}

_QUICK = {
    "isospectral-dtl": dict(steps=300),
    "isospectral-drtl-plus": dict(steps=300),
    "isospectral-drtl-minus": dict(steps=300),
    "commute-bt-toda-open": dict(n_states=10),
    "commute-bt-rtl-open": dict(n_states=10),
    "commute-bt-toda-periodic": dict(n_states=5),
    "commute-bt-rtl-periodic": dict(n_states=5),
    "poisson-maps": dict(n_states=3),
}


def run_suite(pattern: str = "*", seed: int = 0):
    """All registered checks whose name matches the glob, in sorted order, at
    the reduced sizes of _QUICK."""
    return [CHECKS[name](seed=seed, **_QUICK.get(name, {}))
            for name in sorted(CHECKS) if fnmatch.fnmatch(name, pattern)]
