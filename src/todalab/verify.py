"""Registered property checks: one callable per structural claim.

Every check is deterministic given its seed and returns a plain record

    {"check", "params", "samples", "max_residual", "tol", "pass"}

so the CLI can emit machine-readable reports and the acceptance suite can
re-run the same code at its own scales.
"""

from __future__ import annotations

import fnmatch

import numpy as np

from . import lax, maps, pluri, poisson
from .core import Boundary, FlaschkaState, random_canonical, random_state
from .flows import TL, rk4_trajectory, rtl_minus, rtl_plus
from .realizations import (CATALOG, canonical_step, lagrangian_value,
                           pullback_consistency, realization, symplectic_defect)

MAP_NAMES = ("dtl", "drtl+", "drtl-", "drtl+explicit", "drtl-explicit")
FLOW_NAMES = ("tl", "rtl+", "rtl-")


def apply_map(name: str, s: FlaschkaState, h: float, alpha: float) -> FlaschkaState:
    if name == "dtl":
        return maps.dtl_step(s, h)
    if name == "drtl+":
        return maps.drtl_plus_step(s, alpha, h)
    if name == "drtl-":
        return maps.drtl_minus_step(s, alpha, h)
    if name == "drtl+explicit":
        return maps.drtl_plus_explicit_step(s, h)
    if name == "drtl-explicit":
        return maps.drtl_minus_explicit_step(s, h)
    raise ValueError(f"unknown map {name!r}")


def flow_of(name: str, alpha: float):
    if name == "tl":
        return TL
    if name == "rtl+":
        return rtl_plus(alpha)
    if name == "rtl-":
        return rtl_minus(alpha)
    raise ValueError(f"unknown flow {name!r}")


def _lax_alpha(name: str, alpha: float):
    """alpha of the relativistic Lax pair of a system; None for the Toda matrix."""
    return None if name in ("dtl", "tl") else alpha


def invariants_of(name: str, s: FlaschkaState, alpha: float) -> np.ndarray:
    return lax.spectral_invariants(s, alpha=_lax_alpha(name, alpha))


def trajectory_invariants_of(name: str, traj, alpha: float) -> np.ndarray:
    """``invariants_of`` each state of a trajectory, one row per state."""
    return lax.trajectory_invariants(traj, alpha=_lax_alpha(name, alpha))


def _record(check, params, samples, max_residual, tol):
    return {"check": check, "params": params, "samples": int(samples),
            "max_residual": float(max_residual), "tol": float(tol),
            "pass": bool(max_residual < tol)}


def simulate(system, n, boundary, seed, h, alpha, steps, state0=None):
    """Trajectory (list of states) and per-step invariant table of a run."""
    if state0 is None:
        state0 = random_state(n, boundary, seed)
    if system in FLOW_NAMES:
        traj = rk4_trajectory(flow_of(system, alpha), state0, h, steps)
    elif system in MAP_NAMES:
        traj = [state0]
        for _ in range(steps):
            traj.append(apply_map(system, traj[-1], h, alpha))
    else:
        raise ValueError(f"unknown system {system!r}")
    return traj, trajectory_invariants_of(system, traj, alpha)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_isospectral(seed=0, system="dtl", n=8, steps=10_000, h=0.05, alpha=0.3,
                      boundary=Boundary.OPEN, tol=1e-8):
    """Largest relative drift of the spectral invariants along a trajectory.

    The states after each step are buffered, and their invariants are
    evaluated a chunk of states at a time by the stacked kernel.
    """
    s = random_state(n, boundary, seed)
    ref = invariants_of(system, s, alpha)
    scale = np.maximum(1.0, np.abs(ref))
    chunk = lax.states_per_chunk(n)
    pending = []
    drifts = [0.0]
    for step in range(steps):
        s = apply_map(system, s, h, alpha)
        pending.append(s)
        if len(pending) == chunk or step == steps - 1:
            inv = trajectory_invariants_of(system, pending, alpha)
            drifts.append(float((np.abs(inv - ref) / scale).max()))
            pending = []
    worst = float(np.max(drifts))      # a NaN drift propagates and fails the check
    label = {"dtl": "dtl", "drtl+": "drtl-plus", "drtl-": "drtl-minus"}.get(system, system)
    return _record(f"isospectral-{label}", dict(n=n, steps=steps, h=h, alpha=alpha),
                   steps, worst, tol)


def check_factorization_oracle(seed=0, n=5, h=0.05, max_steps=20, tol=1e-8):
    s0 = random_state(n, Boundary.OPEN, seed)
    worst = 0.0
    s = s0
    for m in range(1, max_steps + 1):
        s = maps.dtl_step(s, h)
        closed = lax.exact_solution(s0, h, m)
        worst = max(worst, float(np.max(np.abs(closed.a - s.a))),
                    float(np.max(np.abs(closed.b - s.b))))
    return _record("factorization-oracle", dict(n=n, h=h, max_steps=max_steps),
                   max_steps, worst, tol)


def _commutator(c, lam, mu, alpha):
    a = pluri.chain_step(pluri.chain_step(c, lam, alpha), mu, alpha)
    b = pluri.chain_step(pluri.chain_step(c, mu, alpha), lam, alpha)
    return max(float(np.max(np.abs(a.x - b.x))), float(np.max(np.abs(a.p - b.p))))


_PAIRS = ((0.05, 0.19), (0.08, 0.13), (0.1, 0.23), (0.07, 0.29), (0.11, 0.17))


def check_commutativity(seed=0, system="bt-toda", n=6, n_states=50,
                        boundary=Boundary.OPEN, pairs=_PAIRS, tol=1e-10, alpha=0.3):
    al = None if system == "bt-toda" else alpha
    worst = 0.0
    for i in range(n_states):
        c = random_canonical(n, boundary, seed + i)
        for lam, mu in pairs:
            worst = max(worst, _commutator(c, lam, mu, al))
    name = f"commute-{system}-{boundary.value}"
    return _record(name, dict(n=n, pairs=len(pairs), alpha=al), n_states * len(pairs),
                   worst, tol)


def check_3d_consistency(seed=0, h=0.1, alpha=0.3, lam=0.7, n_samples=100, tol=1e-9):
    worst = pluri.check_3d_consistency(h, alpha, lam, n_samples=n_samples, seed=seed)
    return _record("consistency-3d", dict(h=h, alpha=alpha, lam=lam), n_samples, worst, tol)


def check_closure_1d(seed=0, n=6, n_states=10, pairs=_PAIRS[:3], tol=1e-10,
                     boundary=Boundary.OPEN):
    sys1 = pluri.corner_system_1d()
    worst = 0.0
    for i in range(n_states):
        c = random_canonical(n, boundary, seed + i)
        for lam, mu in pairs:
            ct = pluri.chain_step(c, lam)
            ch = pluri.chain_step(c, mu)
            cth = pluri.chain_step(ct, mu)
            worst = max(worst, abs(pluri.closure_value_1d(
                sys1, c.x, ct.x, ch.x, cth.x, lam, mu, boundary)))
    return _record("closure-1d", dict(n=n), n_states * len(pairs), worst, tol)


def check_spectrality_1d(seed=0, n=6, n_states=10, pairs=_PAIRS[:3], tol=1e-10,
                         boundary=Boundary.OPEN):
    sys1 = pluri.corner_system_1d()
    worst = 0.0
    for i in range(n_states):
        c = random_canonical(n, boundary, seed + i)
        for lam, mu in pairs:
            ct = pluri.chain_step(c, lam)
            ch = pluri.chain_step(c, mu)
            cth = pluri.chain_step(ch, lam)
            worst = max(worst, pluri.spectrality_residual(
                sys1, (c.x, ct.x), (ch.x, cth.x), lam, boundary))
    return _record("spectrality-1d", dict(n=n), n_states * len(pairs), worst, tol)


def check_closure_2d(seed=0, n=6, n_states=10, pairs=_PAIRS[:3], alpha=0.3, tol=1e-10,
                     boundary=Boundary.PERIODIC):
    form = pluri.bt_rtl_form(alpha)
    worst = 0.0
    for i in range(n_states):
        c = random_canonical(n, boundary, seed + i)
        for lam, mu in pairs:
            ct = pluri.chain_step(c, lam, alpha)
            ch = pluri.chain_step(c, mu, alpha)
            cth = pluri.chain_step(ct, mu, alpha)
            worst = max(worst, pluri.closure_value_2d(
                form, c.x, ct.x, ch.x, cth.x, lam, mu, boundary))
    return _record("closure-2d", dict(n=n, alpha=alpha), n_states * len(pairs), worst, tol)


def check_conservation_2d(seed=0, n=6, n_states=10, pairs=_PAIRS[:3], alpha=0.3,
                          tol=1e-10, boundary=Boundary.PERIODIC):
    form = pluri.bt_rtl_form(alpha)
    worst = 0.0
    for i in range(n_states):
        c = random_canonical(n, boundary, seed + i)
        for lam, mu in pairs:
            ct = pluri.chain_step(c, lam, alpha)
            ch = pluri.chain_step(c, mu, alpha)
            cth = pluri.chain_step(ch, lam, alpha)
            worst = max(worst, pluri.conservation_residual_2d(
                form, c.x, ct.x, ch.x, cth.x, lam, mu, boundary))
    return _record("conservation-2d", dict(n=n, alpha=alpha), n_states * len(pairs),
                   worst, tol)


def check_corners_2d(seed=0, n=6, n_states=10, pairs=_PAIRS[:3], alpha=0.3,
                     tol=1e-10, boundary=Boundary.PERIODIC):
    form = pluri.bt_rtl_form(alpha)
    worst = 0.0
    for i in range(n_states):
        c = random_canonical(n, boundary, seed + i)
        for lam, mu in pairs:
            ct = pluri.chain_step(c, lam, alpha)
            ch = pluri.chain_step(c, mu, alpha)
            cth = pluri.chain_step(ct, mu, alpha)
            res = pluri.corner_residuals_2d(form, c.x, ct.x, ch.x, cth.x, lam, mu, boundary)
            worst = max(worst, max(float(np.max(np.abs(v))) for v in res.values()))
    return _record("corners-2d", dict(n=n, alpha=alpha), n_states * len(pairs), worst, tol)


def check_monodromy(seed=0, system="bt-toda", n=6, n_states=10, lam=0.15, mu=0.23,
                    alpha=0.3, tol_invariant=1e-10, boundary=Boundary.OPEN):
    al = None if system == "bt-toda" else alpha
    worst = 0.0
    for i in range(n_states):
        c = random_canonical(n, boundary, seed + i)
        ct = pluri.chain_step(c, lam, al)
        ch = pluri.chain_step(c, mu, al)
        cth = pluri.chain_step(ct, mu, al)
        if system == "bt-toda":
            _, P0 = lax.monodromy_toda(c, ct.x, lam)
            _, P1 = lax.monodromy_toda(ch, cth.x, lam)
        else:
            _, P0 = lax.monodromy_rtl(c, ct.x, alpha, lam)
            _, P1 = lax.monodromy_rtl(ch, cth.x, alpha, lam)
        worst = max(worst, abs(P1 - P0) / max(1.0, abs(P0)))
    return _record(f"monodromy-{system}", dict(n=n, lam=lam, mu=mu, alpha=al),
                   n_states, worst, tol_invariant)


_BRACKETS_TL = (poisson.Bracket("tl1"), poisson.Bracket("tl2"), poisson.Bracket("tl3"))


def _brackets_rtl(alpha):
    return (poisson.Bracket("rtl1", alpha), poisson.Bracket("rtl2"),
            poisson.Bracket("rtl3", alpha))


def check_poisson_maps(seed=0, n=4, n_states=20, h=0.08, alpha=0.3, tol=1e-6,
                       boundary=Boundary.OPEN):
    worst = 0.0
    cases = [("dtl", br) for br in _BRACKETS_TL]
    cases += [(m, br) for m in ("drtl+", "drtl-") for br in _brackets_rtl(alpha)]
    cases += [(m, br) for m in ("drtl+explicit", "drtl-explicit")
              for br in _brackets_rtl(h if m == "drtl+explicit" else -h)]
    for i in range(n_states):
        s = random_state(n, boundary, seed + i)
        for mname, br in cases:
            worst = max(worst, poisson.poisson_map_residual(
                lambda st: apply_map(mname, st, h, alpha), br, s))
    return _record("poisson-maps", dict(n=n, h=h, alpha=alpha),
                   n_states * len(cases), worst, tol)


def check_poisson_realizations(seed=0, n=5, n_states=5, h=0.1, alpha=0.3,
                               epsilon=0.2, beta=0.1, tol=1e-6):
    worst = 0.0
    count = 0
    for name in CATALOG:
        fams = (None, "drtl_minus") if name in ("rel-exp-add", "rel-dual", "rel-mod") else (None,)
        for fam in fams:
            spec = realization(name, h, alpha=alpha, epsilon=epsilon, beta=beta, family=fam)
            for i in range(n_states):
                c = _chart_state(spec, n, seed + i)
                worst = max(worst, poisson.realization_residual(spec, c))
                count += 1
    return _record("poisson-realizations", dict(n=n, h=h), count, worst, tol)


def _chart_state(spec, n, seed, boundary=None):
    if boundary is None:
        boundary = Boundary.OPEN if spec.supports_open else Boundary.PERIODIC
    if spec.ordered_domain:
        # p floor keeps the relativistic hyperbolic chart away from its
        # 1 - eps*alpha*y*z pole at the wrap site
        return random_canonical(n, boundary, seed, increasing=True,
                                gap_range=(0.8, 1.6), p_range=(0.8, 1.5))
    if spec.family == "drtl_minus" or spec.name in ("dual", "rel-dual", "explicit-c"):
        # difference charts put raw gaps into log legs, and the minus-family
        # kinetic leg has a finite range; keep configurations compact
        return random_canonical(n, boundary, seed, x_range=(-0.5, 0.5))
    return random_canonical(n, boundary, seed)


def check_involution(seed=0, n=5, n_states=10, tol=1e-7):
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

    worst = 0.0
    count = 0
    for i in range(n_states):
        s = random_state(n, Boundary.OPEN, seed + i, b_range=(1.5, 2.5), a_range=(0.1, 0.4))
        for br in _BRACKETS_TL:
            worst = max(worst, poisson.involution_residual(br, s, h1, h2))
            worst = max(worst, poisson.involution_residual(br, s, h0, h2))
            count += 2
    return _record("involution", dict(n=n), count, worst, tol)


def check_alpha_limit(seed=0, n=6, h=0.05, alpha=1e-8, tol=1e-6):
    s = random_state(n, Boundary.OPEN, seed)
    ref = maps.dtl_step(s, h)
    worst = 0.0
    for stepper in (maps.drtl_plus_step, maps.drtl_minus_step):
        out = stepper(s, alpha, h)
        worst = max(worst, float(np.max(np.abs(out.a - ref.a))),
                    float(np.max(np.abs(out.b - ref.b))))
    return _record("limit-alpha-zero", dict(n=n, h=h, alpha=alpha), 2, worst, tol)


def check_step_order(seed=0, n=6, h=1e-2, levels=3, min_order=1.9):
    """Defect of one discrete step against the time-h reference flow is O(h^2)."""
    s = random_state(n, Boundary.OPEN, seed)

    def defect(hh):
        d = maps.dtl_step(s, hh)
        f = rk4_trajectory(TL, s, hh, 1)[-1]
        return max(float(np.max(np.abs(d.a - f.a))), float(np.max(np.abs(d.b - f.b))))

    ds = [defect(h / 2 ** i) for i in range(levels)]
    orders = [np.log2(ds[i] / ds[i + 1]) for i in range(levels - 1)]
    worst = min(orders)
    rec = _record("order-dtl-vs-flow", dict(n=n, h=h), levels, -worst, -min_order)
    rec["observed_order"] = float(worst)
    return rec


def check_lagrangian_order(seed=0, n=6, h=4e-2, levels=3, min_order=0.9):
    """h^{-1} Lambda(x, x + h v) approaches the continuum Lagrangian at O(h)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    v = rng.uniform(-1.0, 1.0, n)
    gaps = np.exp(x[1:] - x[:-1])
    continuum = 0.5 * float(np.sum(v ** 2)) - float(np.sum(gaps))

    def err(hh):
        spec = realization("exp", hh)
        val = lagrangian_value(spec, x, x + hh * v, Boundary.OPEN) / hh
        return abs(val - continuum)

    es = [err(h / 2 ** i) for i in range(levels)]
    orders = [np.log2(es[i] / es[i + 1]) for i in range(levels - 1)]
    worst = min(orders)
    rec = _record("order-lagrangian", dict(n=n, h=h), levels, -worst, -min_order)
    rec["observed_order"] = float(worst)
    return rec


def check_rk4_order(seed=0, n=5, dt=0.05, steps=8, min_order=3.8):
    s = random_state(n, Boundary.OPEN, seed)
    ref = rk4_trajectory(TL, s, dt / 8, steps * 8)[-1]

    def endpoint_err(ddt, nst):
        out = rk4_trajectory(TL, s, ddt, nst)[-1]
        return max(float(np.max(np.abs(out.a - ref.a))), float(np.max(np.abs(out.b - ref.b))))

    e1 = endpoint_err(dt, steps)
    e2 = endpoint_err(dt / 2, steps * 2)
    order = float(np.log2(e1 / e2))
    rec = _record("order-rk4", dict(n=n, dt=dt), 2, -order, -min_order)
    rec["observed_order"] = order
    return rec


def check_zcr(seed=0, n=4, h=0.08, alpha=0.3, lams=(0.3, 0.8, 1.4), n_states=5,
              tol=1e-10, boundary=Boundary.PERIODIC):
    spec = realization("rel-exp-add", h, alpha=alpha)
    worst = 0.0
    for i in range(n_states):
        c = random_canonical(n, boundary, seed + i)
        ct = canonical_step(spec, c)
        for lam in lams:
            worst = max(worst, lax.zcr_residual_drtl(c, ct, alpha, h, lam))
    return _record("zcr-drtl", dict(n=n, h=h, alpha=alpha, lams=list(lams)),
                   n_states * len(lams), worst, tol)


def check_pullbacks(seed=0, n=5, h=0.1, alpha=0.3, epsilon=0.2, beta=0.1,
                    n_states=3, tol=1e-9):
    worst = 0.0
    count = 0
    for name in CATALOG:
        fams = (None, "drtl_minus") if name in ("rel-exp-add", "rel-dual", "rel-mod") else (None,)
        for fam in fams:
            spec = realization(name, h, alpha=alpha, epsilon=epsilon, beta=beta, family=fam)
            for i in range(n_states):
                c = _chart_state(spec, n, seed + i)
                worst = max(worst, pullback_consistency(spec, c))
                count += 1
    return _record("pullback-all", dict(n=n, h=h, alpha=alpha), count, worst, tol)


def check_symplecticity(seed=0, n=4, h=0.1, alpha=0.3, epsilon=0.2, beta=0.1,
                        n_states=2, tol=1e-6):
    worst = 0.0
    count = 0
    for name in CATALOG:
        spec = realization(name, h, alpha=alpha, epsilon=epsilon, beta=beta)
        for i in range(n_states):
            c = _chart_state(spec, n, seed + i)
            worst = max(worst, symplectic_defect(spec, c))
            count += 1
    return _record("symplecticity", dict(n=n, h=h), count, worst, tol)


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


def run_suite(pattern: str = "*", seed: int = 0, quick: bool = True):
    """All registered checks whose name matches the glob, in sorted order."""
    out = []
    for name in sorted(CHECKS):
        if not fnmatch.fnmatch(name, pattern):
            continue
        kwargs = dict(_QUICK.get(name, {})) if quick else {}
        out.append(CHECKS[name](seed=seed, **kwargs))
    return out
