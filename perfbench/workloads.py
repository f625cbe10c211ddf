"""The four benchmark workloads, built from a seed.

A workload is a fixed list of operations ("one pass").  Each operation calls
one public entry point of todalab and comes with the benchmark's own check
of its result.  ``tiny=True`` shrinks every operation to a few steps or
samples; the warm-up and the self-test use it.

Seeds: the operations of the default workload seed 0 use exactly the seeds
of ``tests/test_acceptance.py``; workload seed S adds S to each of them.
acceptance-sweep is the exception: its checks sample their states inside
todalab, and at some seeds those samples fail (see acceptance_sweep), so
its timed inputs stay at the acceptance seeds and only ``sweep_seed``, used
for the second-seed report, moves them.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

from todalab import cli, lax, realizations, verify
from todalab.core import Boundary, random_canonical

from oracle import OutputMismatch, check_record, check_simulate_csv

H = 0.05
ALPHA = 0.3
SYSTEMS = ("dtl", "drtl+", "drtl-")
_LABEL = {"dtl": "dtl", "drtl+": "drtl-plus", "drtl-": "drtl-minus"}

# charts in realizations.CATALOG counting the minus family of the three
# charts that have one; symplecticity uses the 22 charts alone
_CHART_SPECS = 25
_CHARTS = 22


@dataclass(frozen=True)
class Op:
    """One operation: `run` does the timed work, `check` validates its result
    and returns (max_residual, tol), tol None when the check is exact."""
    name: str
    criterion: int          # acceptance criterion it reproduces, 0 for none
    steps: int              # map steps (or verified samples) it completes
    run: Callable[[], object]
    check: Callable[[object], tuple]


def _isospectral(system, seed, n, steps):
    return Op(f"isospectral-{_LABEL[system]}-n{n}-seed{seed}", 1, steps,
              lambda: verify.check_isospectral(seed=seed, system=system, n=n,
                                               steps=steps, h=H, alpha=ALPHA),
              lambda rec: check_record(rec, f"isospectral-{_LABEL[system]}", 1e-8, steps))


def open_isospectral(seed, tiny=False):
    """Acceptance criterion 1: three open-chain trajectories of 10^4 steps."""
    steps = 20 if tiny else 10_000
    return [_isospectral(system, seed + i, 8, steps) for i, system in enumerate(SYSTEMS)]


def large_lattice(seed, tiny=False):
    """The isospectrality check at n = 128, where the invariants dominate.

    Two lattices per system (seeds seed + i and seed + i + 3) of 50 steps
    give each run more, shorter samples than one lattice of 100 steps.
    """
    steps = 2 if tiny else 50
    return [_isospectral(system, seed + i + 3 * r, 128, steps)
            for r in range(2) for i, system in enumerate(SYSTEMS)]


RINGS_PER_SYSTEM = 4
RING_N = 8


def ring_simulate(seed, workdir, tiny=False):
    """`todalab simulate` on periodic rings, run in-process through cli.main.

    Ring r of system i uses seed + i + 3 r, so ring 0 has the criterion-1
    seeds.  Four short rings per system, rather than one long one, average
    the seed-to-seed spread of the branch-solve cost and give each run more
    samples.
    """
    steps = 3 if tiny else 500
    ops = []
    for r in range(RINGS_PER_SYSTEM):
        for i, system in enumerate(SYSTEMS):
            s = seed + i + 3 * r
            out = f"{workdir}/{_LABEL[system]}-{s}"
            argv = ["simulate", "--system", system, "--n", str(RING_N),
                    "--boundary", "periodic", "--seed", str(s), "--steps", str(steps),
                    "--h", repr(H), "--alpha", repr(ALPHA), "--out", out]
            ops.append(Op(f"simulate-{_LABEL[system]}-ring{r}", 0, steps,
                          _cli_runner(argv), _simulate_checker(out, system, s, steps)))
    return ops


def _cli_runner(argv):
    def run():
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(list(argv))
        return code, out.getvalue() + err.getvalue()
    return run


def _simulate_checker(out, system, seed, steps):
    def check(result):
        code, text = result
        if code != 0:
            raise OutputMismatch(f"simulate exit code {code}: {text.strip()}")
        return check_simulate_csv(out + ".trajectory.csv", system, seed, RING_N,
                                  steps, ALPHA)
    return check


def _record_op(criterion, check, tol, samples, fn_name, /, *, op_name=None, **kwargs):
    # looked up at call time, so the traced run sees the wrapped function
    return Op(op_name or f"c{criterion}-{check}", criterion, samples,
              lambda: getattr(verify, fn_name)(**kwargs),
              lambda rec: check_record(rec, check, tol, samples))


def acceptance_sweep(seed, tiny=False):
    """The verify calls of acceptance criteria 2-10 at the acceptance parameters.

    `seed` is added to the acceptance seeds.  The timed workload uses 0: the
    checks draw their random states inside todalab, and at some seeds a
    drawn state fails (commutativity: `SolveFailed` on the n = 4 bt-toda
    ring at state seed 2073, `NonInvertibleLeg` on the open n = 6 bt-toda
    chain at workload seed 12345), which the benchmark cannot filter.
    `steps` of these operations counts the verified samples of each record
    (states, cubes, chart/step pairs), as fixed by the call's parameters.
    """
    P = Boundary.PERIODIC

    def k(full, small):
        return small if tiny else full

    st = k(50, 1)
    ops = [
        _record_op(2, "factorization-oracle", 1e-8, k(20, 3), "check_factorization_oracle",
                   seed=seed + 3, n=5, h=0.05, max_steps=k(20, 3)),
        _record_op(3, "commute-bt-toda-open", 1e-10, st * 5, "check_commutativity",
                   seed=seed, system="bt-toda", n=6, n_states=st),
        _record_op(3, "commute-bt-rtl-open", 1e-10, st * 5, "check_commutativity",
                   seed=seed, system="bt-rtl", n=6, n_states=st),
        _record_op(3, "commute-bt-toda-periodic", 1e-9, st * 5, "check_commutativity",
                   seed=seed, system="bt-toda", n=4, n_states=st, boundary=P, tol=1e-9),
        _record_op(3, "commute-bt-rtl-periodic", 1e-9, st * 5, "check_commutativity",
                   seed=seed, system="bt-rtl", n=4, n_states=st, boundary=P, tol=1e-9),
        _record_op(4, "consistency-3d", 1e-9, k(100, 5), "check_3d_consistency",
                   seed=seed, h=0.1, alpha=0.3, lam=0.7, n_samples=k(100, 5)),
    ]
    s5 = k(20, 1)
    for check, fn in (("closure-1d", "check_closure_1d"), ("closure-2d", "check_closure_2d"),
                      ("spectrality-1d", "check_spectrality_1d"),
                      ("conservation-2d", "check_conservation_2d")):
        ops.append(_record_op(5, check, 1e-10, s5 * 3, fn, seed=seed + 1, n_states=s5))
    ops.append(_record_op(5, "corners-2d", 1e-10, k(10, 1) * 3, "check_corners_2d",
                          seed=seed + 1, n_states=k(10, 1)))
    for system, kw in (("bt-toda", {}), ("bt-rtl", {}),
                       ("bt-toda", dict(n=5, boundary=P)), ("bt-rtl", dict(n=5, boundary=P))):
        ns = k(10 if kw else 20, 1)
        ops.append(_record_op(6, f"monodromy-{system}", 1e-10, ns, "check_monodromy",
                              op_name=f"c6-monodromy-{system}-{'periodic' if kw else 'open'}",
                              seed=seed + 2, system=system, n_states=ns, **kw))
    ops += [
        _record_op(7, "poisson-maps", 1e-6, k(20, 1) * 15, "check_poisson_maps",
                   seed=seed + 4, n_states=k(20, 1)),
        _record_op(7, "poisson-realizations", 1e-6, k(5, 1) * _CHART_SPECS,
                   "check_poisson_realizations", seed=seed + 4, n_states=k(5, 1)),
        _record_op(7, "involution", 1e-7, k(10, 1) * 6, "check_involution",
                   seed=seed + 4, n_states=k(10, 1)),
        _record_op(7, "symplecticity", 1e-6, k(2, 1) * _CHARTS, "check_symplecticity",
                   seed=seed + 4, n_states=k(2, 1)),
        _record_op(8, "limit-alpha-zero", 1e-6, 2, "check_alpha_limit",
                   seed=seed + 5, h=0.05, alpha=1e-8),
        _record_op(8, "order-dtl-vs-flow", -1.9, 3, "check_step_order", seed=seed + 5, h=1e-2),
        # held at its acceptance seed: this one-state order estimate falls
        # below 0.9 at seeds 9, 16 and 60 (of 5..64); see README.md
        _record_op(8, "order-lagrangian", -0.9, 3, "check_lagrangian_order", seed=5),
        _record_op(9, "zcr-drtl", 1e-10, k(10, 1) * 3, "check_zcr",
                   seed=seed + 6, n_states=k(10, 1)),
        Op("c9-site-matrix-h-independence", 9, 2, lambda: _site_matrices(seed),
           _check_bitwise),
        _record_op(10, "pullback-all", 1e-9, k(3, 1) * _CHART_SPECS, "check_pullbacks",
                   seed=seed + 7, n_states=k(3, 1)),
    ]
    return ops


def _site_matrices(seed):
    """Criterion 9's second half: drtl site matrices after steps of two sizes."""
    c = random_canonical(4, Boundary.PERIODIC, seed)
    mats = []
    for h in (0.05, 0.1):
        spec = realizations.realization("rel-exp-add", h, alpha=0.3)
        realizations.canonical_step(spec, c)
        mats.append(np.stack([lax.drtl_transition_L(c.x[j], c.p[j], 0.3, 0.8)
                              for j in range(c.n)]))
    return mats


def _check_bitwise(mats):
    if not np.array_equal(mats[0], mats[1]):
        raise OutputMismatch("site transition matrices depend on the step size")
    return 0.0, None


def build(name, seed, workdir, tiny=False, sweep_seed=0):
    """Operations of one pass of workload `name`; their names are unique.

    acceptance-sweep takes `sweep_seed` instead of `seed` (see acceptance_sweep).
    """
    if name == "open-isospectral":
        ops = open_isospectral(seed, tiny)
    elif name == "ring-simulate":
        ops = ring_simulate(seed, workdir, tiny)
    elif name == "acceptance-sweep":
        ops = acceptance_sweep(sweep_seed, tiny)
    elif name == "large-lattice":
        ops = large_lattice(seed, tiny)
    else:
        raise ValueError(f"unknown workload {name!r}")
    if len({op.name for op in ops}) != len(ops):
        raise ValueError(f"workload {name!r} repeats an operation name")
    return ops
