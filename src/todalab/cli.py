"""Command-line front end.

Subcommands:

    simulate     run a map/flow trajectory, write trajectory + drift CSVs
    invariants   print/write the spectral invariants of a seeded state
    verify       run registered property checks, write a JSON report
    dump-lax     write the Lax matrices of a state as row-major JSON
    consistency  Monte-Carlo cube-consistency sweep

A flat INI-style config file (``--config``) may supply any option; explicit
flags win.  All numeric output uses 17 significant digits so files
round-trip exactly; identical config + seed gives byte-identical output.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys

import numpy as np

from . import lax, pluri, verify
from .flows import rk4_step
from .core import (Boundary, CanonicalState, FlaschkaState, load_state,
                   random_canonical, random_state, state_to_json)
from .errors import NumericalError
from .realizations import CATALOG, canonical_step, flaschka_of, realization

def _boundary(text: str) -> Boundary:
    try:
        return Boundary(text)
    except ValueError:
        raise SystemExit2(f"unknown boundary {text!r} (use open|periodic)")


class SystemExit2(Exception):
    """Validation failure mapped to exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="todalab",
                                description="discrete Toda lattice laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="flat INI config file; flags override it")
        sp.add_argument("--system", default="dtl")
        sp.add_argument("--realization", default=None)
        sp.add_argument("--n", type=int, default=6)
        sp.add_argument("--boundary", default="open")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--h", type=float, default=0.05)
        sp.add_argument("--alpha", type=float, default=0.3)
        sp.add_argument("--epsilon", type=float, default=0.2)
        sp.add_argument("--beta", type=float, default=0.1)
        sp.add_argument("--lambda", dest="lam", type=float, default=1.0)
        sp.add_argument("--mu", type=float, default=0.2)
        sp.add_argument("--steps", type=int, default=100)
        sp.add_argument("--out", default=None)
        sp.add_argument("--state", default=None,
                        help="JSON state file overriding n/boundary/seed")
        sp.add_argument("--filter", dest="filter_glob", default="*")

    for name in ("simulate", "invariants", "verify", "dump-lax", "consistency"):
        common(sub.add_parser(name))
    return p


_CONFIG_KEYS = {"system": str, "realization": str, "n": int, "boundary": str,
                "seed": int, "h": float, "alpha": float, "epsilon": float,
                "beta": float, "lambda": float, "mu": float, "steps": int,
                "out": str, "state": str, "filter": str}
_DEST = {"lambda": "lam", "filter": "filter_glob"}


def _apply_config(args, argv):
    if not args.config:
        return args
    parser = configparser.ConfigParser()
    with open(args.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.lstrip().startswith("["):
        text = "[run]\n" + text
    parser.read_string(text)
    section = parser[parser.sections()[0]]
    explicit = {tok.split("=")[0].lstrip("-") for tok in argv if tok.startswith("--")}
    for key, value in section.items():
        if key not in _CONFIG_KEYS:
            raise SystemExit2(f"unknown config key {key!r}")
        if key in explicit or _DEST.get(key, key) in explicit:
            continue   # flags win
        setattr(args, _DEST.get(key, key), _CONFIG_KEYS[key](value))
    return args


def _validate_numbers(args):
    for key, kind in _CONFIG_KEYS.items():
        if kind is float and not math.isfinite(getattr(args, _DEST.get(key, key))):
            raise SystemExit2(f"--{key} must be finite")


def _lattice_size(args) -> int:
    if args.n < 2:
        raise SystemExit2("--n must be >= 2")
    return args.n


def _load_state(path):
    try:
        return load_state(path)
    except (ValueError, KeyError, TypeError) as exc:   # JSON syntax, fields, values
        raise SystemExit2(f"bad state file {path}: {exc}")


def _initial_state(args) -> FlaschkaState:
    if args.state:
        state = _load_state(args.state)
        if not isinstance(state, FlaschkaState):
            raise SystemExit2("state file must hold (a, b) variables")
        return state
    return random_state(_lattice_size(args), _boundary(args.boundary), args.seed)


def _chart_spec(args):
    return realization(args.realization, args.h, alpha=args.alpha,
                       epsilon=args.epsilon, beta=args.beta)


def _initial_canonical(args, spec) -> CanonicalState:
    if args.state:
        state = _load_state(args.state)
        if not isinstance(state, CanonicalState):
            raise SystemExit2("state file must hold (x, p) variables")
        return state
    boundary = _boundary(args.boundary)
    if boundary is Boundary.OPEN and not spec.supports_open:
        raise SystemExit2(f"chart {spec.name} is periodic-only")
    n = _lattice_size(args)
    if spec.ordered_domain:
        return random_canonical(n, boundary, args.seed, increasing=True,
                                gap_range=(0.8, 1.6), p_range=(0.6, 1.4))
    if spec.name in ("dual", "rel-dual", "explicit-c"):
        return random_canonical(n, boundary, args.seed, x_range=(-0.6, 0.6))
    return random_canonical(n, boundary, args.seed)


def _validate_system(args):
    if args.system not in verify.MAP_NAMES + verify.FLOW_NAMES:
        raise SystemExit2(f"unknown system {args.system!r}")
    if args.realization is not None and args.realization not in CATALOG:
        raise SystemExit2(f"unknown realization {args.realization!r}")


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_report(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _inv_names(count_per_lam, lams):
    names = []
    for j in range(len(lams)):
        for k in range(count_per_lam):
            suffix = f"_lam{j}" if len(lams) > 1 else ""
            names.append(f"trT{k + 1}{suffix}")
    return names


def _write_csv(path, header, table):
    """Header, then one line per row of table: its index and 17-digit values."""
    line = "%d" + ",%.17g" * table.shape[1] + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % (i, *row.tolist()) for i, row in enumerate(table))


def _write_run_outputs(out, header, state_rows, inv, inv_names):
    _write_csv(out + ".trajectory.csv", header, np.hstack([state_rows, inv]))
    drift = np.abs(inv - inv[0]) / np.maximum(1.0, np.abs(inv[0]))
    _write_csv(out + ".invariants.csv",
               ["step"] + [f"drift_{c}" for c in inv_names] + ["drift_max"],
               np.column_stack([drift, drift.max(axis=1)]))
    print(f"wrote {out}.trajectory.csv and {out}.invariants.csv "
          f"(max drift {drift.max():.3e})")


def _trajectory(step, first, steps, invariants, out, report):
    """States first, step(first), ... and their invariants.

    A numerical failure, or a state that fails validation (a ValueError: an
    entry overflowed or became NaN), writes <out>.error.json and one stderr
    line and gives no invariants; numpy's floating-point warnings are off, so
    that line is the only one.
    """
    traj = [first]
    try:
        with np.errstate(all="ignore"):
            for _ in range(steps):
                traj.append(step(traj[-1]))
            return traj, invariants(traj)
    except (NumericalError, ValueError) as exc:
        report = dict(report, error=type(exc).__name__, message=str(exc),
                      failed=True, failing_step=len(traj))
        _write(out + ".error.json", _json_report(report))
        print(f"numerical failure at step {len(traj)}: {exc}", file=sys.stderr)
        return traj, None


def _simulate_chart(args) -> int:
    spec = _chart_spec(args)
    c0 = _initial_canonical(args, spec)
    out = args.out or "run"
    alpha = spec.alpha if spec.family != "dtl" else None
    traj, inv = _trajectory(
        lambda c: canonical_step(spec, c), c0, args.steps,
        lambda cs: lax.trajectory_invariants([flaschka_of(spec, c) for c in cs], alpha=alpha),
        out, {"realization": spec.name})
    if inv is None:
        return 3

    n = c0.n
    lams = (1.0,) if c0.boundary is Boundary.OPEN else lax.DEFAULT_LAMBDAS
    header = (["step"] + [f"x{k + 1}" for k in range(n)]
              + [f"p{k + 1}" for k in range(n)] + _inv_names(n, lams))
    _write_run_outputs(out, header, [np.concatenate([c.x, c.p]) for c in traj],
                       inv, _inv_names(n, lams))
    return 0


def cmd_simulate(args) -> int:
    _validate_system(args)
    if args.steps < 0:
        raise SystemExit2("--steps must be >= 0")
    if args.system in verify.FLOW_NAMES and args.h == 0.0:
        raise SystemExit2("--h must be nonzero for a flow")
    if args.realization is not None:
        return _simulate_chart(args)
    s0 = _initial_state(args)
    out = args.out or "run"
    if args.system in verify.FLOW_NAMES:
        flow = verify.flow_of(args.system, args.alpha)

        def step(s):
            return rk4_step(flow, s, args.h)
    else:
        def step(s):
            return verify.apply_map(args.system, s, args.h, args.alpha)
    traj, inv = _trajectory(
        step, s0, args.steps,
        lambda states: verify.trajectory_invariants_of(args.system, states, args.alpha),
        out, {"system": args.system})
    if inv is None:
        return 3

    n = s0.n
    lams = (1.0,) if s0.boundary is Boundary.OPEN else lax.DEFAULT_LAMBDAS
    header = (["step"] + [f"b{k + 1}" for k in range(n)]
              + [f"a{k + 1}" for k in range(n)] + _inv_names(n, lams))
    _write_run_outputs(out, header, [np.concatenate([s.b, s.a]) for s in traj],
                       inv, _inv_names(n, lams))
    return 0


def cmd_invariants(args) -> int:
    _validate_system(args)
    if args.realization is not None:
        spec = _chart_spec(args)
        c = _initial_canonical(args, spec)
        s = flaschka_of(spec, c)
        alpha = spec.alpha if spec.family != "dtl" else None
        inv = lax.spectral_invariants(s, alpha=alpha)
        obj = {"realization": spec.name, "state": json.loads(state_to_json(c)),
               "invariants": [float(v) for v in inv]}
        text = _json_report(obj)
        if args.out:
            _write(args.out, text)
        else:
            sys.stdout.write(text)
        return 0
    s = _initial_state(args)
    inv = verify.invariants_of(args.system, s, args.alpha)
    obj = {"system": args.system, "state": json.loads(state_to_json(s)),
           "invariants": [float(v) for v in inv]}
    text = _json_report(obj)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    records = verify.run_suite(args.filter_glob, seed=args.seed)
    if not records:
        raise SystemExit2(f"no check matches {args.filter_glob!r}")
    text = _json_report({"seed": args.seed, "filter": args.filter_glob,
                         "checks": records})
    if args.out:
        _write(args.out, text)
    for rec in records:
        print(f"{'PASS' if rec['pass'] else 'FAIL'} {rec['check']}: "
              f"max_residual={rec['max_residual']:.3e} tol={rec['tol']:.1e}")
    return 0 if all(r["pass"] for r in records) else 3


def cmd_dump_lax(args) -> int:
    _validate_system(args)
    s = _initial_state(args)
    obj = {"T": lax.build_T(s, args.lam).tolist()}
    if args.system in ("drtl+", "drtl-", "rtl+", "rtl-"):
        L, U = lax.build_LU_rtl(s, args.alpha, args.lam)
        obj["L"] = L.tolist()
        obj["U"] = U.tolist()
        obj["T1"] = lax.rtl_t1(s, args.alpha, args.lam).tolist()
    text = _json_report(obj)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_consistency(args) -> int:
    if args.steps < 1:
        raise SystemExit2("--steps (the number of sampled cubes) must be >= 1")
    worst = pluri.check_3d_consistency(args.h, args.alpha, args.lam,
                                       n_samples=args.steps, seed=args.seed)
    obj = {"check": "consistency-3d", "h": args.h, "alpha": args.alpha,
           "lambda": args.lam, "samples": args.steps,
           "max_discrepancy": worst, "pass": bool(worst < 1e-9)}
    text = _json_report(obj)
    if args.out:
        _write(args.out, text)
    sys.stdout.write(text)
    return 0 if obj["pass"] else 3


_COMMANDS = {"simulate": cmd_simulate, "invariants": cmd_invariants,
             "verify": cmd_verify, "dump-lax": cmd_dump_lax,
             "consistency": cmd_consistency}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args, argv)
        _validate_numbers(args)
        if args.lam == 0.0 and args.boundary == "periodic":
            raise SystemExit2("lambda must be nonzero on a ring")
        return _COMMANDS[args.command](args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
