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
import re
import sys
from functools import partial

import numpy as np

from . import lax, pluri, verify
from .core import (Boundary, CanonicalState, FlaschkaState, load_state, random_state,
                   state_to_json)
from .errors import NoRealBranch, NumericalError
from .realizations import CATALOG, canonical_step, chart_state, flaschka_of, realization
from .systems import SYSTEMS

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
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SystemExit2(f"bad config file {args.config}: {exc}")
    header = "" if text.lstrip().startswith("[") else "[run]\n"
    parser = configparser.ConfigParser()
    try:
        parser.read_string(header + text, source=args.config)
    except configparser.Error as exc:
        msg = " ".join(str(exc).split())
        if header:   # number the file's own lines, not the header put before them
            msg = re.sub(r"\[line (\d+)\]", lambda m: f"[line {int(m[1]) - 1}]", msg)
        raise SystemExit2(f"bad config file {args.config}: {msg}")
    if len(parser.sections()) != 1:
        raise SystemExit2(f"config file {args.config} must hold exactly one section")
    section = parser[parser.sections()[0]]
    explicit = {tok.split("=")[0].lstrip("-") for tok in argv if tok.startswith("--")}
    for key, value in section.items():
        if key not in _CONFIG_KEYS:
            raise SystemExit2(f"unknown config key {key!r}")
        if key in explicit or _DEST.get(key, key) in explicit:
            continue   # flags win
        try:
            setattr(args, _DEST.get(key, key), _CONFIG_KEYS[key](value))
        except ValueError:
            raise SystemExit2(f"config key {key!r}: {value!r} is not a valid "
                              f"{_CONFIG_KEYS[key].__name__}")
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


def _chart_boundary(spec, boundary: Boundary) -> Boundary:
    if boundary is Boundary.OPEN and not spec.supports_open:
        raise SystemExit2(f"chart {spec.name} is periodic-only")
    return boundary


def _initial_canonical(args, spec) -> CanonicalState:
    if args.state:
        state = _load_state(args.state)
        if not isinstance(state, CanonicalState):
            raise SystemExit2("state file must hold (x, p) variables")
        _chart_boundary(spec, state.boundary)
        return state
    boundary = _chart_boundary(spec, _boundary(args.boundary))
    return chart_state(spec, _lattice_size(args), args.seed, boundary)


def _validate_system(args):
    if args.system not in SYSTEMS:
        raise SystemExit2(f"unknown system {args.system!r}")
    if args.realization is not None and args.realization not in CATALOG:
        raise SystemExit2(f"unknown realization {args.realization!r}")


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(args, text):
    """Write text to --out, or to stdout without one."""
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def _json_report(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _inv_names(n, samples):
    """Invariant columns: n nodes for each of the lambda samples."""
    return [f"logdet{j + 1}" + (f"_lam{m}" if samples > 1 else "")
            for m in range(samples) for j in range(n)]


def _write_csv(path, header, table):
    """Header, then one line per row of table: its index and 17-digit values."""
    line = "%d" + ",%.17g" * table.shape[1] + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % (i, *row.tolist()) for i, row in enumerate(table))


def _write_run_outputs(out, header, state_rows, inv, inv_names):
    _write_csv(out + ".trajectory.csv", header, np.hstack([state_rows, inv]))
    drift = lax.drift(inv, inv[0])
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
    that line is the only one.  The report names the failing step, or
    ``"failing_stage": "invariants"`` when every step ran and the invariants
    of the trajectory failed.
    """
    traj = [first]
    with np.errstate(all="ignore"):
        try:
            for state in verify.trajectory(step, first, steps):
                traj.append(state)
        except (NumericalError, ValueError) as exc:
            _report_failure(out, report, exc, f"at step {len(traj)}", failing_step=len(traj))
            return traj, None
        try:
            return traj, invariants(traj)
        except (NumericalError, ValueError) as exc:
            _report_failure(out, report, exc, "in the trajectory invariants",
                            failing_stage="invariants")
            return traj, None


def _report_failure(out, report, exc, where, **failing):
    if isinstance(exc, NoRealBranch):
        failing.update(discriminant=exc.discriminant, site=exc.site)
    report = dict(report, error=type(exc).__name__, message=str(exc), failed=True, **failing)
    _write(out + ".error.json", _json_report(report))
    print(f"numerical failure {where}: {exc}", file=sys.stderr)


def _subject(args):
    """What a run starts from and steps: the --realization chart if one is
    given, else the --system.  Returns the first state, the step, the (a, b)
    image of a state, the alpha of the conserved Lax pair and the report key."""
    if args.realization is None:
        row = SYSTEMS[args.system]
        return (_initial_state(args), row.stepper(args.h, args.alpha), lambda s: s,
                row.lax_alpha(args.h, args.alpha), {"system": args.system})
    spec = realization(args.realization, args.h, alpha=args.alpha,
                       epsilon=args.epsilon, beta=args.beta)
    return (_initial_canonical(args, spec), partial(canonical_step, spec),
            partial(flaschka_of, spec), spec.system.lax_alpha(spec.h, spec.alpha),
            {"realization": spec.name})


def cmd_simulate(args) -> int:
    _validate_system(args)
    if args.steps < 0:
        raise SystemExit2("--steps must be >= 0")
    if SYSTEMS[args.system].flow and args.h == 0.0:
        raise SystemExit2("--h must be nonzero for a flow")
    first, step, to_ab, alpha, report = _subject(args)
    out = args.out or "run"
    traj, inv = _trajectory(
        step, first, args.steps,
        lambda states: np.concatenate(list(lax.trajectory_invariants(map(to_ab, states),
                                                                     alpha=alpha))),
        out, report)
    if inv is None:
        return 3

    n = first.n
    inv_names = _inv_names(n, inv.shape[1] // n)
    names = ("x", "p") if isinstance(first, CanonicalState) else ("b", "a")
    header = ["step"] + [f"{v}{k + 1}" for v in names for k in range(n)] + inv_names
    _write_run_outputs(out, header, [np.concatenate([getattr(s, v) for v in names])
                                     for s in traj], inv, inv_names)
    return 0


def cmd_invariants(args) -> int:
    _validate_system(args)
    state, _, to_ab, alpha, obj = _subject(args)
    with np.errstate(all="ignore"):
        try:
            ab = to_ab(state)
            nodes = lax.spectral_nodes(ab, alpha=alpha)
            inv = lax.spectral_invariants(ab, alpha=alpha, nodes=nodes)
        except (NumericalError, ValueError) as exc:   # ValueError: an entry overflowed
            return _numerical_failure(exc)
    obj.update(state=json.loads(state_to_json(state)), nodes=nodes.tolist(),
               invariants=[float(v) for v in inv])
    _emit(args, _json_report(obj))
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
    alpha = SYSTEMS[args.system].lax_alpha(args.h, args.alpha)
    if alpha is not None:   # the system's Lax pair is relativistic
        L, U = lax.build_LU_rtl(s, alpha, args.lam)
        obj.update(L=L.tolist(), U=U.tolist(), T1=lax.rtl_t1(s, alpha, args.lam).tolist())
    _emit(args, _json_report(obj))
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


def _numerical_failure(exc) -> int:
    print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 3


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
    except OSError as exc:   # a missing file, or a directory given as one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        return _numerical_failure(exc)


if __name__ == "__main__":
    sys.exit(main())
