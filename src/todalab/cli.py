"""Command-line front end.

Subcommands:

    simulate     run a map/flow trajectory, write trajectory + drift CSVs
    invariants   print/write the spectral invariants of a seeded state
    verify       run registered property checks, write a JSON report
    dump-lax     write the Lax matrices of a state as row-major JSON
    consistency  Monte-Carlo cube-consistency sweep

A flat INI-style config file (``--config``) may supply any option of its
command; explicit flags win.  All numeric output uses 17 significant digits so
files round-trip exactly; identical config + seed gives byte-identical output.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import re
import sys
from functools import lru_cache, partial

import numpy as np

from . import lax, verify
from .core import (Boundary, CanonicalState, FlaschkaState, load_state, random_state,
                   state_to_json, vectors)
from .errors import NoRealBranch, NumericalError
from .realizations import (CATALOG, canonical_step, chart_stack, chart_state, flaschka_of,
                           realization)
from .systems import SYSTEMS

def _boundary(text: str) -> Boundary:
    try:
        return Boundary(text)
    except ValueError:
        raise SystemExit2(f"unknown boundary {text!r} (use open|periodic)")


class SystemExit2(Exception):
    """Validation failure mapped to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Its parse errors, like every other exit-2 failure, are one `error:` line."""

    def error(self, message):
        raise SystemExit2(message)

    def _get_option_tuples(self, option_string):
        # --help only in full: `verify --h 0` is an unread option, not a help request
        return [t for t in super()._get_option_tuples(option_string) if t[1] != "--help"]


# every option, --<name>: (dest, type, default)
_OPTIONS = {"config": ("config", str, None), "system": ("system", str, "dtl"),
            "realization": ("realization", str, None), "n": ("n", int, 6),
            "boundary": ("boundary", str, "open"), "seed": ("seed", int, 0),
            "h": ("h", float, 0.05), "alpha": ("alpha", float, 0.3),
            "epsilon": ("epsilon", float, 0.2), "beta": ("beta", float, 0.1),
            "lambda": ("lam", float, 1.0), "steps": ("steps", int, 100),
            "out": ("out", str, None), "state": ("state", str, None),
            "filter": ("filter_glob", str, "*")}
_HELP = {"config": "flat INI config file of the command's options; flags override it",
         "state": "JSON state file overriding n/boundary/seed"}
# the options each command reads, and so accepts
_READS = {command: names.split() for command, names in {
    "simulate": "config system realization n boundary seed h alpha epsilon beta steps out state",
    "invariants": "config system realization n boundary seed h alpha epsilon beta out state",
    "verify": "config seed filter out",
    "dump-lax": "config system n boundary seed h alpha lambda out state",
    "consistency": "config h alpha lambda steps seed out",
}.items()}


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The parser, built once per process; its `commands` dict holds the
    subparser of each command."""
    p = _Parser(prog="todalab", description="discrete Toda lattice laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = {}
    for command, names in _READS.items():
        sp = p.commands[command] = sub.add_parser(command)
        for name in names:
            dest, kind, default = _OPTIONS[name]
            sp.add_argument(f"--{name}", dest=dest, type=kind, default=default,
                            help=_HELP.get(name))
    return p


def _read_config(path, command) -> dict:
    """The values of a config file by dest: each key must be an option of the
    command, each value converts with that option's type."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SystemExit2(f"bad config file {path}: {exc}")
    header = "" if text.lstrip().startswith("[") else "[run]\n"
    parser = configparser.ConfigParser()
    try:
        parser.read_string(header + text, source=path)
    except configparser.Error as exc:
        msg = " ".join(str(exc).split())
        if header:   # number the file's own lines, not the header put before them
            msg = re.sub(r"\[line (\d+)\]", lambda m: f"[line {int(m[1]) - 1}]", msg)
        raise SystemExit2(f"bad config file {path}: {msg}")
    if len(parser.sections()) != 1:
        raise SystemExit2(f"config file {path} must hold exactly one section")
    values = {}
    for key, value in parser[parser.sections()[0]].items():
        if key == "config" or key not in _READS[command]:
            raise SystemExit2(f"config file {path}: {key!r} is not an option of {command}")
        dest, kind, _ = _OPTIONS[key]
        try:
            values[dest] = kind(value)
        except ValueError:
            raise SystemExit2(f"config key {key!r}: {value!r} is not a valid {kind.__name__}")
    return values


def _parse(argv):
    """The options of argv over those of its --config file, whose values
    become the command's defaults: argparse lets every flag win, an
    abbreviated one too.  Every float must be finite, the seed >= 0."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        command = parser.commands[args.command]
        values = _read_config(args.config, args.command)
        command.set_defaults(**values)
        try:
            args = parser.parse_args(argv)
        finally:   # the parser outlives this call: give it back its own defaults
            command.set_defaults(**{dest: default for dest, _, default in _OPTIONS.values()
                                    if dest in values})
    for name in _READS[args.command]:
        dest, kind, _ = _OPTIONS[name]
        if kind is float and not math.isfinite(getattr(args, dest)):
            raise SystemExit2(f"--{name} must be finite")
    if args.seed < 0:
        raise SystemExit2("--seed must be >= 0")
    return args


def _lattice_size(args) -> int:
    """--n, at least 2, and small enough that numpy can size the command's
    arrays (n x n matrices for dump-lax) before any is built."""
    if args.n < 2:
        raise SystemExit2("--n must be >= 2")
    extent = args.n * args.n if args.command == "dump-lax" else args.n
    if extent > np.iinfo(np.intp).max // np.dtype(float).itemsize:
        raise SystemExit2(f"--n {args.n} is too large to allocate")
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


def _initial_canonical(args, spec) -> CanonicalState:
    state = _load_state(args.state) if args.state else None
    if state is not None and not isinstance(state, CanonicalState):
        raise SystemExit2("state file must hold (x, p) variables")
    boundary = _boundary(args.boundary) if state is None else state.boundary
    if boundary is Boundary.OPEN and not spec.supports_open:
        raise SystemExit2(f"chart {spec.name} is periodic-only")
    return chart_state(spec, _lattice_size(args), args.seed, boundary) if state is None else state


def _validate_system(system, chart=None):
    if system not in SYSTEMS:
        raise SystemExit2(f"unknown system {system!r}")
    if chart is not None and chart not in CATALOG:
        raise SystemExit2(f"unknown realization {chart!r}")


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
    """JSON text of a report; a float that is not finite is written as a string."""
    obj = json.loads(json.dumps(obj), parse_constant=str)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _inv_names(n, samples):
    """Invariant columns: n nodes for each of the lambda samples."""
    return [f"logdet{j + 1}" + (f"_lam{m}" if samples > 1 else "")
            for m in range(samples) for j in range(n)]


_CSV_BLOCK_ROWS = 128     # rows formatted together, so the writer's memory is flat in rows


def _write_csv(path, header, table):
    """Header, then one line per row of table: its index and 17-digit values.

    The values of a trajectory repeat (its invariants stay within a few
    ulps), so each distinct value of a block of rows is formatted once;
    values are keyed by their bits, which keeps -0.0 apart from 0.0."""
    table = np.asarray(table, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            keys, index = np.unique(block.view(np.int64), return_inverse=True)
            text = np.array([",%.17g" % v for v in keys.view(float).tolist()], dtype=object)
            fh.writelines(f"{i}{''.join(cells)}\n" for i, cells in
                          enumerate(text[index.reshape(block.shape)].tolist(), start))


def _write_run_outputs(out, header, state_rows, inv, inv_names):
    _write_csv(out + ".trajectory.csv", header, np.hstack([state_rows, inv]))
    drift = lax.drift(inv, inv[0])
    _write_csv(out + ".invariants.csv",
               ["step"] + [f"drift_{c}" for c in inv_names] + ["drift_max"],
               np.column_stack([drift, drift.max(axis=1)]))
    print(f"wrote {out}.trajectory.csv and {out}.invariants.csv "
          f"(max drift {drift.max():.3e})")


def _trajectory(step, first, steps, invariants, out, report):
    """The rows of first, step(first), ... as blocks of (B, n) arrays of
    their two vectors (``verify.trajectory_blocks``), and ``invariants`` of
    the blocks.

    A numerical failure, or a state that fails validation (a ValueError: an
    entry overflowed or became NaN), writes <out>.error.json naming the failing
    step, or ``"failing_stage": "invariants"``, and one stderr line (numpy's
    floating-point warnings are off) and gives None."""
    blocks = [tuple(v[None] for v in vectors(first))]
    with np.errstate(all="ignore"):
        try:
            for block in verify.trajectory_blocks(step, first, steps):
                blocks.append(block)
        except (NumericalError, ValueError) as exc:
            done = sum(len(u) for u, _ in blocks)
            _report_failure(out, report, exc, f"at step {done}", failing_step=done)
            return None
        try:
            return blocks, invariants(blocks)
        except (NumericalError, ValueError) as exc:
            _report_failure(out, report, exc, "in the trajectory invariants",
                            failing_stage="invariants")
            return None


def _report_failure(out, report, exc, where, **failing):
    if isinstance(exc, NoRealBranch):
        failing.update(discriminant=exc.discriminant, site=exc.site)
    report = dict(report, error=type(exc).__name__, message=str(exc), failed=True, **failing)
    _write(out + ".error.json", _json_report(report))
    print(f"numerical failure {where}: {exc}", file=sys.stderr)


def _subject(args):
    """What a run starts from and steps: the --realization chart if one is
    given, else the --system.  Returns the first state, the step, the chart
    (None for a system), the alpha of the conserved Lax pair and the report key."""
    if args.realization is None:
        row = SYSTEMS[args.system]
        return (_initial_state(args), row.stepper(args.h, args.alpha), None,
                row.lax_alpha(args.h, args.alpha), {"system": args.system})
    try:
        spec = realization(args.realization, args.h, alpha=args.alpha,
                           epsilon=args.epsilon, beta=args.beta)
    except ValueError as exc:   # a parameter the chart divides by is 0
        raise SystemExit2(str(exc))
    return (_initial_canonical(args, spec), partial(canonical_step, spec), spec,
            spec.system.lax_alpha(spec.h, spec.alpha), {"realization": spec.name})


def _invariants(spec, first, alpha, blocks):
    """The invariants of the rows of the blocks at the nodes of the first
    state; a chart's rows are charted to (a, b) a block at a time."""
    nodes = lax.spectral_nodes(first if spec is None else flaschka_of(spec, first), alpha)
    return np.concatenate([lax.spectral_invariants_stacked(
        *(block if spec is None else chart_stack(spec, *block, first.boundary)),
        first.boundary, nodes, alpha) for block in blocks])


def cmd_simulate(args) -> int:
    _validate_system(args.system, args.realization)
    if args.steps < 0:
        raise SystemExit2("--steps must be >= 0")
    if args.h == 0.0 and (args.realization or SYSTEMS[args.system].flow):
        kind = "chart" if args.realization else "flow"   # every chart leg divides by h
        raise SystemExit2(f"--h must be nonzero for a {kind}")
    first, step, spec, alpha, report = _subject(args)
    out = args.out or "run"
    run = _trajectory(step, first, args.steps, partial(_invariants, spec, first, alpha),
                      out, report)
    if run is None:
        return 3
    blocks, inv = run
    rows = [np.concatenate(part) for part in zip(*blocks)]
    n = first.n
    inv_names = _inv_names(n, inv.shape[1] // n)
    names = ("x", "p") if spec else ("b", "a")
    header = ["step"] + [f"{c}{k + 1}" for c in names for k in range(n)] + inv_names
    _write_run_outputs(out, header, np.hstack(rows if spec else rows[::-1]), inv, inv_names)
    return 0


def cmd_invariants(args) -> int:
    _validate_system(args.system, args.realization)
    state, _, spec, alpha, obj = _subject(args)
    with np.errstate(all="ignore"):
        try:
            ab = state if spec is None else flaschka_of(spec, state)
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
    text = _json_report({"seed": args.seed, "filter": args.filter_glob, "checks": records})
    if args.out:
        _write(args.out, text)
    for rec in records:
        print(f"{'PASS' if rec['pass'] else 'FAIL'} {rec['check']}: "
              f"max_residual={rec['max_residual']:.3e} tol={rec['tol']:.1e}")
    return 0 if all(r["pass"] for r in records) else 3


def cmd_dump_lax(args) -> int:
    _validate_system(args.system)
    s = _initial_state(args)
    if args.lam == 0.0 and s.boundary is Boundary.PERIODIC:
        raise SystemExit2("lambda must be nonzero on a ring")
    with np.errstate(all="ignore"):   # an entry that overflows is reported below
        mats = {"T": lax.build_T(s, args.lam)}
        alpha = SYSTEMS[args.system].lax_alpha(args.h, args.alpha)
        if alpha is not None:   # the system's Lax pair is relativistic
            L, U = lax.build_LU_rtl(s, alpha, args.lam)
            mats.update(L=L, U=U, T1=lax.rtl_t1(s, alpha, args.lam))
    for name, m in mats.items():
        if not np.isfinite(m).all():   # JSON has no inf or NaN
            raise NumericalError(f"the Lax matrix {name} has an entry that is not finite")
    _emit(args, _json_report({name: m.tolist() for name, m in mats.items()}))
    return 0


def cmd_consistency(args) -> int:
    if args.steps < 1:
        raise SystemExit2("--steps (the number of sampled cubes) must be >= 1")
    with np.errstate(all="ignore"):   # an overflowing cube fails with a NaN discrepancy
        rec = verify.check_3d_consistency(seed=args.seed, h=args.h, alpha=args.alpha,
                                          lam=args.lam, n_samples=args.steps)
    obj = {"check": rec["check"], "h": args.h, "alpha": args.alpha, "lambda": args.lam,
           "samples": rec["samples"], "max_discrepancy": rec["max_residual"],
           "pass": rec["pass"]}
    text = _json_report(obj)
    if args.out:
        _write(args.out, text)
    sys.stdout.write(text)
    return 0 if obj["pass"] else 3


def _numerical_failure(exc) -> int:
    print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 3


_COMMANDS = {"simulate": cmd_simulate, "invariants": cmd_invariants, "verify": cmd_verify,
             "dump-lax": cmd_dump_lax, "consistency": cmd_consistency}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        return _COMMANDS[args.command](args)
    # OSError: a missing file, or a directory; MemoryError: a lattice too large to allocate
    except (SystemExit2, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        return _numerical_failure(exc)


if __name__ == "__main__":
    sys.exit(main())
