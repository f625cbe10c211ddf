#!/usr/bin/env python3
"""todalab benchmark: four workloads through the package's public entry points.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload open-isospectral --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

Each workload runs in one process, closed loop, one operation in flight.
`--trace 0` reports the end-to-end metrics; `--trace 1` measures untraced
for half the time, then installs the span wrappers of spans.py and reports
the per-layer metrics.  `--workload all` runs every workload in its own
process, then ring-simulate and acceptance-sweep once on a second seed.
acceptance-sweep keeps its inputs at the acceptance seeds whatever --seed
is; only --sweep-seed moves them (workloads.acceptance_sweep says why).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
operation passed its output check.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads: with one operation in flight on a
# shared two-core host, a second BLAS thread measures the scheduler (n = 128
# eigenvalue steps ran 5x slower and far noisier with two threads while
# another process used the other core).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("open-isospectral", "ring-simulate", "acceptance-sweep", "large-lattice")
SETUP_PROBES = 5
SECOND_SEED_OFFSET = 1000
SECOND_SEED_WORKLOADS = ("ring-simulate", "acceptance-sweep")
# span consistency: traced wall time not covered by spans or loop time may
# be this share of it, plus the root wrapper's bookkeeping per operation,
# which the loop times but no span covers
SPAN_TOLERANCE = 1e-3
ROOT_GAP_S = 50e-6

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("steps_per_s", "steps/s"),
              ("peak_rss_mb", "MiB"), ("headroom_decades", "log10"))

_FULL = ("calls", "self_s", "p50_us", "p99_us")
_COUNT = ("calls", "self_s")
_SELF = ("self_s",)
LAYER_STATS = (
    ("core.state_init", _COUNT), ("core.shifted", _COUNT), ("core.other", _SELF),
    ("maps.step", _FULL), ("maps.factors_open", _FULL), ("maps.factors_ring", _FULL),
    ("maps.other", _SELF),
    ("lax.invariants", _FULL), ("lax.build", _COUNT), ("lax.exact_solution", _SELF),
    ("lax.monodromy", _SELF), ("lax.other", _SELF),
    ("realizations.step_open", _COUNT), ("realizations.step_ring", _FULL),
    ("realizations.chart", _COUNT), ("realizations.fd", _SELF), ("realizations.other", _SELF),
    ("pluri.chain_step", _COUNT), ("pluri.forms", _SELF), ("pluri.cube", _SELF),
    ("pluri.other", _SELF),
    ("poisson.fd_jacobian", _COUNT), ("poisson.bracket", _COUNT), ("poisson.residual", _SELF),
    ("poisson.other", _SELF),
    ("flows.rk4", _COUNT), ("flows.other", _SELF),
    ("verify", _SELF), ("cli", _SELF),
)
_STAT_UNIT = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us"}
PER_LAYER = tuple(
    [(f"{layer}.{stat}", _STAT_UNIT[stat]) for layer, stats in LAYER_STATS for stat in stats]
    + [("core.state_init.per_step", "calls/step"), ("lax.invariants.per_step", "calls/step"),
       ("maps.failed", "count"), ("realizations.failed", "count"),
       ("poisson.maps_per_jacobian", "steps/call"), ("cli.bytes_written", "B")]
    + [(f"verify.criterion_{k}_s", "s") for k in range(2, 11)]
    + [("bench.self_s", "s"), ("trace.wall_s", "s"), ("trace.unaccounted_frac", "ratio"),
       ("trace_overhead_frac", "ratio")])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measuring time; at least one whole pass always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sweep-seed", type=int, default=0,
                   help="acceptance-sweep only: added to the acceptance seeds (default 0)")
    p.add_argument("--tiny", action="store_true",
                   help="shrink every operation to a few steps (self-test size)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Measurement:
    durations: dict             # op name -> seconds of each passing run
    outcomes: dict              # op name -> (max_residual, tol) of its first pass
    attempted: int
    failed: int
    passes: float
    elapsed: float              # whole loop, seconds
    op_time: float              # inside op.run, seconds

    def wall_s(self):
        """One pass of the fixed work: each operation's mean time, summed.

        The mean spreads the host's slow and fast spells over the whole
        run; over six to eight back-to-back 15-20 s runs it spread 0.02-0.09
        of its median, the sum of per-operation medians 0.08-0.12.
        """
        return sum(statistics.fmean(d) for d in self.durations.values() if d)


def measure(ops, seconds, whole_passes=False) -> Measurement:
    """Run the operations round robin for at least `seconds` and one pass.

    An operation fails if it raises or its result fails the benchmark's own
    check; the failure is counted and reported, and the loop goes on.
    """
    durations = {op.name: [] for op in ops}
    outcomes = {}
    reported = set()
    attempted = failed = 0
    op_time = 0.0
    start = time.perf_counter()
    while True:
        op = ops[attempted % len(ops)]
        attempted += 1
        seconds_taken, outcome, error = _attempt(op)
        if error is None:
            durations[op.name].append(seconds_taken)
            outcomes.setdefault(op.name, outcome)
        else:
            failed += 1
            if op.name not in reported:
                reported.add(op.name)
                print(f"operation {op.name} failed:\n{error}", file=sys.stderr)
        op_time += seconds_taken
        elapsed = time.perf_counter() - start
        if (attempted >= len(ops) and elapsed >= seconds
                and (not whole_passes or attempted % len(ops) == 0)):
            return Measurement(durations, outcomes, attempted, failed,
                               attempted / len(ops), elapsed, op_time)


def _attempt(op):
    """Time op.run, then check its result; return (seconds, outcome, error)."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception:           # one failing operation must not stop the run
        return time.perf_counter() - t0, None, traceback.format_exc()
    seconds = time.perf_counter() - t0
    try:
        return seconds, op.check(result), None
    except Exception:
        return seconds, None, traceback.format_exc()


def headroom(outcomes) -> list:
    """log10(tol / max_residual) of each check with a positive tolerance."""
    return [math.log10(tol / max(res, 1e-300)) for res, tol in outcomes.values()
            if tol is not None and tol > 0]


def headroom_decades(outcomes) -> float:
    """Median headroom over the operations.

    The smallest value, printed beside it, rests on the one worst seeded
    state: over ten to twenty random workload seeds it spread 0.10-0.14 of
    its median (0.25 over five), the median 0.02-0.08.
    """
    vals = headroom(outcomes)
    return statistics.median(vals) if vals else 0.0


def setup(name, seed, workdir, tiny, sweep_seed):
    """Import todalab, build the inputs, warm up; return the operations."""
    import workloads

    ops = workloads.build(name, seed, workdir, tiny, sweep_seed)
    for op in workloads.build(name, seed, workdir, True, sweep_seed):
        try:
            op.check(op.run())
        except Exception:
            print(f"warm-up of {op.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
    return ops


def measure_setup(args) -> list:
    """Seconds from starting a fresh interpreter to a warmed-up workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--sweep-seed", str(args.sweep_seed),
           "--setup-probe"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with {proc.returncode}")
        times.append(t1 - t0)
    return times


def end_to_end(ops, m: Measurement, setup_times) -> dict:
    wall = m.wall_s()
    steps = sum(op.steps for op in ops)
    return {"setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "steps_per_s": steps / wall if wall > 0 else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "headroom_decades": headroom_decades(m.outcomes)}


def per_layer(ops, untraced: Measurement, traced: Measurement, summary) -> dict:
    lay = summary["layers"]
    out = {f"{layer}.{stat}": lay[layer][stat] for layer, stats in LAYER_STATS
           for stat in stats}
    steps = lay["maps.step"]["calls"]
    out["core.state_init.per_step"] = lay["core.state_init"]["calls"] / steps if steps else 0.0
    out["lax.invariants.per_step"] = lay["lax.invariants"]["calls"] / steps if steps else 0.0
    out["maps.failed"] = summary["failed"]["maps"] / traced.passes
    out["realizations.failed"] = summary["failed"]["realizations"] / traced.passes
    jac = lay["poisson.fd_jacobian"]["calls"]
    out["poisson.maps_per_jacobian"] = summary["maps_in_fd"] / jac if jac else 0.0
    out["cli.bytes_written"] = summary["bytes_written"]
    for k in range(2, 11):
        out[f"verify.criterion_{k}_s"] = sum(
            statistics.median(traced.durations[op.name]) for op in ops
            if op.criterion == k and traced.durations[op.name])
    loop = traced.elapsed - traced.op_time
    out["bench.self_s"] = lay["bench.op"]["self_s"] + loop / traced.passes
    out["trace.wall_s"] = traced.elapsed / traced.passes
    out["trace.unaccounted_frac"] = (traced.elapsed - summary["self_total_s"] - loop) / traced.elapsed
    base = untraced.wall_s()
    out["trace_overhead_frac"] = traced.wall_s() / base - 1.0 if base > 0 else 0.0
    return out


def run_one(args) -> int:
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        ops = setup(args.workload, args.seed, workdir, args.tiny, args.sweep_seed)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        print(f"# perfbench workload={args.workload} seed={args.seed} "
              f"sweep_seed={args.sweep_seed} "
              f"seconds={args.seconds:g} trace={args.trace}{' tiny' if args.tiny else ''}")
        print("# env " + json.dumps(environment(), sort_keys=True))
        if args.trace:
            untraced = measure(ops, args.seconds / 2)
            import spans        # only the traced process loads the wrappers

            tracer = spans.Tracer()
            tracer.install()
            traced_ops = [dataclasses.replace(op, run=tracer.wrap(op.run, spans.BENCH_OP))
                          for op in ops]
            traced = measure(traced_ops, args.seconds / 2, whole_passes=True)
            summary = tracer.summary(traced.passes)
            values = per_layer(ops, untraced, traced, summary)
            units = dict(PER_LAYER)
            runs = (untraced, traced)
            allowed = SPAN_TOLERANCE + ROOT_GAP_S * traced.attempted / traced.elapsed
            consistent = abs(values["trace.unaccounted_frac"]) <= allowed
            print(f"# spans {summary['spans']}, unaccounted "
                  f"{values['trace.unaccounted_frac']:.2e} of traced wall time "
                  f"(tolerance {allowed:.2e}): {'ok' if consistent else 'FAILED'}")
        else:
            setup_times = measure_setup(args)
            m = measure(ops, args.seconds)
            values = end_to_end(ops, m, setup_times)
            units = dict(END_TO_END)
            runs = (m,)
            consistent = True
            print(f"# setup probes {' '.join(f'{t:.3f}' for t in setup_times)} s")
            print(f"# headroom smallest {min(headroom(m.outcomes), default=0.0):.4f} "
                  f"decades over {len(headroom(m.outcomes))} checks")
            print(f"# trace module loaded: {'spans' in sys.modules}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    passes = " + ".join(f"{r.passes:.2f}" for r in runs)
    print(f"# {attempted} operations in {passes} passes of {len(ops)}; "
          f"failed_frac {failed / attempted:g} ({failed} of {attempted} operations)")
    for op in ops:
        d = runs[-1].durations[op.name]
        stats = f"mean {statistics.fmean(d):.4f} s  median {statistics.median(d):.4f} s" \
            if d else "-"
        print(f"# op {op.name:40s} runs {len(d):3d}  {stats}")
    for name, unit in units.items():
        print(f"{name:34s} {values[name]:>16.6g} {unit}")
    correct = failed == 0 and consistent
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": float(values[name]), "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload, plus the second seed
# ---------------------------------------------------------------------------

def run_child(args, workload, seed, seconds, sweep_seed=0):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--sweep-seed", str(sweep_seed), "--seconds", repr(seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, lines, result


def run_all(args) -> int:
    ok = True
    attempted = failed = 0
    metrics = {}
    for w in WORKLOADS:
        code, lines, result = run_child(args, w, args.seed, args.seconds, args.sweep_seed)
        print(f"## {w}")
        print("\n".join(lines[:-1]))
        if result is None:
            ok = False
            print(f"## {w}: no result (exit code {code})")
            continue
        ok = ok and code == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{w}.{k}": v for k, v in result["metrics"].items()})
    second = args.seed + SECOND_SEED_OFFSET
    for w in SECOND_SEED_WORKLOADS:
        # the second seed moves the sweep's states too: that is where its
        # seed-dependent failures show
        code, _, result = run_child(args, w, second, 0.0, sweep_seed=second)
        if result is None:
            print(f"## second seed {second}, {w}: no result (exit code {code})")
        else:
            print(f"## second seed {second}, {w}: failed_frac "
                  f"{result['failed'] / result['attempted']:g} "
                  f"({result['failed']} of {result['attempted']} operations, one pass)")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _blas_threads():
    import ctypes
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") \
        or "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name, "blas_threads": _blas_threads(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_commit": _git_commit()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "todalab" / "__init__.py").is_file():
        print(f"error: no todalab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
