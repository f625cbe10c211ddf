#!/usr/bin/env python3
"""Self-test of the benchmark: run from the root of a checkout,

    python3 perfbench/selftest.py

It runs every workload at the tiny size, untraced and traced, and checks
that every metric of BENCHMARK.json is reported with its unit; that the
untraced process never loads the span wrappers; that acceptance-sweep
ignores --seed; that the output checks reject a corrupted final state and
a corrupted check record; that `--workload all` covers the four workloads
and the second seed; and that the benchmark refuses to run without the
package sources.  Exit code 0 when all of this holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def run(args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, str(script)] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def check_metrics(result, declared, where):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{where}: metrics {sorted(got)} != declared {sorted(want)}"
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], float) and math.isfinite(v["value"]), (where, name, v)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert result["failed"] == 0 and result["correct"] is True, where


def test_workloads(spec):
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            code, out, err = run(["--workload", w, "--seed", "0", "--seconds", "0",
                                  "--trace", str(trace), "--tiny"])
            where = f"{w} trace={trace}"
            assert code == 0, f"{where}: exit {code}\n{err}"
            result = json.loads(out[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            check_metrics(result, spec["per_layer" if trace else "end_to_end"], where)
            assert any("failed_frac" in line for line in out), where
            if trace:
                assert any(line.startswith("# spans") and line.endswith(": ok")
                           for line in out), where
            else:
                assert "# trace module loaded: False" in out, where
                assert result["metrics"]["setup_s"]["value"] > 0, where
            print(f"ok   {where}")


def test_output_checks():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from oracle import OutputMismatch, check_record, check_simulate_csv
    from todalab import cli, verify

    work = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT)
    try:
        for system in ("dtl", "drtl+", "drtl-"):
            out = f"{work}/{system}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["simulate", "--system", system, "--n", "8", "--boundary",
                                 "periodic", "--seed", "3", "--steps", "20", "--h", "0.05",
                                 "--alpha", "0.3", "--out", out])
            assert code == 0
            path = out + ".trajectory.csv"
            check_simulate_csv(path, system, 3, 8, 20, 0.3)
            lines = Path(path).read_text().splitlines()
            row = lines[-1].split(",")
            row[1] = repr(float(row[1]) * (1.0 + 1e-6))        # corrupt b_1 of the final state
            Path(path).write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
            try:
                check_simulate_csv(path, system, 3, 8, 20, 0.3)
            except OutputMismatch:
                pass
            else:
                raise AssertionError(f"{system}: corrupted final state accepted")
            try:
                check_simulate_csv(path, system, 4, 8, 20, 0.3)
            except OutputMismatch:
                pass
            else:
                raise AssertionError(f"{system}: wrong initial state accepted")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rec = verify.check_isospectral(seed=0, system="dtl", n=6, steps=5)
    check_record(rec, "isospectral-dtl", 1e-8, 5)
    for bad in (dict(rec, max_residual=2e-8, **{"pass": True}), dict(rec, **{"pass": False}),
                dict(rec, tol=1e-6), dict(rec, samples=4)):
        try:
            check_record(bad, "isospectral-dtl", 1e-8, 5)
        except OutputMismatch:
            pass
        else:
            raise AssertionError(f"corrupted record accepted: {bad}")
    print("ok   output checks reject corrupted states and records")


def test_sweep_ignores_seed():
    headroom = []
    for seed in ("0", "2024"):
        code, out, err = run(["--workload", "acceptance-sweep", "--seed", seed, "--seconds", "0",
                              "--trace", "0", "--tiny"])
        assert code == 0, f"acceptance-sweep seed {seed}: exit {code}\n{err}"
        headroom.append(json.loads(out[-1])["metrics"]["headroom_decades"]["value"])
    assert headroom[0] == headroom[1], headroom
    print("ok   acceptance-sweep keeps its inputs at the acceptance seeds")


def test_all(spec):
    code, out, err = run(["--workload", "all", "--seconds", "0", "--tiny"])
    assert code == 0, f"all: exit {code}\n{err}"
    result = json.loads(out[-1])
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            assert f"{w['name']}.{m['name']}" in result["metrics"], (w, m)
    assert sum(line.startswith("## second seed") for line in out) == 2, out
    print("ok   --workload all")


def test_refuses_without_sources():
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out, _ = run(["--workload", "open-isospectral", "--seed", "0", "--seconds", "1",
                            "--trace", "0"], cwd=bare, script=bare / HERE.name / RUN.name)
        assert code != 0 and not out, (code, out)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   refuses to run without the package sources")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_output_checks()
    test_refuses_without_sources()
    test_workloads(spec)
    test_sweep_ignores_seed()
    test_all(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
