import hashlib
import json

import numpy as np
import pytest

from todalab.cli import main
from todalab.core import Boundary, FlaschkaState, save_state
from todalab.realizations import CATALOG, chart_specs, realization
from todalab.systems import SYSTEMS


def run(tmp_path, *argv):
    import os
    old = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(old)


def test_simulate_writes_trajectory_and_drift(tmp_path):
    rc = run(tmp_path, "simulate", "--system", "dtl", "--n", "6", "--steps", "1000",
             "--h", "0.05", "--seed", "3", "--out", "t")
    assert rc == 0
    lines = (tmp_path / "t.trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("step,b1") and len(lines) == 1002
    drift = (tmp_path / "t.invariants.csv").read_text().splitlines()
    assert drift[0].split(",")[-1] == "drift_max"
    worst = max(float(row.split(",")[-1]) for row in drift[1:])
    assert worst < 1e-8


def test_simulate_is_byte_deterministic(tmp_path):
    args = ("simulate", "--system", "drtl+", "--n", "5", "--steps", "40",
            "--h", "0.05", "--alpha", "0.3", "--seed", "9")
    assert run(tmp_path, *args, "--out", "one") == 0
    assert run(tmp_path, *args, "--out", "two") == 0
    assert (tmp_path / "one.trajectory.csv").read_bytes() == \
        (tmp_path / "two.trajectory.csv").read_bytes()
    assert (tmp_path / "one.invariants.csv").read_bytes() == \
        (tmp_path / "two.invariants.csv").read_bytes()


def test_unknown_system_exits_2_without_files(tmp_path):
    assert run(tmp_path, "simulate", "--system", "nosuch", "--out", "x") == 2
    assert not list(tmp_path.glob("x.*"))


def test_unknown_realization_exits_2(tmp_path):
    assert run(tmp_path, "simulate", "--realization", "nosuch") == 2


@pytest.mark.parametrize("argv", [
    ("simulate", "--n", "1"),
    ("invariants", "--n", "1"),
    ("simulate", "--realization", "exp", "--boundary", "periodic", "--n", "1"),
    ("simulate", "--system", "tl", "--h", "0"),
    ("simulate", "--state", "malformed.json"),
    ("simulate", "--state", "no_boundary.json"),
    ("simulate", "--steps", "-1"),
    ("simulate", "--h", "nan"),
    ("dump-lax", "--lambda", "inf"),
    ("consistency", "--steps", "0"),
    ("verify", "--filter", "nomatch"),
    # a periodic-only chart given an open state file, as with --boundary open
    ("simulate", "--realization", "rat-add", "--state", "open_xp.json", "--steps", "0"),
])
def test_invalid_input_exits_2_with_error_line(tmp_path, capsys, argv):
    (tmp_path / "malformed.json").write_text('{"n": 3, "boundary": "open", "a": [1, 2\n')
    (tmp_path / "no_boundary.json").write_text('{"n": 2, "a": [1, 0], "b": [0, 0]}\n')
    (tmp_path / "open_xp.json").write_text(
        '{"n": 3, "boundary": "open", "x": [0, 1, 2], "p": [0.5, 0.6, 0.7]}\n')
    assert run(tmp_path, *argv, "--out", "x") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.glob("x*"))


def test_numerical_failure_exits_3_with_step_report(tmp_path):
    save_state(FlaschkaState([1.0, 0.0], [-2.0, 1.0], Boundary.OPEN),
               tmp_path / "bad.json")
    rc = run(tmp_path, "simulate", "--system", "dtl", "--h", "0.5",
             "--state", "bad.json", "--steps", "5", "--out", "crash")
    assert rc == 3
    report = json.loads((tmp_path / "crash.error.json").read_text())
    assert report["failed"] and report["failing_step"] == 1
    assert report["error"] == "SingularStep"


_AT_STEP_1 = ("at step 1", {"failing_step": 1})


@pytest.mark.parametrize("argv,key,message,failure", [
    (("--system", "dtl", "--h", "1e300"), ("system", "dtl"), "a must be finite", _AT_STEP_1),
    (("--system", "drtl+", "--alpha", "0", "--h", "0"), ("system", "drtl+"),
     "b must be finite", _AT_STEP_1),
    # every step ran (none here); the chart's initial state has no finite
    # (a, b) image, so the trajectory invariants fail
    (("--realization", "exp", "--state", "far.json", "--steps", "0"),
     ("realization", "exp"), "a must be finite",
     ("in the trajectory invariants", {"failing_stage": "invariants"})),
], ids=["dtl-overflow", "drtl+-h0", "chart-overflow"])
def test_non_finite_state_exits_3_with_step_report(tmp_path, capsys, argv, key, message,
                                                   failure):
    (tmp_path / "far.json").write_text(
        '{"n": 3, "boundary": "open", "x": [0, 800, 1600], "p": [0.1, 0.2, 0.3]}\n')
    assert run(tmp_path, "simulate", *argv, "--out", "x") == 3
    where, failing = failure
    assert capsys.readouterr().err == f"numerical failure {where}: {message}\n"
    report = json.loads((tmp_path / "x.error.json").read_text())
    assert report == {"error": "ValueError", "message": message, key[0]: key[1],
                      "failed": True, **failing}
    assert not list(tmp_path.glob("x.*.csv"))


# sha256 of the (trajectory, invariants) CSVs of seeded n = 5 runs; the
# 40-step ones taken from the writer that formatted one number per call, the
# 5-step chart runs from the states chart_state samples
_GOLDEN_SHA256 = [
    ("dtl", "open", 1, 0.1, 40,
     "f46ecdc53ed3b2026775d4a967bed8d2cd12001244597cbe1a91132a699a1f9a",
     "d8649a8e94013647213163b4a4c23e7198bebc25c04445c509559fd3fceed18a"),
    ("dtl", "periodic", 2, 0.1, 40,
     "72d148dd6cfd09b429ca076b11c9ab7f6e928f6969b7cb66251594343d0a1956",
     "07ccaa31a0c9febf541b5001626c5ad140f54c0376297dbc6814462a562d0a7f"),
    ("drtl+", "open", 3, 0.1, 40,
     "85526dd58fc64b3a99456c40df2bb0a4280adafe412ba561ccbcad2ebb974ae1",
     "45a9f21e0b67d3ce6fd5e494817da65a657f89eaf322c39e0d4302d32c4993bf"),
    ("drtl+", "periodic", 4, 0.1, 40,
     "07f3fe200321666eabc81207489e4c12a6d3f512e5e3eacf500d7d61b67aa1be",
     "97ae5641503cf65936510e66f5ceee698c955783a29437dc5767fb9abfbce043"),
    ("drtl-", "open", 5, 0.1, 40,
     "cb455e341a78e25432f8df0fe693a5353ed8a637385ac46f8f761eb066d3b09c",
     "0f67526526361a5bf097d6493f68e8a291dc909140860912151bf1038fc7259d"),
    ("drtl-", "periodic", 6, 0.1, 40,
     "d2db67fc377ac6df2803824d0278d2c6195e27c0dc0700efb6dfb47ee3953d82",
     "0f22d0b0703921d4f4307d39832e1c4077eb5ee221f80c537600093c0ac5d07e"),
    ("rtl+", "periodic", 7, 0.05, 40,
     "a9444fdc76fc5bf7b46cada557f33591d82bd0e585ff83d06b82da53d126912f",
     "e99dc246ac67ce2e260e624887e0ed48d68fdbe20cf4ed2d6c8cdbc64cdacce4"),
    ("rel-exp-add", "open", 8, 0.1, 40,
     "3114a15a76c72fbfe571aefd8c2e93b685cfde5b1e88d8ecdc774435f59220ef",
     "89bcfc96832f7e6a869d633480081c3ee59d0b339f2f1391a5fe934e6c8568b4"),
    ("rat-add", "periodic", 9, 0.1, 5,
     "5f2479d7d58de636c98550fdca1d3d1f071ea70c13a1ee35146e6f11940511ea",
     "679438245b519774ea4302b03628cba155e06d69274049f8cb7d6934dbbc8864"),
    ("dual", "periodic", 10, 0.1, 5,
     "aedd5a3afb4cedec0c053bb991f1ba956c34db63da05bb25d017e247d5bfaa6a",
     "beb14534e93e2a45f99f897f59b76c2690e481020d3e4184bdb2da8673863593"),
]


@pytest.mark.parametrize("system,boundary,seed,h,steps,traj_sha,inv_sha", _GOLDEN_SHA256,
                         ids=[f"{c[0]}-{c[1]}" for c in _GOLDEN_SHA256])
def test_simulate_outputs_match_golden_sha256(tmp_path, system, boundary, seed, h, steps,
                                              traj_sha, inv_sha):
    kind = "--realization" if system in CATALOG else "--system"
    assert run(tmp_path, "simulate", kind, system, "--boundary", boundary, "--n", "5",
               "--steps", str(steps), "--h", str(h), "--alpha", "0.3", "--seed", str(seed),
               "--out", "g") == 0
    for ext, want in (("trajectory", traj_sha), ("invariants", inv_sha)):
        data = (tmp_path / f"g.{ext}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == want, ext


def test_registry_counts():
    # the sample counts of the chart checks (perfbench/workloads.py relies on them)
    assert len(SYSTEMS) == 8
    assert len(chart_specs(0.1)) == 25
    assert len(CATALOG) == 22


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("system", list(SYSTEMS))
def test_every_system_runs_through_the_cli(tmp_path, system, boundary):
    common = ("--system", system, "--boundary", boundary, "--n", "5")
    assert run(tmp_path, "simulate", *common, "--steps", "3", "--out", "s") == 0
    assert run(tmp_path, "invariants", *common, "--out", "i.json") == 0
    assert run(tmp_path, "dump-lax", *common, "--out", "l.json") == 0
    matrices = json.loads((tmp_path / "l.json").read_text())
    relativistic = SYSTEMS[system].lax_alpha(0.05, 0.3) is not None
    assert set(matrices) == ({"T", "L", "U", "T1"} if relativistic else {"T"})


@pytest.mark.parametrize("name,boundary", [
    (name, boundary) for name in CATALOG
    for boundary in (("open", "periodic") if realization(name, 0.05).supports_open
                     else ("periodic",))])
def test_every_chart_runs_through_the_cli(tmp_path, name, boundary):
    common = ("--realization", name, "--boundary", boundary, "--n", "5")
    assert run(tmp_path, "simulate", *common, "--steps", "3", "--out", "s") == 0
    assert run(tmp_path, "invariants", *common, "--out", "i.json") == 0


def test_config_file_with_flag_override(tmp_path):
    (tmp_path / "cfg.ini").write_text(
        "system = dtl\nn = 4\nsteps = 20\nh = 0.05\nseed = 7\nout = cfgrun\n")
    assert run(tmp_path, "simulate", "--config", "cfg.ini", "--steps", "10") == 0
    rows = (tmp_path / "cfgrun.trajectory.csv").read_text().splitlines()
    assert len(rows) == 12   # header + 11 states: the flag wins over the file


def test_verify_reports_are_deterministic(tmp_path):
    args = ("verify", "--filter", "closure*", "--seed", "5")
    assert run(tmp_path, *args, "--out", "r1.json") == 0
    assert run(tmp_path, *args, "--out", "r2.json") == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    report = json.loads((tmp_path / "r1.json").read_text())
    names = [c["check"] for c in report["checks"]]
    assert names == ["closure-1d", "closure-2d"]
    assert all(set(c) >= {"check", "params", "samples", "max_residual", "pass"}
               for c in report["checks"])


def test_verify_poisson_filter(tmp_path):
    assert run(tmp_path, "verify", "--filter", "poisson*", "--seed", "1",
               "--out", "p.json") == 0
    names = [c["check"] for c in json.loads((tmp_path / "p.json").read_text())["checks"]]
    assert names == ["poisson-maps", "poisson-realizations"]


def test_dump_lax_round_major(tmp_path):
    assert run(tmp_path, "dump-lax", "--system", "dtl", "--n", "3",
               "--seed", "2", "--out", "lax.json") == 0
    T = np.array(json.loads((tmp_path / "lax.json").read_text())["T"])
    assert T.shape == (3, 3)
    assert np.all(np.diag(T, -1) == 1.0)


def test_consistency_subcommand(tmp_path):
    assert run(tmp_path, "consistency", "--h", "0.1", "--alpha", "0.3",
               "--lambda", "0.7", "--steps", "50", "--out", "c.json") == 0
    rec = json.loads((tmp_path / "c.json").read_text())
    assert rec["pass"] and rec["max_discrepancy"] < 1e-9


def test_invariants_subcommand(tmp_path):
    assert run(tmp_path, "invariants", "--system", "dtl", "--n", "4",
               "--seed", "5", "--out", "inv.json") == 0
    rec = json.loads((tmp_path / "inv.json").read_text())
    assert len(rec["invariants"]) == 4
    assert rec["state"]["n"] == 4


def test_simulate_realization_trajectory(tmp_path):
    rc = run(tmp_path, "simulate", "--realization", "rel-exp-add", "--n", "5",
             "--steps", "200", "--h", "0.05", "--alpha", "0.3", "--seed", "2",
             "--out", "chart")
    assert rc == 0
    lines = (tmp_path / "chart.trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("step,x1")
    drift = (tmp_path / "chart.invariants.csv").read_text().splitlines()
    worst = max(float(row.split(",")[-1]) for row in drift[1:])
    assert worst < 1e-9


def test_invariants_realization(tmp_path):
    assert run(tmp_path, "invariants", "--realization", "exp", "--n", "4",
               "--seed", "3", "--h", "0.1", "--out", "ri.json") == 0
    rec = json.loads((tmp_path / "ri.json").read_text())
    assert rec["realization"] == "exp" and len(rec["invariants"]) == 4
