import json

import numpy as np
import pytest

from todalab.cli import main
from todalab.core import Boundary, FlaschkaState, save_state


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
])
def test_invalid_input_exits_2_with_error_line(tmp_path, capsys, argv):
    (tmp_path / "malformed.json").write_text('{"n": 3, "boundary": "open", "a": [1, 2\n')
    (tmp_path / "no_boundary.json").write_text('{"n": 2, "a": [1, 0], "b": [0, 0]}\n')
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
