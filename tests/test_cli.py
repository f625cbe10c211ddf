import hashlib
import json

import numpy as np
import pytest

from todalab import lax, maps
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


@pytest.mark.parametrize("argv,negative_discriminant,site", [
    # the fixed-point quadratic of the map's ring has no real root
    (("--system", "dtl", "--n", "3", "--seed", "1"), True, None),
    # the chart's chain from its attracting root leaves the leg domain at site 4
    (("--realization", "exp", "--n", "5", "--seed", "0"), False, 4),
], ids=["map", "chart"])
def test_ring_without_a_real_branch_reports_why(tmp_path, argv, negative_discriminant, site):
    assert run(tmp_path, "simulate", *argv, "--boundary", "periodic", "--h", "0.5",
               "--steps", "1", "--out", "x") == 3
    report = json.loads((tmp_path / "x.error.json").read_text())
    assert report["error"] == "NoRealBranch" and report["failing_step"] == 1
    assert report["site"] == site
    if negative_discriminant:
        assert report["discriminant"] < 0.0
    else:
        assert report["discriminant"] is None


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


def test_invariants_of_a_state_without_finite_image_exit_3(tmp_path, capsys):
    (tmp_path / "far.json").write_text(
        '{"n": 3, "boundary": "open", "x": [0, 800, 1600], "p": [0.1, 0.2, 0.3]}\n')
    assert run(tmp_path, "invariants", "--realization", "exp", "--state", "far.json",
               "--out", "i.json") == 3
    assert capsys.readouterr().err == "numerical failure: ValueError: a must be finite\n"
    assert not (tmp_path / "i.json").exists()


# sha256 of the (trajectory, invariants) CSVs of seeded n = 5 runs: step and
# state columns, then the log det(I - w_j M) columns and their drifts
_GOLDEN_SHA256 = [
    ("dtl", "open", 1, 0.1, 40,
     "2506fe1173165340c2fe418fb43c01f0d04d247721a632409bdac4a6afb9a988",
     "c98a567a02f620941ad3752566605e9f5baeb58926078655788848321d42c0cc"),
    ("dtl", "periodic", 2, 0.1, 40,
     "4b879a7422b4fc1296c08dc373fbb2f32265becde94e0376c86bcac9ef17baad",
     "5117fed0520c33e80381b5fc9fe16288d3648660e99fe9eeb50d73d1928d583e"),
    ("drtl+", "open", 3, 0.1, 40,
     "c2b424035061fbf8cf3aa6e0ed7faae7fca4961acd5ad495cc98d20c44cc904a",
     "4f3f5065820520d74c16fb9f38d592355091b4908227800be9a34383cc650468"),
    ("drtl+", "periodic", 4, 0.1, 40,
     "8fbaa891d5b069ddb53c772744eff13759867c30594195e073ac84fce10ddb6f",
     "b4aa8c64cd6af5454a79ed412664c5d6a9d489d42c7e32c80f281af85161c564"),
    ("drtl-", "open", 5, 0.1, 40,
     "b5f441c347e72a6d8bfb5e4ff73e7cb67716e2d97871e74ccf1a819c9c660e59",
     "7e7518a2d095ef3145a0c930d794ceb76f59d14615e08304142d309d6b2ed6de"),
    ("drtl-", "periodic", 6, 0.1, 40,
     "e5afd3a0116b4c01b18d8fe1ebfb621008f8ef04abefabd8a9808cae04999b6d",
     "c05891e38eb6463528fe9ba204767424c31aa294ce389483c07788ccb325c6e8"),
    ("rtl+", "periodic", 7, 0.05, 40,
     "3cc4e6eb77edf864e570cd30a7f9ac9c6212300a9872a949a0232a12b751f03e",
     "a61d1255d2e6b3686ac9fb35d345671808bfec8cd6b5683a5048d8b2a5073dc3"),
    ("rel-exp-add", "open", 8, 0.1, 40,
     "cd4bbca9b0db0001f16717b5fa09dab8b97be39d0f9f2f339f95b6ad65ba1dcc",
     "4bc981f14de0da0d19535a9f7d478fd1d27e21c918177a75d6fce214b610cd98"),
    ("rat-add", "periodic", 9, 0.1, 5,
     "b8d6c368723937063147637801587779b29378a3482f1d8837b205280919ecd6",
     "76fc02698ff5968971ea2fba0025b214c3ee0071b02af0655198fe917eb1c676"),
    ("dual", "periodic", 10, 0.1, 5,
     "47fe39d7a4f2f8c7fb1efec0846bb4e68f12e2062f2f260d40dbe156a887fe33",
     "c6ad900aeafeac4635b41063ac8a81c690a981632d9b90861e1baf599ade356f"),
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


# every invariant is log det(I - w M) at a node the JSON carries, so the
# report alone reproduces it: M = T, or T1 = L U^-1 at lambda 1, 2, 0.5, -1
@pytest.mark.parametrize("system,boundary", [("dtl", "open"), ("drtl+", "periodic")])
def test_invariants_json_recomputes_from_its_nodes(tmp_path, system, boundary):
    assert run(tmp_path, "invariants", "--system", system, "--boundary", boundary,
               "--n", "5", "--seed", "2", "--alpha", "0.3", "--out", "inv.json") == 0
    rec = json.loads((tmp_path / "inv.json").read_text())
    state = FlaschkaState(rec["state"]["a"], rec["state"]["b"], Boundary(boundary))
    lams = (1.0,) if boundary == "open" else lax.DEFAULT_LAMBDAS
    assert np.array(rec["nodes"]).shape == (len(lams), 5)
    want = []
    for lam, nodes in zip(lams, rec["nodes"]):
        M = lax.build_T(state, lam) if system == "dtl" else lax.rtl_t1(state, 0.3, lam)
        want += [np.linalg.slogdet(np.eye(5) - w * M)[1] for w in nodes]
    assert np.max(np.abs(np.array(rec["invariants"]) - want)) < 1e-12


def test_simulate_names_logdet_columns(tmp_path):
    assert run(tmp_path, "simulate", "--system", "dtl", "--boundary", "periodic", "--n", "3",
               "--steps", "1", "--out", "r") == 0
    header = (tmp_path / "r.trajectory.csv").read_text().splitlines()[0].split(",")
    assert header[7:10] == ["logdet1_lam0", "logdet2_lam0", "logdet3_lam0"]
    assert header[-1] == "logdet3_lam3" and len(header) == 7 + 12
    drift = (tmp_path / "r.invariants.csv").read_text().splitlines()[0].split(",")
    assert drift[1] == "drift_logdet1_lam0" and drift[-1] == "drift_max"


def test_spectrum_leaving_the_node_disc_exits_3(tmp_path, monkeypatch, capsys):
    # the third step scales b by 16: that state's spectrum leaves the disc of
    # the nodes of the first state, and det(I - w T) changes sign at a node
    calls = []

    def scaled(s, h):
        calls.append(s)
        out = step(s, h)
        return out.replace(b=16.0 * out.b) if len(calls) == 3 else out

    step = maps.dtl_step
    monkeypatch.setattr(maps, "dtl_step", scaled)
    assert run(tmp_path, "simulate", "--system", "dtl", "--n", "8", "--seed", "3",
               "--steps", "3", "--out", "x") == 3
    report = json.loads((tmp_path / "x.error.json").read_text())
    assert report["error"] == "DomainError" and report["failing_stage"] == "invariants"
    assert "Warning" not in capsys.readouterr().err
    assert not list(tmp_path.glob("x.*.csv"))


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
