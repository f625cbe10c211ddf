import contextlib
import hashlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from todalab import lax, maps
from todalab.cli import (_CSV_BLOCK_ROWS, _OPTIONS, _READS, _build_parser, _json_report,
                         _write_csv, main)
from todalab.core import Boundary, FlaschkaState, random_state, save_state
from todalab.realizations import CATALOG, chart_specs, realization
from todalab.systems import SYSTEMS


def run(tmp_path, *argv):
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
    # state files of the wrong variables for the run, or whose n is not their length
    ("simulate", "--system", "dtl", "--state", "open_xp.json", "--steps", "0"),
    ("simulate", "--realization", "exp", "--state", "ring_ab.json", "--steps", "0"),
    ("simulate", "--state", "wrong_n.json", "--steps", "0"),
    # lattices numpy cannot allocate: 10**18 sites exceed any address space, and
    # 2**62 exceed numpy's size limit; both fail before any memory is taken
    ("simulate", "--steps", "1", "--n", "1000000000000000000"),
    ("invariants", "--realization", "exp", "--n", "1000000000000000000"),
    ("dump-lax", "--n", "1000000000000000000"),
    ("simulate", "--steps", "1", "--n", "4611686018427387904"),
    ("invariants", "--realization", "exp", "--n", "4611686018427387904"),
    ("dump-lax", "--n", "4611686018427387904"),
    # chart parameters the chart's legs or body divide by
    ("simulate", "--realization", "mod-exp-eps", "--epsilon", "0"),
    ("simulate", "--realization", "rel-exp-gen", "--epsilon", "0"),
    ("simulate", "--realization", "ruijsenaars", "--alpha", "0"),
    ("simulate", "--realization", "explicit-e", "--beta", "0"),
    ("simulate", "--realization", "hyp-mult", "--beta", "0"),
    ("simulate", "--realization", "rel-hyp-mult", "--beta", "-0.0"),
    ("invariants", "--realization", "rel-hyp-mult", "--beta", "0"),
])
def test_invalid_input_exits_2_with_error_line(tmp_path, capsys, argv):
    (tmp_path / "malformed.json").write_text('{"n": 3, "boundary": "open", "a": [1, 2\n')
    (tmp_path / "no_boundary.json").write_text('{"n": 2, "a": [1, 0], "b": [0, 0]}\n')
    (tmp_path / "open_xp.json").write_text(
        '{"n": 3, "boundary": "open", "x": [0, 1, 2], "p": [0.5, 0.6, 0.7]}\n')
    (tmp_path / "ring_ab.json").write_text(
        '{"n": 3, "boundary": "periodic", "a": [1, 1, 1], "b": [0, 0, 0]}\n')
    (tmp_path / "wrong_n.json").write_text(
        '{"n": 4, "boundary": "periodic", "a": [1, 1], "b": [0, 0]}\n')
    assert run(tmp_path, *argv, "--out", "x") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.glob("x*"))


def _step_failure_report(tmp_path, out, step):
    """The error report of a run that failed at `step`; it wrote no CSV."""
    assert not (tmp_path / f"{out}.trajectory.csv").exists()
    assert not (tmp_path / f"{out}.invariants.csv").exists()
    report = json.loads((tmp_path / f"{out}.error.json").read_text())
    assert report["failed"] and report["failing_step"] == step
    assert "failing_stage" not in report
    return report


def test_numerical_failure_exits_3_with_step_report(tmp_path):
    save_state(FlaschkaState([1.0, 0.0], [-2.0, 1.0], Boundary.OPEN),
               tmp_path / "bad.json")
    rc = run(tmp_path, "simulate", "--system", "dtl", "--h", "0.5",
             "--state", "bad.json", "--steps", "5", "--out", "crash")
    assert rc == 3
    report = _step_failure_report(tmp_path, "crash", 1)
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
    report = _step_failure_report(tmp_path, "x", 1)
    assert report["error"] == "NoRealBranch"
    assert report["site"] == site
    if negative_discriminant:
        assert report["discriminant"] < 0.0
    else:
        assert report["discriminant"] is None


def test_chart_ring_the_solver_gives_up_on_reports_a_typed_error(tmp_path):
    # every pass of the hyperbolic chart's ring chain leaves the leg domain at step 8
    assert run(tmp_path, "simulate", "--realization", "hyp-mult", "--boundary", "periodic",
               "--seed", "0", "--out", "x") == 3
    report = _step_failure_report(tmp_path, "x", 8)
    assert report["error"] == "SolveFailed"
    assert report["message"].startswith("ring solver gave up: a pass leaves a leg domain")
    assert "Newton" not in report["message"]


def test_chart_ring_whose_closure_holds_but_residual_fails_names_the_residual(tmp_path):
    # at step 78 the last closure correction closes the ring, but the step
    # equation holds only to 6.5e-12 against the tolerance 3.8e-12
    assert run(tmp_path, "simulate", "--realization", "rel-rat-mult", "--boundary",
               "periodic", "--seed", "6", "--out", "x") == 3
    report = _step_failure_report(tmp_path, "x", 78)
    assert report["error"] == "SolveFailed"
    assert report["message"] == ("ring step residual 6.5e-12 stays above its tolerance "
                                 "3.8e-12 although the ring closes")


def test_map_step_failing_its_identity_check_reports_the_step(tmp_path, capsys):
    # the drtl- ring of the failing-step cases: twelve steps pass their checks
    # as one block, the thirteenth fails the cm identity and is rerun alone
    assert run(tmp_path, "simulate", "--system", "drtl-", "--boundary", "periodic", "--n", "6",
               "--h", "0.3", "--alpha", "0.7", "--seed", "0", "--steps", "30", "--out", "x") == 3
    report = _step_failure_report(tmp_path, "x", 13)
    assert report["error"] == "NumericalError"
    assert report["message"] == "the two expressions for cm disagree"
    assert capsys.readouterr().err == ("numerical failure at step 13: "
                                       "the two expressions for cm disagree\n")


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


# the rows of a run stream as blocks: the states it builds do not grow with
# its steps (the first state, and the chart image that sets the nodes)
@pytest.mark.parametrize("subject", [("--system", "dtl"), ("--realization", "exp")])
def test_simulate_builds_no_state_per_step(tmp_path, monkeypatch, subject):
    counts = []
    init = FlaschkaState.__init__

    def counted(self, *args):
        counts[-1] += 1
        init(self, *args)

    monkeypatch.setattr(FlaschkaState, "__init__", counted)
    for steps in ("5", "500"):
        counts.append(0)
        assert run(tmp_path, "simulate", *subject, "--boundary", "periodic", "--n", "8",
                   "--steps", steps, "--out", "c") == 0
    assert counts[0] == counts[1] <= 2


def test_invariants_of_a_state_without_finite_image_exit_3(tmp_path, capsys):
    (tmp_path / "far.json").write_text(
        '{"n": 3, "boundary": "open", "x": [0, 800, 1600], "p": [0.1, 0.2, 0.3]}\n')
    assert run(tmp_path, "invariants", "--realization", "exp", "--state", "far.json",
               "--out", "i.json") == 3
    assert capsys.readouterr().err == "numerical failure: ValueError: a must be finite\n"
    assert not (tmp_path / "i.json").exists()


# sha256 of the (trajectory, invariants) CSVs of seeded runs: step and state
# columns, then the log det(I - w_j M) columns and their drifts; the n = 5 rows
# taken after odd n moved to n + 1 Chebyshev nodes less one and chart rings to
# the closure solve (the state columns of every row but the rat-add and dual
# rings are byte-identical to those of the previous hashes); the n = 8 rings of
# 500 steps, the runs the benchmark times, span several blocks of CSV rows
_GOLDEN_SHA256 = [
    ("dtl", "open", 5, 1, 0.1, 40,
     "78bffcaa447d01c6e5af8d8b36077e76e92cd90fb885a9e630eb28c68666c6e2",
     "0c69315331a79ee4a8e049341425c5f2c8b0e18e05b54b50616760ea2dd4aabb"),
    ("dtl", "periodic", 5, 2, 0.1, 40,
     "34073ce274f418868b635e37e598689aa803dd8fbc4ffa7929d803f0bf84d42f",
     "9f0c3ea42795173085b18972509d5ded439f3774ca3e338f722e3cff025ecc1a"),
    ("drtl+", "open", 5, 3, 0.1, 40,
     "46799bf85e866b80900e91d0a69c2fc3fac77c6cd7568a7ddf6a7d0c8e6b246b",
     "045d51b8a3de060c76617db39ef7dcc43127ea7205cc04011446bf161a3a120e"),
    ("drtl+", "periodic", 5, 4, 0.1, 40,
     "9fa0301b645007426d23b32afc23bf5eba56d953d4d86a61f19f6615f9664c98",
     "4c4c0053507ed653cdf034c90f28c764b8945f986e331beefe1617bf383b2de0"),
    ("drtl-", "open", 5, 5, 0.1, 40,
     "33833231a35bfea173c11f22233d8fb7ad837a08256ea226a3a0cf184b124445",
     "0143b2b11ff063509f9ca711bae4a9c02de9a4c2656ddf201f3b2955a9e57d3e"),
    ("drtl-", "periodic", 5, 6, 0.1, 40,
     "ad12902d5d4ab6f6554095fb1c065f5ddad3c63a3e3fd39311bbe518064a9ca5",
     "7f23f3b02483e1eaadc51f4e13d0831ad8f71f55312083cf41e2ff65576970d4"),
    ("rtl+", "periodic", 5, 7, 0.05, 40,
     "d7e637547e93678d341e4a03ca44822558ddc7a1d97983cfe9136b78ac654b3e",
     "720aa113538ecf70cdacacf76ee50022c5584501c50ab40252681d2fc296b194"),
    ("rel-exp-add", "open", 5, 8, 0.1, 40,
     "3b937e7b7a34b85670437faa53851f54e4f8621156b1e9502335078812649717",
     "77c950a457bd0be6ea007dd5036635899e1e72b61da95fbd7fe93bc88e66601d"),
    ("rat-add", "periodic", 5, 9, 0.1, 5,
     "ce7d7bdf50e62745fd0ec8135afa93d796791ed34db670fefeb355dbc51ce83d",
     "441bce09314a309293839a142d9942cfbfa23ef3a3d12d3a0397dfccd3119fd2"),
    ("dual", "periodic", 5, 10, 0.1, 5,
     "241b10dae455e24b356931117f55c34a9d6685e8110dbe7df4ae9c6d482b0ec4",
     "73f208a301cb97ba01b7a7a14f0e2ccaadce331a691d47dcc9ec5a14ac90c019"),
    ("dtl", "periodic", 8, 0, 0.05, 500,
     "ab03a3321286c39cf4ab488eba283904d5ee2dc7ef348de1d8556a967664b3fd",
     "ba43203769470732ecd73c56b950999e953b4de4aeddde65a4b7c6e51e4a21f2"),
    ("drtl+", "periodic", 8, 0, 0.05, 500,
     "e8ea39de04c274edb98dfda460a8056a4636ecc52e9423aa9bfe2e9f858fadf1",
     "550f9cbbda15133054a1ce4193505e79e0005229067d280d7f1021970d5ea8f2"),
    ("drtl-", "periodic", 8, 0, 0.05, 500,
     "c62f8a9ab1b88b4ef7876be0472b895b986a79643af34dce790b5af261fc21c0",
     "9eb33786ee36c1fcd8b72c5c1b5d23760f30630b634ea3828814c2667ce1319e"),
]


@pytest.mark.parametrize("system,boundary,n,seed,h,steps,traj_sha,inv_sha", _GOLDEN_SHA256,
                         ids=[f"{c[0]}-{c[1]}" + (f"-n{c[2]}" if c[2] != 5 else "")
                              for c in _GOLDEN_SHA256])
def test_simulate_outputs_match_golden_sha256(tmp_path, system, boundary, n, seed, h, steps,
                                              traj_sha, inv_sha):
    kind = "--realization" if system in CATALOG else "--system"
    assert run(tmp_path, "simulate", kind, system, "--boundary", boundary, "--n", str(n),
               "--steps", str(steps), "--h", str(h), "--alpha", "0.3", "--seed", str(seed),
               "--out", "g") == 0
    for ext, want in (("trajectory", traj_sha), ("invariants", inv_sha)):
        data = (tmp_path / f"g.{ext}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == want, ext


def _reference_csv(header, table):
    """The CSV writer's bytes as one %-format call per row."""
    line = "%d" + ",%.17g" * table.shape[1] + "\n"
    return (",".join(header) + "\n"
            + "".join(line % (i, *row.tolist()) for i, row in enumerate(table))).encode()


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e308, -1e308, 1.0, -3.0, 2.0 ** 53,
                1e16, 0.1, 1.1102230246251565e-16]


@st.composite
def _tables(draw):
    """Tables of values drawn from a small pool, so that values repeat, with
    row counts on both sides of the writer's block boundaries."""
    pool = draw(st.lists(st.floats() | st.sampled_from(_EDGE_FLOATS), min_size=1, max_size=10))
    rows = draw(st.sampled_from([1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1,
                                 2 * _CSV_BLOCK_ROWS + 3]) | st.integers(1, 3 * _CSV_BLOCK_ROWS))
    picks = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return np.array(pool)[picks.integers(0, len(pool), (rows, draw(st.integers(1, 5))))]


def _written(header, table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "t.csv")
        _write_csv(str(path), header, table)
        return path.read_bytes()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_tables())
def test_csv_writer_matches_one_format_call_per_row(table):
    header = ["step"] + [f"c{j}" for j in range(table.shape[1])]
    assert _written(header, table) == _reference_csv(header, table)


# -0.0 and 0.0 are one key of a float dict; the writer keeps them apart
def test_csv_writer_keeps_the_sign_of_zero_across_blocks():
    rows = 2 * _CSV_BLOCK_ROWS + 1
    table = np.zeros((rows, 2))
    table[1::2, 0] = -0.0
    table[:, 1] = np.where(np.arange(rows) % 3 == 0, 5e-324, -1e308)
    written = _written(["step", "z", "w"], table)
    assert written == _reference_csv(["step", "z", "w"], table)
    assert written.count(b",-0,") == rows // 2 and written.count(b",0,") == rows - rows // 2


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


def test_config_defaults_do_not_outlive_their_call(tmp_path):
    """The parser is built once per process; the defaults a config file sets
    hold for its own call only."""
    (tmp_path / "cfg.ini").write_text("steps = 3\n")
    assert run(tmp_path, "simulate", "--config", "cfg.ini", "--n", "4", "--out", "cfg") == 0
    assert run(tmp_path, "simulate", "--n", "4", "--out", "plain") == 0
    rows = [len((tmp_path / f"{out}.trajectory.csv").read_text().splitlines())
            for out in ("cfg", "plain")]
    assert rows == [5, 102]   # header + 4 states, then header + the default 101


# the config file's own line that a parse error reports
_BAD_CONFIG_LINE = {b"n 4\n": 1, b"n = 4\nn = 5\n": 2, b"n = 4\nsteps 3\n": 2,
                    b"[run]\nn 4\n": 2}


@pytest.mark.parametrize("config,argv", [
    (b"n = abc\n", ()),                          # a value that does not parse
    (b"steps = 1e3\n", ()),
    (b"n 4\n", ()),                              # a line configparser cannot parse
    (b"n = 4\nn = 5\n", ()),                     # a duplicate key
    (b"n = \xff\n", ()),                          # not UTF-8
    (b"[a]\nn = 4\n[b]\nsteps = 3\n", ()),       # two sections
    (None, ("--config", "d")),                   # directories given as files
    (None, ("--state", "d")),
    (None, ("--out", "d")),
    (b"n = 4\nsteps 3\n", ()),
    (b"[run]\nn 4\n", ()),
])
def test_malformed_config_or_path_exits_2_with_one_error_line(tmp_path, capsys, config, argv):
    (tmp_path / "d").mkdir()
    if config is not None:
        (tmp_path / "c.ini").write_bytes(config)
        argv = ("--config", "c.ini")
    assert run(tmp_path, "invariants", *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    if config in _BAD_CONFIG_LINE:
        assert "c.ini" in err and f"[line {_BAD_CONFIG_LINE[config]}]" in err, err


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


def _strict_json(text):
    """json.loads that rejects the NaN, Infinity and -Infinity tokens, which
    are not JSON."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", [("--h", "1e300", "--steps", "1"),
                                  ("--alpha", "1e300", "--steps", "1")])
def test_consistency_of_an_overflowing_cube_fails_its_record(tmp_path, capsys, argv):
    """The face coefficients of h or alpha = 1e300 overflow: the top corners
    are NaN, so the record fails with a NaN discrepancy, written as the
    string "NaN" (JSON has no NaN), and no numpy warning escapes the
    command."""
    assert run(tmp_path, "consistency", *argv, "--out", "c.json") == 3
    rec = _strict_json((tmp_path / "c.json").read_text())
    assert rec["max_discrepancy"] == "NaN" and rec["pass"] is False
    assert capsys.readouterr().err == ""


def test_json_reports_write_non_finite_floats_as_strings():
    report = {"x": [1.5, math.nan, (math.inf, -math.inf)], "y": {"z": np.float64(math.nan)}}
    assert _strict_json(_json_report(report)) == {
        "x": [1.5, "NaN", ["Infinity", "-Infinity"]], "y": {"z": "NaN"}}
    finite = {"b": [0.1, 2, None, True, "s"], "a": {"c": 1e300}}
    assert _json_report(finite) == json.dumps(finite, sort_keys=True, indent=2) + "\n"


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


# spectrum about +-1.7e308: the node scale 2R = 2^1025 is not a float
_PAST_2_TO_THE_1022 = "the spectral radius exceeds 2^1022: the node scale 2R overflows"


@pytest.mark.parametrize("argv,line", [
    (("invariants",), f"numerical failure: DomainError: {_PAST_2_TO_THE_1022}\n"),
    (("simulate", "--steps", "0", "--out", "x"),
     f"numerical failure in the trajectory invariants: {_PAST_2_TO_THE_1022}\n"),
], ids=["invariants", "simulate"])
def test_a_spectral_radius_past_2_to_the_1022_exits_3(tmp_path, capsys, argv, line):
    save_state(FlaschkaState([1.7e308, 0.0], [1.7e308, -1.7e308], Boundary.OPEN),
               tmp_path / "big.json")
    assert run(tmp_path, argv[0], "--system", "dtl", "--state", "big.json", *argv[1:]) == 3
    assert capsys.readouterr().err == line
    if argv[0] == "simulate":
        report = json.loads((tmp_path / "x.error.json").read_text())
        assert report["error"] == "DomainError" and report["failing_stage"] == "invariants"


def test_a_ring_step_whose_closure_slope_overflows_exits_3(tmp_path, capsys):
    s = random_state(8, Boundary.PERIODIC, 52)
    b = s.b.copy()
    b[6] *= 1e154
    save_state(s.replace(b=b), tmp_path / "ov.json")
    assert run(tmp_path, "simulate", "--system", "dtl", "--h", "1.6248039534691787",
               "--state", "ov.json", "--steps", "1", "--out", "x") == 3
    message = "ring closure slope overflows at site 7"
    assert capsys.readouterr().err == f"numerical failure at step 1: {message}\n"
    report = json.loads((tmp_path / "x.error.json").read_text())
    assert report == {"error": "SolveFailed", "message": message, "system": "dtl",
                      "failed": True, "failing_step": 1}


@pytest.mark.parametrize("n", range(2, 13))
def test_a_ring_fixed_at_a_double_root_simulates(tmp_path, n):
    """dtl at h = 1 fixes the ring a = b = 1, a double root of its
    fixed-point quadratic: the step closes at its seed's pass."""
    save_state(FlaschkaState([1.0] * n, [1.0] * n, Boundary.PERIODIC), tmp_path / "par.json")
    assert run(tmp_path, "simulate", "--system", "dtl", "--h", "1", "--state", "par.json",
               "--steps", "1", "--out", "p") == 0
    rows = [line.split(",")[1:]
            for line in (tmp_path / "p.trajectory.csv").read_text().splitlines()[1:]]
    assert len(rows) == 2 and rows[0] == rows[1]


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


def _accepted_options(parser):
    """The option strings each subparser accepts, --help aside."""
    return {command: sorted(s for action in sp._actions for s in action.option_strings
                            if s not in ("-h", "--help"))
            for command, sp in parser.commands.items()}


def test_each_command_accepts_only_the_options_it_reads():
    accepted = _accepted_options(_build_parser())
    assert {c: len(names) for c, names in accepted.items()} == {
        "simulate": 13, "invariants": 12, "verify": 4, "dump-lax": 10, "consistency": 7}
    assert sum(map(len, accepted.values())) == 46
    assert not any("--mu" in names for names in accepted.values())


def test_readme_option_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = {m[1]: sorted(re.findall(r"--[a-z]+", m[2]))
             for m in re.finditer(r"^\| `([a-z-]+)` \| (.*) \|$", readme, re.M)}
    assert table == _accepted_options(_build_parser())


@pytest.mark.parametrize("command", list(_READS))
def test_negative_seed_exits_2_with_error_line(tmp_path, capsys, command):
    assert run(tmp_path, command, "--seed", "-1", "--out", "x") == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0\n"
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("chart,boundary", [("exp", "periodic"), ("explicit-a", "open")])
def test_chart_simulation_at_zero_step_exits_2(tmp_path, capsys, chart, boundary):
    assert run(tmp_path, "simulate", "--realization", chart, "--boundary", boundary,
               "--h", "0", "--out", "x") == 2
    assert capsys.readouterr().err == "error: --h must be nonzero for a chart\n"
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("argv,config,message", [
    # options no command, or not this command, reads
    (("verify", "--n", "99", "--mu", "5"), None, "unrecognized arguments: --n 99 --mu 5"),
    (("dump-lax", "--realization", "exp"), None, "unrecognized arguments: --realization exp"),
    (("consistency", "--boundary", "periodic", "--lambda", "0"), None,
     "unrecognized arguments: --boundary periodic"),
    (("verify", "--config", "c.ini"), "lambda = 0\nboundary = periodic\n",
     "config file c.ini: 'lambda' is not an option of verify"),
    (("verify", "--h", "0"), None, "unrecognized arguments: --h 0"),   # not --help
    # argparse's own errors
    (("simulate", "--n", "abc"), None, "argument --n: invalid int value: 'abc'"),
    (("simulate", "--nosuch", "1"), None, "unrecognized arguments: --nosuch 1"),
    (("simulate", "--s", "1"), None, "ambiguous option: --s could match"),
    (("nosuch",), None, "argument command: invalid choice: 'nosuch'"),
    ((), None, "the following arguments are required: command"),
], ids=["verify-n-mu", "dump-lax-realization", "consistency-boundary", "verify-config",
        "verify-h", "bad-int", "unknown-flag", "ambiguous-flag", "unknown-command",
        "no-command"])
def test_unread_option_or_parse_error_exits_2_with_one_error_line(tmp_path, capsys, argv,
                                                                   config, message):
    if config is not None:
        (tmp_path / "c.ini").write_text(config)
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


def test_abbreviated_flag_wins_over_the_config_file(tmp_path):
    (tmp_path / "c.ini").write_text("steps = 10\nn = 4\nout = c\n")
    assert run(tmp_path, "simulate", "--config", "c.ini", "--ste", "3") == 0
    assert len((tmp_path / "c.trajectory.csv").read_text().splitlines()) == 5


@pytest.mark.parametrize("config,message", [
    ("filter = *\n", "config file c.ini: 'filter' is not an option of simulate"),
    ("config = d.ini\n", "config file c.ini: 'config' is not an option of simulate"),
    ("steps = 1e3\n", "config key 'steps': '1e3' is not a valid int"),
], ids=["other-command", "config", "bad-value"])
def test_config_key_the_command_does_not_read_exits_2(tmp_path, capsys, config, message):
    (tmp_path / "c.ini").write_text(config)
    assert run(tmp_path, "simulate", "--config", "c.ini") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_dump_lax_of_a_ring_state_at_lambda_zero_exits_2(tmp_path, capsys):
    save_state(FlaschkaState([1.0, 0.5, 0.7], [0.1, 0.2, 0.3], Boundary.PERIODIC),
               tmp_path / "ring.json")
    assert run(tmp_path, "dump-lax", "--state", "ring.json", "--lambda", "0") == 2
    assert capsys.readouterr().err == "error: lambda must be nonzero on a ring\n"


@pytest.mark.parametrize("argv,name", [
    (("--system", "dtl", "--lambda", "1e-320"), "T"),
    (("--system", "drtl+", "--alpha", "1e200", "--lambda", "1e200"), "L"),
])
def test_dump_lax_with_an_entry_that_overflows_exits_3_without_a_file(tmp_path, capsys, argv,
                                                                     name):
    """JSON has no inf: a ring's a / lambda (T) or alpha lambda (L) that
    overflows is a numerical failure, and nothing is written."""
    assert run(tmp_path, "dump-lax", *argv, "--n", "2", "--boundary", "periodic",
               "--out", "lax.json") == 3
    assert capsys.readouterr().err == (f"numerical failure: NumericalError: the Lax matrix "
                                       f"{name} has an entry that is not finite\n")
    assert not (tmp_path / "lax.json").exists()


@pytest.mark.parametrize("state,alpha,error", [
    # open chain: U is unit upper bidiagonal (det U = 1), T1 overflows
    (FlaschkaState([0.5, 1.3, 0.0], [0.1, 0.2, 0.3], Boundary.OPEN), "1e300",
     "NumericalError: T1 = L U^{-1} overflows: U is invertible"),
    # ring of two with alpha^2 a_1 a_2 = 1: det U = 1 - prod(alpha a_k) = 0
    (FlaschkaState([1.0, 1.0], [0.1, 0.2], Boundary.PERIODIC), "1",
     "SingularMatrix: U is not invertible"),
], ids=["T1-overflows", "U-singular"])
def test_dump_lax_tells_an_overflowing_T1_from_a_singular_U(tmp_path, capsys, state, alpha,
                                                            error):
    save_state(state, tmp_path / "s.json")
    assert run(tmp_path, "dump-lax", "--system", "drtl+", "--alpha", alpha,
               "--state", "s.json", "--out", "lax.json") == 3
    assert capsys.readouterr().err == f"numerical failure: {error}\n"
    assert not (tmp_path / "lax.json").exists()


# values drawn for the fuzzed command lines: every int and float option sees a
# negative, zero and (for floats) non-finite value, and n <= 5, steps <= 3 and
# cheap verify filters keep each run short
_INTS = {"n": ["3", "2", "5", "1", "0", "-1"], "steps": ["1", "3", "0", "-1"],
         "seed": ["0", "7", "-1", "-2", "x"]}
_FLOATS = ["0.05", "0.3", "2", "0", "-1", "1e300", "nan", "inf", "-inf", "x"]
_WORDS = {"system": [*SYSTEMS, "nosuch"], "realization": ["exp", "rel-exp-add", "explicit-a",
                                                          "rat-add", "nosuch"],
          "boundary": ["open", "periodic", "closed"], "out": ["o"],
          "state": ["ring.json", "xp.json", "missing.json"],
          "filter": ["limit*", "closure-1d", "nomatch"], "config": ["c.ini", "missing.ini"]}
_FUZZ_NAMES = sorted(set(_OPTIONS) - {"config"}) + ["mu"]


def _value(name):
    return st.sampled_from(_INTS.get(name) or _WORDS.get(name) or _FLOATS)


@st.composite
def _command_lines(draw):
    """A command with flags and config lines drawn mostly from its own options,
    one time in four with an option of another command (or --mu) as well."""
    command = draw(st.sampled_from(list(_READS)))
    own = [name for name in _READS[command] if name != "config"]
    cheap = {"n", "steps", "filter"} & set(own)   # never left at a default
    names = draw(st.sets(st.sampled_from(own + ["config"]), max_size=4)) | cheap
    keys = draw(st.sets(st.sampled_from(own), max_size=3))
    if draw(st.integers(0, 3)) == 0:
        (names if draw(st.booleans()) else keys).add(draw(st.sampled_from(_FUZZ_NAMES)))
    argv = [command]
    for name in sorted(names):
        argv += [f"--{name}", draw(_value(name))]
    return argv, "".join(f"{key} = {draw(_value(key))}\n" for key in sorted(keys))


def _run_in(directory, argv, config):
    """Exit code and stderr of main(argv) run in a directory that holds the
    config and state files argv may name."""
    save_state(FlaschkaState([1.0, 0.5, 0.7], [0.1, 0.2, 0.3], Boundary.PERIODIC),
               directory / "ring.json")
    (directory / "xp.json").write_text(
        '{"n": 3, "boundary": "open", "x": [0, 1, 2], "p": [0.5, 0.6, 0.7]}\n')
    (directory / "c.ini").write_text(config)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return run(directory, *argv), err.getvalue()


def _outputs(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_command_lines())
def test_fuzzed_command_lines_keep_the_exit_code_contract(line):
    argv, config = line
    with tempfile.TemporaryDirectory() as tmp:
        one, two = Path(tmp, "one"), Path(tmp, "two")
        one.mkdir(), two.mkdir()
        code, err = _run_in(one, argv, config)
        assert code in (0, 2, 3) and "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        if code == 0 and argv[0] == "simulate":
            assert _run_in(two, argv, config)[0] == 0
            assert _outputs(one) == _outputs(two)
