import inspect
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import todalab
from todalab.core import (Boundary, CanonicalState, FlaschkaState, by_rows, neighbor_index,
                          random_canonical, random_state, shifted, state_from_json,
                          state_to_json)
from todalab.errors import NumericalError


def test_neighbor_index_examples():
    assert neighbor_index(1, -1, 5, Boundary.PERIODIC) == 5
    assert neighbor_index(1, -1, 5, Boundary.OPEN) is None
    assert neighbor_index(3, 2, 5, Boundary.OPEN) == 5


def test_neighbor_index_bijection_on_rings():
    n = 7
    for offset in range(-3, 4):
        image = sorted(neighbor_index(k, offset, n, Boundary.PERIODIC)
                       for k in range(1, n + 1))
        assert image == list(range(1, n + 1))


@pytest.mark.parametrize("n", [2, 3, 7])
def test_periodic_shift_is_a_roll(n):
    v = np.random.default_rng(n).standard_normal(n)
    for k in range(-n, n + 1):
        out = shifted(v, k, Boundary.PERIODIC)
        assert out.dtype == v.dtype and np.array_equal(out, np.roll(v, -k))


def test_by_rows_returns_a_successful_batch_as_is():
    calls, value = [], object()

    def batch(rows):
        calls.append(list(rows))
        return value

    assert by_rows(batch, [0, 1, 2]) is value
    assert calls == [[0, 1, 2]]


def test_by_rows_raises_the_error_of_the_first_failing_row():
    """Rows 3 and 1 fail; the batch takes its rows last to first, so it
    meets row 3 first, but the loop over the rows meets row 1 first."""
    calls = []

    def batch(rows):
        calls.append(list(rows))
        for row in reversed(rows):
            if row == 3:
                raise ZeroDivisionError("row 3")
            if row == 1:
                raise NumericalError("row 1")
        return [float(row) for row in rows]

    with pytest.raises(NumericalError, match="^row 1$"):
        by_rows(batch, [0, 1, 2, 3, 4])
    assert calls == [[0, 1, 2, 3, 4], [0], [1]]


def test_by_rows_gives_the_rows_values_in_order_when_no_row_fails_alone():
    def batch(rows):
        if len(rows) > 1:
            raise RuntimeWarning("overflow in the stack")
        return [10 * rows[0], 10 * rows[0] + 1]

    assert by_rows(batch, [2, 0, 1]) == [20, 21, 0, 1, 10, 11]


@pytest.mark.parametrize("error", [KeyError, TypeError])
def test_by_rows_reruns_no_row_after_an_error_a_step_does_not_raise(error):
    calls = []

    def batch(rows):
        calls.append(list(rows))
        raise error("not a step's error")

    with pytest.raises(error):
        by_rows(batch, [0, 1])
    assert calls == [[0, 1]]


def _package_lines_with(*needles):
    """file:line of every source line of the package holding one of needles."""
    return [f"{path.name}:{i}"
            for path in sorted(Path(todalab.__file__).parent.glob("*.py"))
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if any(needle in line for needle in needles)]


def test_package_has_one_shift_primitive():
    """Every neighbour shift in the package goes through core.shifted."""
    offenders = _package_lines_with("np.roll", "numpy.roll")
    assert not offenders, offenders


def test_package_has_one_first_failing_row_rule():
    """A stack that raises a step's error is redone a row at a time, so the
    first failing row's error propagates, only by core.on_stack and
    core.by_rows; maps._passes catches the same errors as a pass/fail test."""
    catches = [line.split(":")[0] for line in _package_lines_with("except STEP_ERRORS")]
    assert catches == ["core.py", "core.py", "maps.py"], catches
    wrappers = _package_lines_with("def _first_failing_row(")
    assert not wrappers, wrappers


def test_package_has_one_central_difference_loop():
    """Every finite-difference quotient and step rule of the package is the
    one of poisson._central_differences."""
    quotients = _package_lines_with("(2.0 * hvec")
    assert len(quotients) == 1, quotients
    step_rules = _package_lines_with("** (1.0 / 3.0)")
    assert len(step_rules) == 1, step_rules


def test_package_has_one_ring_closure_loop():
    """Every ring of every map and chart, a single ring or a stack solved as
    columns, closes through maps._ring_chain: one line forms the closure
    correction, one loop runs the corrections, one line forms the Moebius
    fixed point's discriminant, and the charts make no dense solve."""
    corrections = _package_lines_with("/ (1.0 - slope)")
    assert len(corrections) == 1, corrections
    loops = _package_lines_with("range(_CLOSURE_STEPS)")
    assert len(loops) == 1 and loops[0].startswith("maps.py:"), loops
    discriminants = _package_lines_with("half_b * half_b + p12 * p21")
    assert len(discriminants) == 1, discriminants
    dense = [line for line in _package_lines_with("np.linalg.solve")
             if line.startswith("realizations.py:")]
    assert not dense, dense


def test_package_forms_the_moebius_site_matrix_once():
    """A single chart ring and a stack of chart rings build their Moebius
    site matrices [[c, -(q + s c) g], [1, -s g]] on one line."""
    entries = _package_lines_with("-(q + s * c")
    assert len(entries) == 1 and entries[0].startswith("realizations.py:"), entries


def test_package_forms_each_in_step_check_once():
    """Each in-step identity and addition formula of the factor maps is
    formed on one line of maps: its check half runs on site-major arrays
    for one step and for a block of steps alike."""
    for expr in ("d1 * (alpha * d1_next - h_one_ab_next) / den2 - d2",
                 "shifted(dm.T, +1, boundary).T * a_dm / den2 - cm",
                 "h * (1.0 + alpha * b_new) + alpha * d1_next - h_one_ab_next - alpha * d2",
                 "d1 - ha * shifted(a_new.T, -1, boundary).T - d2 + ha * al",
                 "b_new + shifted(h_dm.T, -1, boundary, h * 0.0).T - bl - h_cm",
                 "alpha * a_new - h_dm - alpha_a + h_cm", "min(axis=0) < _PIVOT"):
        lines = _package_lines_with(expr)
        assert len(lines) == 1 and lines[0].startswith("maps.py:"), (expr, lines)


def test_maps_check_half_has_one_form():
    """The check half of the factor maps has one form, on site-major arrays,
    for a single step and for a block: maps keeps no row count below which a
    block is checked step by step on floats, and no reduction of the check
    half forks on the type of its values."""
    rows = _package_lines_with("_COLUMN_ROWS")
    assert not rows, rows
    from todalab import maps
    for name in ("_guard", "_amax", "_max", "_regular"):
        assert "isinstance" not in inspect.getsource(getattr(maps, name)), name
    assert not hasattr(maps, "_over")


def test_package_has_one_trajectory_loop():
    """Every trajectory of the package is stepped by verify.trajectory_blocks,
    which alone sizes its blocks and yields one block shape for every step
    kind, and the flows are plain vector fields with no dispatch on a kind
    string."""
    loops = _package_lines_with("in range(steps)")
    assert len(loops) == 1 and loops[0].startswith("verify.py:"), loops
    sizers = set(_package_lines_with("states_per_chunk(")) - set(
        _package_lines_with("def states_per_chunk("))
    assert sizers and all(line.startswith("verify.py:") for line in sizers), sizers
    forks = _package_lines_with("isinstance(block")
    assert not forks, forks
    dispatch = [line for line in _package_lines_with("kind", '== "', "== '")
                if line.startswith("flows.py:")]
    assert not dispatch, dispatch


_CORNER_CHECKS = {"closure-1d": "closure_value_1d", "spectrality-1d": "spectrality_residual",
                  "closure-2d": "closure_value_2d", "conservation-2d": "conservation_residual_2d",
                  "corners-2d": "corner_residuals_2d"}


@pytest.mark.parametrize("check", sorted(_CORNER_CHECKS))
def test_corner_checks_have_no_per_row_residual_loop(check, monkeypatch):
    """A criterion-5 check forms its residual once per step pair, on the
    stack of all its states, not once per state."""
    from todalab import pluri, verify
    name, calls = _CORNER_CHECKS[check], []
    residual = getattr(pluri, name)

    def counted(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr(pluri, name, counted)
    rec = verify.CHECKS[check](seed=1, n_states=10)
    assert rec["pass"] and rec["samples"] == 30 and len(calls) == 3


def test_involution_check_forms_one_stencil_per_hamiltonian(monkeypatch):
    """check_involution differentiates each of its three Hamiltonians once,
    at all its states, and h2 once for both of its partners: three calls of
    the central-difference primitive, not 40 (two per state and partner)."""
    from todalab import poisson, verify
    central_differences, calls = poisson._central_differences, []

    def counted(*args):
        calls.append(args)
        return central_differences(*args)

    monkeypatch.setattr(poisson, "_central_differences", counted)
    rec = verify.check_involution(seed=4, n_states=10)
    assert rec["pass"] and len(calls) == 3


def test_package_has_one_domain_guard():
    """Every domain check of the package raises through realizations._need."""
    guards = _package_lines_with("def _need(")
    assert len(guards) == 1 and guards[0].startswith("realizations.py:"), guards
    assert not _package_lines_with("def _require("), _package_lines_with("def _require(")


def test_corner_systems_read_their_legs_from_the_chart_catalog():
    """pluri keeps no leg table of its own: it defines no class, its legs are
    those of the exp and rel-exp-add charts."""
    classes = [line for line in _package_lines_with("class ") if line.startswith("pluri.py:")]
    assert not classes, classes


def test_package_does_not_use_scipy_linalg():
    """Dense solves go through numpy: scipy.linalg's triangular solve took
    milliseconds per 5x5 call under multi-threaded BLAS."""
    offenders = _package_lines_with("scipy.linalg", "from scipy import linalg")
    assert not offenders, offenders


def test_importing_the_package_loads_no_scipy():
    """todalab depends on numpy alone: a fresh interpreter that imports the
    package and its CLI holds no scipy module, whose import would dominate
    every start."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import todalab, todalab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(todalab.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]", out.stdout


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    """Under the project's pytest settings (warnings are errors) a failing
    Hypothesis test is reported as a failure, and the tests after it run:
    no INTERNALERROR from a warning raised while the plugin reports the
    falsifying example."""
    root = Path(__file__).parents[1]
    (tmp_path / "pyproject.toml").write_text((root / "pyproject.toml").read_text(encoding="utf-8"),
                                             encoding="utf-8")
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 0\n\n\n"
        "def test_passes():\n    pass\n", encoding="utf-8")
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_two.py"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout, out.stdout


def test_package_seeds_a_ring_stack_with_one_column_product():
    """maps._ring_fixed_point seeds a stack of Moebius rings as columns: no
    call of it sits in a loop over rows."""
    calls = set(_package_lines_with("_ring_fixed_point(")) - set(
        _package_lines_with("def _ring_fixed_point("))
    assert calls and all(line.split(":")[0] in ("maps.py", "realizations.py")
                         for line in calls), calls
    for call in calls:   # neither the call nor the line after it iterates
        name, number = call.split(":")
        lines = (Path(todalab.__file__).parent / name).read_text(encoding="utf-8").splitlines()
        window = " ".join(lines[int(number) - 1:int(number) + 1])
        assert not re.search(r"\bfor\b|zip\(|map\(", window), (call, window)


def test_random_state_deterministic():
    s1 = random_state(6, Boundary.PERIODIC, 42)
    s2 = random_state(6, Boundary.PERIODIC, 42)
    assert np.array_equal(s1.a, s2.a) and np.array_equal(s1.b, s2.b)


def test_random_state_open_end_zero():
    s = random_state(4, Boundary.OPEN, 17)
    assert s.a[-1] == 0.0


def test_random_state_ranges():
    s = random_state(6, Boundary.PERIODIC, 42)
    assert np.all((s.a > 0.1) & (s.a < 2.0))
    assert np.all((s.b > -1.0) & (s.b < 1.0))


def test_open_state_rejects_nonzero_tail():
    with pytest.raises(ValueError, match=r"^open-end states require a\[n\] == 0 exactly$"):
        FlaschkaState([1.0, 0.5], [0.0, 0.0], Boundary.OPEN)
    assert CanonicalState([1.0, 0.5], [0.0, 0.0], Boundary.OPEN).x[-1] == 0.5


def test_states_are_frozen():
    s = random_state(4, Boundary.PERIODIC, 0)
    with pytest.raises(ValueError):
        s.a[0] = 2.0


_STATE_CLASSES = pytest.mark.parametrize("cls,names", [(FlaschkaState, "ab"),
                                                       (CanonicalState, "xp")],
                                         ids=["flaschka", "canonical"])
_BAD = float("nan")


# each invalid pair of vectors names the first check it fails, in this order:
# shape and finiteness of the first vector, then of the second, then equal
# length, then size
@_STATE_CLASSES
@pytest.mark.parametrize("first,second,message", [
    ([1.0, 2.0, 0.0], [0.0, 1.0], "{0} and {1} must have equal length"),
    ([[1.0, 2.0], [3.0, 0.0]], [0.0, 1.0], "{0} must be one-dimensional"),
    ([0.5, 0.0], [[1.0, 2.0], [3.0, 4.0]], "{1} must be one-dimensional"),
    ([[1.0, 0.0]], [[3.0, 4.0]], "{0} must be one-dimensional"),
    (1.0, 2.0, "{0} must be one-dimensional"),
    ([0.5, 0.0], 2.0, "{1} must be one-dimensional"),
    ([_BAD, 1.0, 0.0], [0.0, 1.0, 2.0], "{0} must be finite"),
    ([float("inf"), 0.0], [0.0, 1.0, 2.0], "{0} must be finite"),
    ([1.0, 1.0, 0.0], [0.0, -float("inf"), 2.0], "{1} must be finite"),
    ([1.0, 0.0], [0.0, _BAD, 2.0], "{1} must be finite"),
    ([float("inf"), -float("inf"), 1.0], [0.0, 0.0, 0.0], "{0} must be finite"),
    ([0.0], [1.0], "lattice size must be >= 2"),
    ([], [], "lattice size must be >= 2"),
])
@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
def test_invalid_state_vectors_name_the_failed_check(cls, names, first, second, message,
                                                     boundary):
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(*names))}$"):
        cls(first, second, boundary)


# finite entries whose sum overflows make a state, with warnings as errors
@_STATE_CLASSES
def test_state_with_large_finite_entries_builds(cls, names):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = cls([1e308, 1e308, 1.0], [0, 0, 0], Boundary.PERIODIC)
    assert getattr(s, names[0]).tolist() == [1e308, 1e308, 1.0]


@_STATE_CLASSES
@pytest.mark.parametrize("kind", [np.array, list])
def test_state_vectors_are_read_only_copies_of_the_input(cls, names, kind):
    first, second = kind([1, 2, 0]), kind([0.25, -1.0, 3.0])
    s = cls(first, second, Boundary.PERIODIC)
    stored = [getattr(s, name) for name in names]
    first[0], second[1] = 7, 7.5
    for vector, want in zip(stored, ([1.0, 2.0, 0.0], [0.25, -1.0, 3.0])):
        assert vector.dtype == float and vector.tolist() == want
        assert not vector.flags.writeable
        with pytest.raises(ValueError):
            vector[0] = 2.0


@pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
def test_flaschka_roundtrip_bitexact(boundary):
    for seed in range(20):
        s = random_state(5, boundary, seed)
        back = state_from_json(state_to_json(s))
        assert np.array_equal(back.a, s.a)
        assert np.array_equal(back.b, s.b)
        assert back.boundary is s.boundary


def test_canonical_roundtrip_bitexact():
    for seed in range(20):
        c = random_canonical(5, Boundary.PERIODIC, seed)
        back = state_from_json(state_to_json(c))
        assert isinstance(back, CanonicalState)
        assert np.array_equal(back.x, c.x)
        assert np.array_equal(back.p, c.p)


def test_serialization_field_order():
    s = random_state(3, Boundary.OPEN, 1)
    text = state_to_json(s)
    assert text.index('"n"') < text.index('"boundary"') < text.index('"a"') < text.index('"b"')
