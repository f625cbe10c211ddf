"""Output checks that do not trust the code being timed.

The Lax matrices here are built from the conventions stated in the package
documentation, not by calling ``todalab.lax``, and initial states are drawn
from the seed with the benchmark's own generator.  A simulate trajectory
passes when the spectrum of its final CSV row matches the spectrum of the
initial state to ``SPECTRUM_TOL`` relative.
"""

from __future__ import annotations

import math

import numpy as np

SPECTRUM_TOL = 1e-8


class OutputMismatch(Exception):
    """A result of the program disagrees with the benchmark's own check."""


def ring_state(n: int, seed: int):
    """The periodic (a, b) state `todalab simulate --seed` starts from.

    Same recipe as the documented seeded state: a_k uniform in [0.1, 2),
    then b_k uniform in [-1, 1), both from numpy's default_rng(seed).
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 2.0, n)
    b = rng.uniform(-1.0, 1.0, n)
    return a, b


def ring_lax(a, b, alpha=None):
    """Periodic Lax matrix at spectral parameter 1.

    alpha None: T = diag(b) + sum a_k E_{k,k+1} + sum E_{k+1,k} with corners.
    Otherwise T1 = L U^{-1} of the relativistic pair
    L = diag(1 + alpha b) + alpha sum E_{k+1,k},  U = I - alpha sum a_k E_{k,k+1},
    again with corners.
    """
    n = len(a)
    up = np.roll(np.eye(n), 1, axis=1)      # E_{k,k+1}, wrapping to E_{n,1}
    if alpha is None:
        return np.diag(b) + np.diag(a) @ up + up.T
    L = np.diag(1.0 + alpha * b) + alpha * up.T
    U = np.eye(n) - alpha * np.diag(a) @ up
    return np.linalg.solve(U.T, L.T).T


def spectrum_gap(m0: np.ndarray, m1: np.ndarray) -> float:
    """Largest eigenvalue change of m1 against m0, relative to max(1, |eig|)."""
    e0 = np.sort_complex(np.linalg.eigvals(m0))
    e1 = np.sort_complex(np.linalg.eigvals(m1))
    return float(np.max(np.abs(e1 - e0)) / max(1.0, float(np.max(np.abs(e0)))))


def check_simulate_csv(path, system: str, seed: int, n: int, steps: int, alpha: float):
    """Validate a `todalab simulate` trajectory CSV on a ring; return (gap, tol).

    Row layout: step, b_1..b_n, a_1..a_n, invariant columns.  The first row
    must be the seeded initial state exactly (17 significant digits
    round-trip float64); the last row must be step `steps` with the same
    spectrum.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != steps + 2:
        raise OutputMismatch(f"{path}: {len(lines) - 1} rows, expected {steps + 1}")
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    if first[0] != 0 or last[0] != steps:
        raise OutputMismatch(f"{path}: step column runs {first[0]}..{last[0]}")
    a0, b0 = ring_state(n, seed)
    if first[1:n + 1] != list(b0) or first[n + 1:2 * n + 1] != list(a0):
        raise OutputMismatch(f"{path}: first row is not the seeded initial state")
    b1 = np.array(last[1:n + 1])
    a1 = np.array(last[n + 1:2 * n + 1])
    if not np.all(np.isfinite(np.concatenate([a1, b1]))):
        raise OutputMismatch(f"{path}: final state is not finite")
    al = None if system == "dtl" else alpha
    gap = spectrum_gap(ring_lax(a0, b0, al), ring_lax(a1, b1, al))
    if not gap < SPECTRUM_TOL:
        raise OutputMismatch(f"{path}: final spectrum moved by {gap:.3e} "
                             f"(tolerance {SPECTRUM_TOL:.0e})")
    return gap, SPECTRUM_TOL


def check_record(rec: dict, check: str, tol: float, samples: int):
    """Validate a verify record against the benchmark's own expectations.

    The residual is compared with the benchmark's tolerance, not with the
    record's own verdict alone; return (max_residual, tol).
    """
    if rec.get("check") != check:
        raise OutputMismatch(f"record {rec.get('check')!r}, expected {check!r}")
    if rec.get("tol") != tol or rec.get("samples") != samples:
        raise OutputMismatch(f"{check}: tol {rec.get('tol')} / samples {rec.get('samples')}, "
                             f"expected {tol} / {samples}")
    residual = rec.get("max_residual")
    if not (isinstance(residual, float) and math.isfinite(residual) and residual < tol):
        raise OutputMismatch(f"{check}: max_residual {residual} not below {tol}")
    if rec.get("pass") is not True:
        raise OutputMismatch(f"{check}: record does not pass")
    return residual, tol
