"""State types, boundary conventions, indexing and serialization.

Two coordinate charts are used throughout:

* ``FlaschkaState``: variables (a_k, b_k), k = 1..n, where a_k couples site k
  to site k+1 and b_k sits on site k.  Open-end chains carry a structural
  a_n = 0 so that both boundary modes store vectors of equal length.
* ``CanonicalState``: conjugate pairs (x_k, p_k).  For open-end chains the
  missing neighbours are treated as x_0 = +inf, x_{n+1} = -inf, i.e. every
  exponential coupling to them is zero.

All arrays are float64 and frozen after construction; operations never
mutate a state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NumericalError


class Boundary(Enum):
    OPEN = "open"
    PERIODIC = "periodic"


def _checked_vector(v, name: str) -> np.ndarray:
    arr = np.array(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _frozen_pair(u, v, names):
    """The two vectors of a state as the rows of one read-only (2, n) copy,
    with one finiteness test of all its entries.  Input that fails it goes
    through the checks of each vector in turn, which word the error."""
    try:
        pair = np.array((u, v), dtype=float)
    except (TypeError, ValueError):    # ragged, or not numbers
        pair = None
    if pair is None or pair.ndim != 2 or not np.isfinite(pair).all():
        u, v = _checked_vector(u, names[0]), _checked_vector(v, names[1])
        if len(u) != len(v):
            raise ValueError(f"{names[0]} and {names[1]} must have equal length")
        pair = np.array((u, v))
    if pair.shape[1] < 2:
        raise ValueError("lattice size must be >= 2")
    pair.setflags(write=False)
    return pair[0], pair[1]


@dataclass(frozen=True, eq=False, init=False)
class FlaschkaState:
    a: np.ndarray
    b: np.ndarray
    boundary: Boundary

    def __init__(self, a, b, boundary: Boundary):
        a, b = _frozen_pair(a, b, ("a", "b"))
        if boundary is Boundary.OPEN and a[-1] != 0.0:
            raise ValueError("open-end states require a[n] == 0 exactly")
        vars(self).update(a=a, b=b, boundary=boundary)   # frozen: one write per field

    @property
    def n(self) -> int:
        return len(self.a)

    def replace(self, a=None, b=None) -> "FlaschkaState":
        return FlaschkaState(self.a if a is None else a,
                             self.b if b is None else b,
                             self.boundary)


@dataclass(frozen=True, eq=False, init=False)
class CanonicalState:
    x: np.ndarray
    p: np.ndarray
    boundary: Boundary

    def __init__(self, x, p, boundary: Boundary):
        x, p = _frozen_pair(x, p, ("x", "p"))
        vars(self).update(x=x, p=p, boundary=boundary)   # frozen: one write per field

    @property
    def n(self) -> int:
        return len(self.x)


def vectors(state) -> tuple:
    """The two vectors of a state: (a, b), or (x, p) of a canonical state."""
    return (state.x, state.p) if isinstance(state, CanonicalState) else (state.a, state.b)


def stack_is_valid(u: np.ndarray, v: np.ndarray, open_end: bool = False) -> bool:
    """Whether every row of the (..., n) stacks u, v passes the checks of a
    state: equal shapes, n >= 2 and finite entries, and with ``open_end``
    the structural u[..., -1] == 0 of an open chain's a.  A caller whose
    stack fails builds its rows as states one at a time, whose checks word
    the error."""
    return (u.shape == v.shape and u.shape[-1] >= 2
            and bool(np.isfinite(u).all()) and bool(np.isfinite(v).all())
            and not (open_end and np.any(u[..., -1] != 0.0)))


# What a numerical step of states can raise: a failed check or solve, Python
# float arithmetic, a state's checks, a numpy warning raised as an error.
STEP_ERRORS = (NumericalError, ArithmeticError, ValueError, Warning)


def on_stack(stacked, one, kind, u, v, boundary: Boundary, open_in=False, open_out=False):
    """stacked(u, v, boundary) of (..., n) stacks of the two vectors of
    `kind` states, whose row i is bitwise ``vectors(one(state i))``.  A
    stack that fails the checks of a state on its way in (``open_in``) or
    out (``open_out``, see ``stack_is_valid``), or whose call raises one of
    STEP_ERRORS, or any stack if `stacked` is None, is passed to one a row
    at a time instead: the rows become states, so the error is the one the
    first failing row raises."""
    try:
        if stacked is not None and stack_is_valid(u, v, open_in):
            out = stacked(u, v, boundary)
            if stack_is_valid(*out, open_out):
                return out
    except STEP_ERRORS:
        pass
    n = u.shape[-1]
    rows = [vectors(one(kind(ur, vr, boundary)))
            for ur, vr in zip(u.reshape(-1, n), v.reshape(-1, n))]
    return tuple(np.array([row[i] for row in rows]).reshape(u.shape) for i in (0, 1))


def by_rows(batch, rows):
    """batch(rows), or, if that raises one of STEP_ERRORS, batch([row]) of
    each row in turn: the error raised is the one a loop over the rows meets
    first.  If no row fails alone, the values of batch([row]) of each row
    come back concatenated, in row order."""
    try:
        return batch(rows)
    except STEP_ERRORS:
        return [value for row in rows for value in batch([row])]


def worst(values) -> float:
    """The largest of the residuals ``values`` (0.0 if there are none), NaN
    if any of them is NaN: Python's max keeps its first argument when a
    comparison with NaN is false, so it would pass a NaN sample."""
    return float(np.max(np.fromiter(values, dtype=float), initial=0.0))


def neighbor_index(k: int, offset: int, n: int, boundary: Boundary):
    """1-based site index shifted by ``offset``; None outside an open chain."""
    if not 1 <= k <= n:
        raise ValueError("site index out of range")
    if boundary is Boundary.PERIODIC:
        return (k + offset - 1) % n + 1
    j = k + offset
    return j if 1 <= j <= n else None


def shifted(v: np.ndarray, offset: int, boundary: Boundary, fill: float = 0.0) -> np.ndarray:
    """Neighbour values v_{k+offset} along the last axis of v, so each row of
    a (..., n) stack is shifted on its own; out-of-range entries -> fill.

    On open chains |offset| must not exceed n, and the result is float.
    """
    n = v.shape[-1]
    if boundary is Boundary.PERIODIC:
        k = offset % n
        return np.concatenate((v[..., k:], v[..., :k]), axis=-1)
    out = np.empty(v.shape)
    if offset >= 0:
        out[..., :n - offset] = v[..., offset:]
        out[..., n - offset:] = fill
    else:
        out[..., -offset:] = v[..., :offset]
        out[..., :-offset] = fill
    return out


def random_state(n: int, boundary: Boundary, seed: int,
                 a_range=(0.1, 2.0), b_range=(-1.0, 1.0)) -> FlaschkaState:
    """Deterministic random state; a_k stays positive so log/exp charts apply."""
    if n < 2:
        raise ValueError("lattice size must be >= 2")
    if a_range[0] <= 0.0:
        raise DomainError("interior couplings a_k must stay away from 0")
    rng = np.random.default_rng(seed)
    a = rng.uniform(a_range[0], a_range[1], n)
    b = rng.uniform(b_range[0], b_range[1], n)
    if boundary is Boundary.OPEN:
        a[-1] = 0.0
    return FlaschkaState(a, b, boundary)


def random_canonical(n: int, boundary: Boundary, seed: int,
                     x_range=(-1.0, 1.0), p_range=(-1.0, 1.0),
                     increasing: bool = False, gap_range=(0.6, 1.4)) -> CanonicalState:
    """Deterministic random canonical state.

    ``increasing`` draws x with positive gaps (needed by the rational and
    hyperbolic charts, whose domain is an ordered configuration).
    """
    rng = np.random.default_rng(seed)
    if increasing:
        gaps = rng.uniform(gap_range[0], gap_range[1], n - 1)
        x = np.concatenate([[rng.uniform(*x_range)], gaps]).cumsum()
    else:
        x = rng.uniform(x_range[0], x_range[1], n)
    p = rng.uniform(p_range[0], p_range[1], n)
    return CanonicalState(x, p, boundary)


# ---------------------------------------------------------------------------
# serialization: 17 significant digits round-trips float64 exactly
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _vec_json(v: np.ndarray) -> str:
    return "[" + ", ".join(_fmt(x) for x in v) + "]"


def state_to_json(state) -> str:
    kind = ("x", "p") if isinstance(state, CanonicalState) else ("a", "b")
    first, second = vectors(state)
    return ("{" + f'"n": {state.n}, "boundary": "{state.boundary.value}", '
            + f'"{kind[0]}": {_vec_json(first)}, "{kind[1]}": {_vec_json(second)}' + "}")


def state_from_json(text: str):
    obj = json.loads(text)
    boundary = Boundary(obj["boundary"])
    if "a" in obj:
        state = FlaschkaState(obj["a"], obj["b"], boundary)
    else:
        state = CanonicalState(obj["x"], obj["p"], boundary)
    if state.n != obj["n"]:
        raise ValueError("declared size does not match vector length")
    return state


def save_state(state, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(state) + "\n")


def load_state(path):
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(fh.read())
