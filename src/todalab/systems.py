"""The eight systems: three lattice flows and five discrete maps.

Each row gives the system's one-step map, bound to (h, alpha) once per
trajectory (a flow's is the RK4 step of its vector field, alpha bound to
the field), the alpha of the Lax pair whose spectrum the system conserves
(None for the Toda matrix T) and the label of its checks.  A row looks its
step function up in ``maps`` or ``flows`` when it is bound, so a function
replaced in those modules is the one bound.  ``verify.trajectory_blocks``
runs a bound dtl, drtl+ or drtl- step, or a ``functools.wraps`` wrapper of
one (a profiler's, say), as the map's step and check halves a block of
steps at a time, so such a wrapper is called only to rerun a block that
fails; any other step, a replacement too, is called for every step.  Every
step's rows come in the same blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import flows, maps


@dataclass(frozen=True)
class System:
    name: str
    label: str              # check names read isospectral-<label>
    stepper: Callable       # (h, alpha) -> step, a function of one FlaschkaState
    lax_alpha: Callable     # (h, alpha) -> alpha of the conserved Lax pair, or None
    flow: bool = False      # a vector field integrated by RK4, h its time step


def _toda(h, alpha):
    return None


def _alpha(h, alpha):
    return alpha


SYSTEMS = {row.name: row for row in (
    System("tl", "tl", lambda h, al: partial(flows.rk4_step, flows.tl_field, dt=h), _toda, True),
    System("rtl+", "rtl+", lambda h, al: partial(
        flows.rk4_step, partial(flows.rtl_plus_field, alpha=al), dt=h), _alpha, True),
    System("rtl-", "rtl-", lambda h, al: partial(
        flows.rk4_step, partial(flows.rtl_minus_field, alpha=al), dt=h), _alpha, True),
    System("dtl", "dtl", lambda h, al: partial(maps.dtl_step, h=h), _toda),
    System("drtl+", "drtl-plus", lambda h, al: partial(maps.drtl_plus_step, alpha=al, h=h),
           _alpha),
    System("drtl-", "drtl-minus", lambda h, al: partial(maps.drtl_minus_step, alpha=al, h=h),
           _alpha),
    # drtl+/- at alpha = h (drtl- at alpha = -h): the explicit maps conserve
    # the relativistic Lax pair at that alpha, whatever alpha is given
    System("drtl+explicit", "drtl+explicit",
           lambda h, al: partial(maps.drtl_plus_explicit_step, h=h), lambda h, al: h),
    System("drtl-explicit", "drtl-explicit",
           lambda h, al: partial(maps.drtl_minus_explicit_step, h=h), lambda h, al: -h),
)}
