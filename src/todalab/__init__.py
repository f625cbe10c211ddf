"""Numerical laboratory for discrete-time Toda-type lattices.

Submodules:

    core           state types, boundary conventions, serialization
    flows          continuous vector fields and the RK4 reference integrator
    maps           discrete maps in (a, b) variables
    systems        the table of the three flows and five maps
    lax            Lax matrices, spectral invariants, LU machinery, monodromy
    poisson        compatible brackets and finite-difference verification
    realizations   canonical (x, p) charts and their leg functions
    pluri          quad equations, 3D consistency, corner-equation apparatus
    verify         registered property checks
    cli            command-line front end
"""

from .core import (Boundary, CanonicalState, FlaschkaState, load_state,
                   neighbor_index, random_canonical, random_state, save_state,
                   state_from_json, state_to_json)
from .maps import (drtl_minus_explicit_step, drtl_minus_factors, drtl_minus_step,
                   drtl_plus_explicit_inverse, drtl_plus_explicit_step,
                   drtl_plus_factors, drtl_plus_step, dtl_factor_diag, dtl_step)
from .realizations import (CATALOG, Realization, canonical_step, flaschka_of,
                           lagrangian_value, newtonian_residual,
                           pullback_residuals, realization, symplectic_defects)

__all__ = [
    "Boundary", "CanonicalState", "FlaschkaState", "load_state",
    "neighbor_index", "random_canonical", "random_state", "save_state",
    "state_from_json", "state_to_json",
    "dtl_factor_diag", "dtl_step", "drtl_plus_factors", "drtl_plus_step",
    "drtl_minus_factors", "drtl_minus_step", "drtl_plus_explicit_step",
    "drtl_plus_explicit_inverse", "drtl_minus_explicit_step",
    "CATALOG", "Realization", "realization", "flaschka_of", "canonical_step",
    "lagrangian_value", "newtonian_residual", "pullback_residuals",
    "symplectic_defects",
]

__version__ = "0.1.0"
