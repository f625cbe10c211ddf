"""Exception taxonomy shared by all modules.

Everything numerical derives from NumericalError so the CLI can map any
mid-run breakdown to a single exit code.
"""


class NumericalError(Exception):
    """Base class for numerical failures (singular steps, failed solves...)."""


class DomainError(NumericalError):
    """Input lies outside the mathematical domain of a formula or leg function."""


class SingularStep(NumericalError):
    """A denominator in a map recurrence fell below the singularity guard."""


class SolveFailed(NumericalError):
    """The solve of an implicit step failed: a ring's closure did not converge
    or its passes left a leg domain (the solver gave up), or a product overflowed."""


class NoRealBranch(SolveFailed):
    """A ring step (a map's factor recurrence or a chart's step equation) has
    no real solution.

    ``discriminant`` is set when the ring's fixed-point quadratic has no real
    root, ``site`` (0-based) when the attracting root's chain leaves a chart's
    leg domain there; the other is None.
    """

    def __init__(self, message, *, discriminant=None, site=None):
        super().__init__(message)
        self.discriminant = discriminant
        self.site = site


class NonInvertibleLeg(NumericalError):
    """A scalar leg equation has no admissible real solution."""


class SingularMatrix(NumericalError):
    """Matrix inversion required by a construction is not possible."""


class FactorizationOutsideDomain(NumericalError):
    """A pivot of the unpivoted LU factorization vanished."""


class ShapeViolation(NumericalError):
    """A conjugated Lax matrix left its expected band structure."""


class DegenerateFace(NumericalError):
    """A quad equation is not solvable for the requested vertex."""


class BranchMismatch(NumericalError):
    """Two superposition formulas disagree (input data off the solution set)."""
