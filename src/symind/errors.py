"""Exception hierarchy shared by all symind modules."""


class SymindError(Exception):
    """Base class for all toolkit errors."""


# -- symplectic core ---------------------------------------------------------

class NotIsotropic(SymindError):
    """Column span fails the symplectic-form isotropy test."""


class RankDeficient(SymindError):
    """Fewer independent columns than the half-dimension requires."""


class SpaceMismatch(SymindError):
    """Operands live in different symplectic spaces."""


class NotSymplectic(SymindError):
    """Matrix fails M^T J M = J within tolerance."""


# -- maslov ------------------------------------------------------------------

class NotACrossing(SymindError):
    """Requested instant has trivial intersection."""


class ContinuityBudgetExceeded(SymindError):
    """Path moves too fast for the refinement cap."""


# -- sturm-liouville ---------------------------------------------------------

class CoefficientShapeInvalid(SymindError):
    """A coefficient returned neither (k, n, n) nor (n, n) for k instants."""


class CoefficientSingular(SymindError):
    """Leading coefficient P(t) is not invertible at t, or a coefficient is
    not finite there."""


class StepSizeUnderflow(SymindError):
    """Integrator step collapsed near a coefficient blow-up."""


class DriftBudgetExceeded(SymindError):
    """Symplectic residual of an integrated flow exceeds its budget."""


class ScheduleTooShort(SymindError):
    """Truncation schedule has fewer than four entries."""


class KernelBasisUnavailable(SymindError):
    """No analytic or numeric kernel basis for the maximal operator."""


class UnknownBoundaryCondition(SymindError):
    """Boundary condition is neither a known name nor a boundary-data frame."""


class BracketLimitDiverges(SymindError):
    """Boundary bracket has no limit at the singular endpoint."""


class Inconclusive(SymindError):
    """A verdict is ambiguous within tolerance: an endpoint classification
    fit, or a triple index whose signature and intersection counts disagree."""


class SelectionFailed(SymindError):
    """Kernel trace of a boundary chart is not Lagrangian."""


# -- spectral-flow lab -------------------------------------------------------

class GridTooCoarse(SymindError):
    """Discretization grid below the minimum size."""


class BCEliminationSingular(SymindError):
    """Boundary unknowns cannot be eliminated against the condition frame."""


class TransversalityViolated(SymindError):
    """Boundary path meets the reference Lagrangian off the base point."""


# -- bessel ------------------------------------------------------------------

class OutOfRange(SymindError):
    """Parameter outside the documented domain of the map."""


class TailModelMissing(SymindError):
    """Classification requires a declared tail model."""


class LimitPointNoCondition(SymindError):
    """No boundary condition exists in the limit-point regime."""


# -- nbody -------------------------------------------------------------------

class CollisionConfiguration(SymindError):
    """Two bodies coincide; potential and Hessian are undefined."""


class SolverDiverged(SymindError):
    """Central-configuration iteration failed to converge."""


class ConvergedToCollision(SymindError):
    """Iteration approached the collision set."""


class NotNormalized(SymindError):
    """Configuration does not satisfy I(q) = 1 within tolerance."""


# -- cli ---------------------------------------------------------------------

class ConfigInvalid(SymindError):
    """Run configuration fails validation."""


class UnknownCatalogEntry(SymindError):
    """Requested catalog problem does not exist."""
