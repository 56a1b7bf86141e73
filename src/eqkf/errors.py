"""Exception types shared across the package.

Numerical failures raise a subclass of ``FilterError`` naming the quantity
that broke down, so callers can distinguish, say, a singular innovation
covariance from a rank-deficient constraint without parsing messages.
Configuration problems in the simulation harness raise ``ParseError`` or
``ValidationError`` instead.
"""


class FilterError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(FilterError):
    """Operands have incompatible shapes."""


class NotSquare(FilterError):
    """A square matrix was required."""


class SingularBlock(FilterError):
    """A matrix required to be symmetric positive definite failed its Cholesky
    factorization (the default error of ``matops.spd_cholesky`` and
    ``matops.solve_spd``)."""


class SingularInnovationCovariance(FilterError):
    """The innovation covariance is not positive definite."""


class SingularCovariance(FilterError):
    """A covariance that must be invertible is numerically singular."""


class SingularConstraintGram(FilterError):
    """The constraint Gram matrix (A P A' or A W^-1 A') is numerically singular."""


class SingularAugmentedInnovation(FilterError):
    """The stacked measurement-plus-constraint residual covariance is singular."""


class SingularWeight(FilterError):
    """A projection weight matrix is not usable (not positive definite)."""


class IndefiniteCovariance(FilterError):
    """An updated covariance failed its symmetric positive semidefinite check."""


class SingularKkt(FilterError):
    """An assembled KKT system is numerically singular."""


class DegenerateResidual(FilterError):
    """The innovation is too small for the gain-correction system to be solvable."""


class RankDeficientJacobian(FilterError):
    """A constraint Jacobian lost row rank at the linearization point."""


class ParseError(FilterError):
    """A scenario document is malformed (bad syntax or structure)."""


class ValidationError(FilterError):
    """A scenario document is well-formed but violates a semantic invariant."""


class UnsupportedFormat(FilterError):
    """An unknown report output format was requested."""


class ScenarioStepError(FilterError):
    """A numerical failure occurred while running a scenario.

    Carries the one-based step index and the method label so harness
    front ends can report where a run died.
    """

    def __init__(self, step: int, method: str, cause: FilterError):
        super().__init__(f"step {step}, method {method}: {cause}")
        self.step = step
        self.method = method
        self.cause = cause
