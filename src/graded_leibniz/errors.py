"""Exception types shared across the package."""


class GradedLeibnizError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatch(GradedLeibnizError, TypeError):
    """Raised when scalars (or objects built over scalars) from different fields are combined."""


class DivisionByZero(GradedLeibnizError, ZeroDivisionError):
    """Raised on inversion of, or division by, a zero scalar."""


class DimensionTooSmall(GradedLeibnizError, ValueError):
    """Raised when a construction needs a larger dimension than requested."""


class QnOddDimension(GradedLeibnizError, ValueError):
    """Raised when the even-dimensional Lie family is requested with odd dimension."""


class GroupMismatch(GradedLeibnizError, TypeError):
    """Raised when group elements from different abelian groups are combined."""


class InconsistentHomomorphism(GradedLeibnizError, ValueError):
    """Raised when requested generator images do not define a group homomorphism."""


class DifferentAlgebras(GradedLeibnizError, ValueError):
    """Raised when two gradings that should live on the same algebra do not."""


class ZeroParameter(GradedLeibnizError, ValueError):
    """Raised when an automorphism/torus parameter that must be a unit is zero."""


class BudgetExceeded(GradedLeibnizError, RuntimeError):
    """Raised when an exhaustive search takes more steps than its budget:
    required is the step count reached, or a lower bound on the steps when
    the search is refused before it starts."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(f"search needs at least {required} steps, over its budget of {budget}")


class UnsupportedFamily(GradedLeibnizError, ValueError):
    """Raised when an operation needs one of the built-in families but got something else."""
