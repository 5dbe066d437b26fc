"""Exception hierarchy shared across the package.

Every error the package raises is a ValidationError or a NumericalError.
The CLI maps ValidationError to exit code 2 and NumericalError to exit
code 3; everything else is a genuine bug and propagates.
"""


class HdtsError(Exception):
    """Common base of ValidationError and NumericalError; never raised itself."""


class ValidationError(HdtsError, ValueError):
    """Invalid input: a constructor invariant or a precondition was violated."""


class AssumptionError(ValidationError):
    """Data violates the minimum long-run variance requirement (min_j sigma_jj >= c)."""


class BoundaryError(ValidationError):
    """A rate/regime parameter sits exactly on a boundary where the theory is undefined."""


class NumericalError(HdtsError, ArithmeticError):
    """Numerical failure: non-finite values, failed decomposition, infeasible quadrature."""
