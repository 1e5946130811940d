"""Exception types shared across the package.

The CLI maps these onto its exit codes: usage/shape/parse problems exit 2,
positive-semidefiniteness violations exit 3, quadrature non-convergence
exits 4.
"""


class ShapeError(ValueError):
    """Matrix or vector dimensions do not match the operation's contract."""


class NotPsdError(ValueError):
    """A matrix fails the positive-semidefinite acceptance test."""

    def __init__(self, message, min_eigenvalue=None, tolerance=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue
        self.tolerance = tolerance


class SpectralDomainError(ValueError):
    """A spectral function is undefined or non-finite at an eigenvalue."""

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class EigenSolverError(RuntimeError):
    """The symmetric eigensolver failed to converge."""

    def __init__(self, message, dim=None, cond_estimate=None):
        super().__init__(message)
        self.dim = dim
        self.cond_estimate = cond_estimate


class QuadratureError(RuntimeError):
    """An integral did not converge within the node budget.

    Carries the best value computed and its error estimate so callers can
    inspect how far the run got.
    """

    def __init__(self, message, value=None, error_estimate=None, nodes_used=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.nodes_used = nodes_used


class IfsBudgetError(QuadratureError):
    """Self-similar quadrature cannot meet its tolerance within budget.

    A pinned depth would exceed the 2**24 support-point budget, or adaptive
    refinement would pass that many evaluations, a level's frontier would
    pass its memory bound, or the tolerance is below the float64 resolution
    of the estimate.
    """


class SingularPencilError(ArithmeticError):
    """Epsilon-regularization failed to stabilize a singular evaluation."""
