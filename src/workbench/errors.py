"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class InvalidInput(WorkbenchError):
    """A documented precondition was violated; the message names it."""


class InternalContradiction(WorkbenchError):
    """A structural fact that should hold for every valid input failed.

    Raising this flags either a bug or a hypothesis violation that slipped
    past the input validators; it is never caught internally.
    """


class CoprimalityError(WorkbenchError):
    """Two polynomials required to be coprime share a factor."""


class QuadratureError(WorkbenchError):
    """Adaptive quadrature failed to converge; carries the best estimate."""

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class EnclosureError(WorkbenchError):
    """Certified root enclosures could not be refined to the requested tolerance."""
