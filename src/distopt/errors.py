"""Exception hierarchy shared across the package: one class per case a caller tells apart."""


class DistoptError(Exception):
    """Base class for all package errors."""


class ValidationError(DistoptError):
    """An input violates its constraints: a scenario, scheme or graph field, a file,
    or an argument; the message names the field or file."""


class OracleFailure(DistoptError):
    """The reference optimizer found no stationary point or missed its tolerance."""


class Infeasible(DistoptError):
    """Requested certificate has no feasible value for these inputs."""


class InsufficientVisibility(DistoptError):
    """Observer does not receive enough signals to reconstruct the target."""


class NumericalBlowup(DistoptError):
    """State escaped the finite range during integration.

    Carries the partial trace recorded up to the failing step in the
    ``trace`` attribute (may be None when nothing was recorded).
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
