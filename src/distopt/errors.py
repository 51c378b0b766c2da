"""Exception hierarchy shared across the package."""


class DistoptError(Exception):
    """Base class for all package errors."""


class InvalidEdge(DistoptError):
    """Edge endpoints are out of range or form a self-loop."""


class InvalidWeight(DistoptError):
    """Edge weight is not strictly positive and finite."""


class DuplicateEdge(DistoptError):
    """The same (receiver, sender) pair appears more than once."""


class TooSmall(DistoptError):
    """Network size below the minimum the operation supports."""


class NotConnected(DistoptError):
    """Operation requires a connected (undirected) topology."""


class UnknownCost(DistoptError):
    """Cost catalog lookup failed."""


class UnknownPreset(DistoptError):
    """Named preset does not exist."""


class DimMismatch(DistoptError):
    """Cost models disagree on dimension, or the list is empty."""


class Unbounded(DistoptError):
    """No stationary point found inside the search region."""


class OracleFailure(DistoptError):
    """Reference optimizer failed to reach the requested tolerance."""


class MissingLipschitz(DistoptError):
    """A gradient-Lipschitz constant is required but unavailable."""


class Infeasible(DistoptError):
    """Requested certificate has no feasible value for these inputs."""


class NumericalBlowup(DistoptError):
    """State escaped the finite range during integration.

    Carries the partial trace recorded up to the failing step in the
    ``trace`` attribute (may be None when nothing was recorded).
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class InsufficientSampling(DistoptError):
    """Trace is sampled too sparsely for the requested analysis."""


class InsufficientVisibility(DistoptError):
    """Observer does not receive enough signals to reconstruct the target."""


class ParseError(DistoptError):
    """Scenario or graph file is malformed."""


class ValidationError(DistoptError):
    """A scenario or scheme field violates its constraints."""
