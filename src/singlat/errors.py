"""Exception hierarchy shared by all singlat modules."""

__all__ = [
    "SinglatError",
    "DimensionError",
    "DomainError",
    "ConstructionError",
    "InternalError",
    "ConsistencyError",
    "ResourceError",
]


class SinglatError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(SinglatError):
    """A coefficient vector does not match the ambient object's size."""


class DomainError(SinglatError):
    """Input violates a documented precondition."""


class ConstructionError(SinglatError):
    """Graph or cycle data failed an integrality or convention validator."""


class InternalError(SinglatError):
    """An internal invariant broke; indicates a bug, not bad input."""


class ConsistencyError(SinglatError):
    """Two independent routes to the same quantity disagree."""


class ResourceError(SinglatError):
    """A valid input whose computation would exceed a documented budget;
    raised before the work is allocated."""
