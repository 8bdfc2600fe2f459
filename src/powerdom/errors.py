"""Exception types shared across the package."""

__all__ = [
    "PowerDomError",
    "FormatError",
    "NotFoundError",
    "ParameterError",
    "PreconditionError",
    "InternalError",
]


class PowerDomError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(PowerDomError):
    """Malformed input data (graph6 bytes, edge-list text, ...)."""


class NotFoundError(PowerDomError):
    """A referenced node or builtin graph does not exist."""


class ParameterError(PowerDomError):
    """An argument is outside its allowed range."""


class PreconditionError(PowerDomError):
    """The input violates a structural precondition of the operation."""


class InternalError(PowerDomError):
    """An internal invariant was violated; indicates a bug, not bad input."""
