"""Exception types shared across the package."""


class RuncubeError(Exception):
    """Base class for all library errors."""


class ValidationError(RuncubeError):
    """Input violates the run-constrained string rules or is not a vertex."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class DomainError(RuncubeError):
    """Argument outside the mathematical domain of an operation."""


class ConfigError(RuncubeError):
    """An environment variable holds a value that is not a valid setting."""


class ResourceLimitError(RuncubeError):
    """Requested computation exceeds a configured size cap."""


class RegistryError(RuncubeError):
    """Polynomial operands built over different variable registries."""


class SeriesError(RuncubeError):
    """Violated precondition of a truncated series operation."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class StructureError(RuncubeError):
    """A structural self-check failed (e.g. a graph turned out disconnected)."""
