"""Exception types shared across the toolkit."""

__all__ = [
    "TripletDnpError",
    "ValidationError",
    "ConfigError",
    "CurveParseError",
    "InconsistencyError",
]


class TripletDnpError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(TripletDnpError):
    """An input violates a documented invariant or precondition."""


class ConfigError(ValidationError):
    """A config file is missing, malformed, or violates an invariant."""


class CurveParseError(ValidationError):
    """A curve file could not be parsed. Carries the offending row number."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class InconsistencyError(ValidationError):
    """Two user-supplied quantities are mutually inconsistent."""
