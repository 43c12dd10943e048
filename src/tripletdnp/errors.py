"""Exception types shared across the toolkit."""


class TripletDnpError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(TripletDnpError):
    """An input violates a documented invariant or precondition."""


class ConfigError(ValidationError):
    """A config file is missing, malformed, or violates an invariant."""


class CurveParseError(ValidationError):
    """A curve file could not be parsed. Carries the offending row number."""

    def __init__(self, message: str, row: int):
        super().__init__(f"row {row}: {message}")
        self.row = row


class InconsistencyError(ValidationError):
    """Two user-supplied quantities are mutually inconsistent."""
